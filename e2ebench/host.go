package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// shape is the host-shape stamp every result carries. Results of different
// shape are never compared: a change of core count or CPU model moves every
// figure by more than any bound the benchmark sets.
type shape struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func (s shape) String() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s", s.GOMAXPROCS, s.NumCPU, s.CPUModel, s.GoVersion)
}

func hostShape() shape {
	return shape{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goRuntime reads the Go runtime's GC figures through runtime/metrics.
type goRuntime struct {
	gcCPU, totalCPU, cycles float64
}

var goSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readGoRuntime() goRuntime {
	metrics.Read(goSamples)
	f := func(i int) float64 {
		switch goSamples[i].Value.Kind() {
		case metrics.KindFloat64:
			return goSamples[i].Value.Float64()
		case metrics.KindUint64:
			return float64(goSamples[i].Value.Uint64())
		}
		return 0
	}
	return goRuntime{gcCPU: f(0), totalCPU: f(1), cycles: f(2)}
}

// since is what the runtime did between g0 and g.
func (g goRuntime) since(g0 goRuntime) goRuntime {
	return goRuntime{gcCPU: g.gcCPU - g0.gcCPU, totalCPU: g.totalCPU - g0.totalCPU, cycles: g.cycles - g0.cycles}
}

// goHeapMiB returns the live Go heap: the simulator's own memory, its
// simulated pages and its metadata (shadow slot arrays, quarantine tables,
// page maps). It is the median of three readings, each after a forced
// collection, because a sweep in flight holds transient buffers.
func goHeapMiB() float64 {
	var xs []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		metrics.Read(goSamples)
		xs = append(xs, float64(goSamples[3].Value.Uint64())/(1<<20))
		time.Sleep(20 * time.Millisecond)
	}
	return median(xs)
}

// quantile returns the q-quantile of xs (sorted in place), interpolating
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Set-up is repeated at least minSetups times, and until setupBudget has
// been spent (at most maxSetups times), so that cheap set-ups get enough
// repetitions for a steady median.
const (
	minSetups   = 7
	maxSetups   = 25
	setupBudget = time.Second
)

// timeSetup builds a workload's initial state several times and returns the
// median build time and the last build, closing the others.
func timeSetup[T any](build func() (T, error), close func(T)) (T, float64, error) {
	var last T
	var times []float64
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if i > 0 {
			close(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
		last = v
	}
	return last, median(times), nil
}

// compareFiles prints the per-metric medians of two results files side by
// side, with the new/old ratio, after checking every record shares one host
// shape.
func compareFiles(oldPath, newPath string) error {
	load := func(path string) ([]result, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rs []result
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			rs = append(rs, r)
		}
		return rs, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("compare: empty results file")
	}
	want := a[0].Shape
	for _, r := range append(append([]result{}, a...), b...) {
		if r.Shape != want {
			return fmt.Errorf("compare: refusing to compare results of different host shape:\n  %s\n  %s", want, r.Shape)
		}
	}
	type key struct{ workload, metric, unit string }
	vals := func(rs []result) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name, v.Unit}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	va, vb := vals(a), vals(b)
	keys := make([]key, 0, len(va))
	for k := range va {
		if _, ok := vb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Printf("shape %s\n%-12s %-28s %6s %14s %14s %8s\n", want, "workload", "metric", "runs", "old median", "new median", "new/old")
	for _, k := range keys {
		ma, mb := median(va[k]), median(vb[k])
		ratio := 0.0
		if ma != 0 {
			ratio = mb / ma
		}
		fmt.Printf("%-12s %-28s %3d/%-3d %14.6g %14.6g %8.4f %s\n", k.workload, k.metric, len(va[k]), len(vb[k]), ma, mb, ratio, k.unit)
	}
	return nil
}
