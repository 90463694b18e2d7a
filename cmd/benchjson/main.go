// Command benchjson converts `go test -bench` text output (read from stdin)
// into a JSON array, one object per benchmark result line, so CI and the
// EXPERIMENTS.md tooling can diff runs without scraping free-form text:
//
//	go test -run '^$' -bench BenchmarkMallocFree64 -benchtime=300000x -count=5 . \
//	    | go run ./cmd/benchjson > BENCH_free.json
//
// Repeated -count runs of one benchmark are grouped: each output object
// carries every run plus the median, which is the number EXPERIMENTS.md
// records (medians resist the occasional GC-noise outlier that means would
// absorb).
//
// Gate mode compares two benchmarks from the same input and fails when the
// probe's statistic (-stat median or min) exceeds the base's by more than the
// allowed ratio — an ad-hoc regression check over any bench-json output
// (note that two benchmarks from one binary share warm-up drift; for a
// drift-proof pairing see make telemetry-overhead, which interleaves):
//
//	go test -run '^$' -bench 'BenchmarkMallocFree64_MineSweeper' -count=5 . \
//	    | go run ./cmd/benchjson \
//	        -base BenchmarkMallocFree64_MineSweeper \
//	        -probe BenchmarkMallocFree64_MineSweeperTelemetry \
//	        -max-ratio 1.03 -stat min
//
// Envelope mode compares a fresh run against a checked-in baseline JSON (a
// previous run of this tool) and fails when any matching benchmark's
// statistic exceeds its recorded value by more than the allowed ratio — the
// regression gate over the committed BENCH_free.json numbers:
//
//	go test -run '^$' -bench 'BenchmarkMallocFree64' -benchtime=300000x -count=5 . \
//	    | go run ./cmd/benchjson -baseline BENCH_free.json \
//	        -match 'MallocFree64' -max-ratio 1.10
//
// Benchmarks present in the fresh run but absent from the baseline are
// reported and skipped (a new benchmark is not a regression); benchmarks in
// the baseline but missing from the run are ignored (the run may be scoped).
// Every result records its host shape — GOMAXPROCS (the -P name suffix) and
// the CPU model from go test's "cpu:" line — and envelope mode refuses, with
// exit status 2, to compare a benchmark across shapes: a median from another
// core count or processor says nothing about a regression here. Re-record
// the baseline on this host (make bench-json) instead.
//
// Quantile mode reads a telemetry snapshot (telemetry.Snapshot JSON, as
// written by msrun -telemetry-json or msstat) instead of bench output and
// fails when a named histogram's quantile exceeds a bound — the pause-tail
// gate behind make pause-gate:
//
//	go run ./cmd/benchjson -snapshot pause.json \
//	    -hist stw_pause_ns -q 0.999 -max-ns 524288
//
// Histogram quantiles are bucket upper bounds (power-of-two buckets), so a
// reported p99.9 ≤ 2^19 ns guarantees the true p99.9 is under 1 ms.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"minesweeper/internal/telemetry"
)

// result is one benchmark name's aggregated runs.
type result struct {
	Name        string    `json:"name"`
	Procs       int       `json:"procs"`
	CPU         string    `json:"cpu,omitempty"`
	Runs        int       `json:"runs"`
	Iterations  []int64   `json:"iterations"`
	NsPerOp     []float64 `json:"ns_per_op"`
	MedianNsOp  float64   `json:"median_ns_per_op"`
	BytesPerOp  []int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp []int64   `json:"allocs_per_op,omitempty"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// splitName separates the GOMAXPROCS suffix go test appends ("Foo-8" → "Foo",
// 8). Benchmarks whose own name ends in "-<digits>" are not expressible in Go
// identifiers, so the split is unambiguous.
func splitName(s string) (string, int) {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return s, 1
	}
	p, err := strconv.Atoi(s[i+1:])
	if err != nil || p <= 0 {
		return s, 1
	}
	return s[:i], p
}

func main() {
	base := flag.String("base", "", "gate mode: base benchmark name (without -P suffix)")
	probe := flag.String("probe", "", "gate mode: probe benchmark name compared against -base")
	maxRatio := flag.Float64("max-ratio", 1.03, "gate/envelope mode: fail if probe exceeds base(line) by this ratio")
	stat := flag.String("stat", "median", "gate/envelope mode: statistic to compare, median or min (min resists warm-up drift)")
	baseline := flag.String("baseline", "", "envelope mode: baseline JSON file (a previous benchjson run) to compare the fresh run against")
	match := flag.String("match", "", "envelope mode: only check benchmarks whose name contains this substring (empty = all)")
	snapshot := flag.String("snapshot", "", "quantile mode: telemetry snapshot JSON file to read histograms from")
	hist := flag.String("hist", telemetry.HistStw, "quantile mode: histogram name to check")
	quant := flag.Float64("q", 0.999, "quantile mode: quantile to extract (0..1)")
	maxNs := flag.Uint64("max-ns", 0, "quantile mode: fail if the quantile (bucket upper bound, ns) exceeds this; 0 just prints")
	flag.Parse()

	if *snapshot != "" {
		quantileGate(*snapshot, *hist, *quant, *maxNs)
		return
	}

	out, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}

	if *base != "" || *probe != "" {
		if *base == "" || *probe == "" {
			fmt.Fprintln(os.Stderr, "benchjson: gate mode needs both -base and -probe")
			os.Exit(2)
		}
		gate(out, *base, *probe, *maxRatio, *stat)
		return
	}
	if *baseline != "" {
		os.Exit(envelope(out, *baseline, *match, *maxRatio, *stat))
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: encode:", err)
		os.Exit(1)
	}
}

// parse reads go test -bench output and groups repeated runs of each
// benchmark, in first-seen order, tagging each with the CPU model of the
// most recent "cpu:" line (go test prints one per package).
func parse(in io.Reader) ([]*result, error) {
	byName := make(map[string]*result)
	var names []string // first-seen order
	cpu := ""

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			cpu = strings.TrimSpace(m)
			continue
		}
		f := strings.Fields(sc.Text())
		// A result line: Benchmark<Name>-P  <iters>  <ns> ns/op  [<B> B/op  <allocs> allocs/op]
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		iters, err1 := strconv.ParseInt(f[1], 10, 64)
		ns, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		name, procs := splitName(f[0])
		r, ok := byName[f[0]]
		if !ok {
			r = &result{Name: name, Procs: procs, CPU: cpu}
			byName[f[0]] = r
			names = append(names, f[0])
		}
		r.Iterations = append(r.Iterations, iters)
		r.NsPerOp = append(r.NsPerOp, ns)
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				r.BytesPerOp = append(r.BytesPerOp, v)
			case "allocs/op":
				r.AllocsPerOp = append(r.AllocsPerOp, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]*result, 0, len(names))
	for _, n := range names {
		r := byName[n]
		r.Runs = len(r.NsPerOp)
		r.MedianNsOp = median(r.NsPerOp)
		out = append(out, r)
	}
	return out, nil
}

// quantileGate reads a telemetry snapshot and checks one histogram's quantile
// against a nanosecond bound. Quantiles are bucket upper bounds, so the check
// is conservative: a pass guarantees the true quantile is under the bound.
func quantileGate(file, hist string, q float64, maxNs uint64) {
	f, err := os.Open(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: quantile:", err)
		os.Exit(2)
	}
	defer f.Close()
	snap, err := telemetry.ReadSnapshot(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: quantile:", err)
		os.Exit(2)
	}
	for _, h := range snap.Histograms {
		if h.Name != hist {
			continue
		}
		if h.Count == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: quantile: histogram %s has no samples\n", hist)
			os.Exit(2)
		}
		v := h.Quantile(q)
		fmt.Printf("quantile %s p%g: <%d ns (n=%d, p50<%d p99<%d p99.9<%d max<%d)\n",
			hist, q*100, v, h.Count, h.P50, h.P99, h.P999, h.Max())
		if maxNs > 0 && v > maxNs {
			fmt.Fprintf(os.Stderr, "benchjson: quantile FAILED: %d ns > %d ns bound\n", v, maxNs)
			os.Exit(1)
		}
		if maxNs > 0 {
			fmt.Println("quantile OK")
		}
		return
	}
	fmt.Fprintf(os.Stderr, "benchjson: quantile: histogram %s not in %s\n", hist, file)
	os.Exit(2)
}

// gate compares probe's statistic against base's and exits nonzero on a
// regression beyond maxRatio. stat "min" compares fastest runs — the usual
// estimator when early runs of a process carry warm-up cost that medians
// would count as regression.
func gate(results []*result, base, probe string, maxRatio float64, stat string) {
	pick := func(r *result) float64 { return pickStat(r, stat) }
	find := func(name string) *result {
		for _, r := range results {
			if r.Name == name && len(r.NsPerOp) > 0 {
				return r
			}
		}
		return nil
	}
	b, p := find(base), find(probe)
	if b == nil || p == nil {
		fmt.Fprintf(os.Stderr, "benchjson: gate: missing %s and/or %s in input\n", base, probe)
		os.Exit(2)
	}
	bv, pv := pick(b), pick(p)
	if bv <= 0 {
		fmt.Fprintf(os.Stderr, "benchjson: gate: base %s is %v\n", stat, bv)
		os.Exit(2)
	}
	ratio := pv / bv
	fmt.Printf("gate %s/%s (%s): %.1f ns / %.1f ns = %.4fx (limit %.2fx)\n",
		probe, base, stat, pv, bv, ratio, maxRatio)
	if ratio > maxRatio {
		fmt.Fprintf(os.Stderr, "benchjson: gate FAILED: %.4fx > %.2fx\n", ratio, maxRatio)
		os.Exit(1)
	}
	fmt.Println("gate OK")
}

// pickStat extracts the comparison statistic from a result's runs. Median is
// the committed-number statistic (what BENCH_free.json records); min resists
// the warm-up drift a fresh process's early runs carry.
func pickStat(r *result, stat string) float64 {
	switch stat {
	case "min":
		m := r.NsPerOp[0]
		for _, v := range r.NsPerOp[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case "median":
		return r.MedianNsOp
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown -stat %q\n", stat)
		os.Exit(2)
		return 0
	}
}

// envelope compares every matching fresh result against the same-named entry
// in the baseline file and returns the exit status: 1 if any exceeds its
// recorded statistic by more than maxRatio, 2 if the comparison cannot be
// made — including a benchmark whose host shape (procs, CPU model) differs
// from the baseline's. The baseline's committed medians come from the same
// fixed-iteration protocol, so the ratio is iteration-count comparable; the
// envelope absorbs host noise between sessions on one host shape.
func envelope(fresh []*result, baselineFile, match string, maxRatio float64, stat string) int {
	data, err := os.ReadFile(baselineFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: envelope:", err)
		return 2
	}
	var recorded []*result
	if err := json.Unmarshal(data, &recorded); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: envelope: parsing %s: %v\n", baselineFile, err)
		return 2
	}
	byName := make(map[string]*result, len(recorded))
	for _, r := range recorded {
		if len(r.NsPerOp) > 0 {
			byName[r.Name] = r
		}
	}
	checked, failed := 0, 0
	for _, f := range fresh {
		if len(f.NsPerOp) == 0 || (match != "" && !strings.Contains(f.Name, match)) {
			continue
		}
		b, ok := byName[f.Name]
		if !ok {
			fmt.Printf("envelope %s: not in %s, skipped (new benchmark)\n", f.Name, baselineFile)
			continue
		}
		if b.Procs != f.Procs || b.CPU != f.CPU {
			fmt.Fprintf(os.Stderr, "benchjson: envelope: %s recorded in %s on procs=%d cpu=%q, this run is procs=%d cpu=%q; refusing to compare across host shapes (re-record the baseline with make bench-json)\n",
				f.Name, baselineFile, b.Procs, b.CPU, f.Procs, f.CPU)
			return 2
		}
		bv, fv := pickStat(b, stat), pickStat(f, stat)
		if bv <= 0 {
			fmt.Fprintf(os.Stderr, "benchjson: envelope: baseline %s %s is %v\n", f.Name, stat, bv)
			return 2
		}
		ratio := fv / bv
		verdict := "ok"
		if ratio > maxRatio {
			verdict = "FAILED"
			failed++
		}
		checked++
		fmt.Printf("envelope %s (%s): %.1f ns vs recorded %.1f ns = %.4fx (limit %.2fx) %s\n",
			f.Name, stat, fv, bv, ratio, maxRatio, verdict)
	}
	if checked == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: envelope: no benchmarks matched")
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: envelope FAILED: %d of %d benchmarks regressed\n", failed, checked)
		return 1
	}
	fmt.Printf("envelope OK: %d benchmarks within %.2fx of %s\n", checked, maxRatio, baselineFile)
	return 0
}
