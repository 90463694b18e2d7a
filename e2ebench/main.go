// Command e2ebench is the repository's end-to-end benchmark for the protected
// heap. One invocation runs one named workload for a fixed time from a seed,
// checks that the program's outputs are correct, and prints every metric by
// name and unit. The last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced. With
// -trace 1 a separate traced pass times every call the benchmark makes into
// a layer and prints per-layer self times and the per-layer metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload alloc-heavy --seed 1 --seconds 10 --trace 0
//
// Every run also appends its full record, with the host-shape stamp, to
// .bench_build/results/results.jsonl. Two such files are compared with
//
//	bash e2ebench/run.sh --compare old.jsonl new.jsonl
//
// which refuses to compare results taken on hosts of different shape.
//
// BENCHMARK.json names alloc-heavy, big-heap and server. The fleet workload
// runs by hand only: Host exposes no baseline to interleave with, and its
// tick latencies spread too far between runs to gate on. e2ebench/layers.json
// records why each workload exists and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured. Metrics holds the figures the last
// output line reports; Extra holds the ones printed for people only: they
// apply to some workloads and not others, or spread too far between runs of
// one seed on a shared host to gate on.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Shape     shape             `json:"shape"`
	InputHash string            `json:"input_sha256"`
	HashedOps int               `json:"hashed_ops"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra"`
}

func (r *result) set(name string, v float64, unit string)  { r.Metrics[name] = metric{finite(v), unit} }
func (r *result) note(name string, v float64, unit string) { r.Extra[name] = metric{finite(v), unit} }

// finite maps the NaN or infinity of an empty measurement to 0, which JSON
// can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// div is a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fail records a failed or refused operation, with its reason for the
// first few.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 16 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// workloadSpec is one named workload: its untraced and traced passes.
type workloadSpec struct {
	name string
	run  func(r *result, seed uint64, seconds float64)
	tr   func(r *result, seed uint64, seconds float64)
}

var workloads = []workloadSpec{
	{"alloc-heavy", func(r *result, s uint64, d float64) { runClosed(r, allocHeavy, s, d) },
		func(r *result, s uint64, d float64) { traceClosed(r, allocHeavy, s, d) }},
	{"big-heap", func(r *result, s uint64, d float64) { runClosed(r, bigHeap, s, d) },
		func(r *result, s uint64, d float64) { traceClosed(r, bigHeap, s, d) }},
	{"server", runServer, traceServer},
	{"fleet", runFleet, traceFleet},
}

// outDir is where runs leave their records and span files, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/results"

func main() {
	name := flag.String("workload", "", "workload to run: alloc-heavy, big-heap, server or fleet")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	compare := flag.Bool("compare", false, "compare two results.jsonl files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare wants two results files")
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatalf("bad -seconds or -trace")
	}
	r := &result{
		Workload: spec.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Shape: hostShape(), Metrics: map[string]metric{}, Extra: map[string]metric{},
	}
	r.InputHash, r.HashedOps = inputHash(spec.name, *seed)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", r.Workload, r.Seed, r.Seconds, *trace)
	fmt.Printf("shape %s\n", r.Shape)
	fmt.Printf("input_sha256 %s (first %d inputs)\n", r.InputHash, r.HashedOps)
	if r.Trace {
		spec.tr(r, *seed, float64(*seconds))
	} else {
		spec.run(r, *seed, float64(*seconds))
	}
	report(r)
	if err := appendRecord(r); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: recording result:", err)
	}
	correct := r.Failed == 0
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}

// report prints every metric by name and unit, then any failures.
func report(r *result) {
	print := func(title string, m map[string]metric) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Println(title)
		for _, k := range names {
			fmt.Printf("  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	print("metrics:", r.Metrics)
	if len(r.Extra) > 0 {
		print("also measured (not in the result line):", r.Extra)
	}
	fmt.Printf("attempted %d failed %d failed_share %.3g\n", r.Attempted, r.Failed, div(float64(r.Failed), float64(r.Attempted)))
	for _, p := range r.Problems {
		fmt.Println("FAILED:", p)
	}
}

func appendRecord(r *result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeRecord(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeRecord writes r as one JSON line.
func writeRecord(w io.Writer, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// slug makes a file-name-safe token.
func slug(s string) string { return strings.NewReplacer("/", "_", " ", "_").Replace(s) }
