package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The same seed must give a byte-identical input stream, and another seed
// another stream.
func TestInputStreamIsSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, n := inputHash(w.name, 5)
		b, _ := inputHash(w.name, 5)
		c, _ := inputHash(w.name, 6)
		if n == 0 || a != b {
			t.Errorf("%s: seed 5 hashed %s then %s over %d inputs", w.name, a, b, n)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", w.name)
		}
	}
}

func TestCompareRefusesDifferentShapes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r result) string {
		r.Metrics = map[string]metric{"ops_per_s": {1, "1/s"}}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		r.Workload = "alloc-heavy"
		if err := writeRecord(f, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", result{Shape: shape{GOMAXPROCS: 1, NumCPU: 1, CPUModel: "x", GoVersion: "go1"}})
	b := write("b.jsonl", result{Shape: shape{GOMAXPROCS: 2, NumCPU: 2, CPUModel: "x", GoVersion: "go1"}})
	if err := compareFiles(a, a); err != nil {
		t.Fatalf("same shape: %v", err)
	}
	if err := compareFiles(a, b); err == nil || !strings.Contains(err.Error(), "different host shape") {
		t.Fatalf("different shapes compared: %v", err)
	}
}

// The closed-loop generator only frees and loads live objects, and its
// loads expect what the stream stored.
func TestClosedStreamNamesLiveObjects(t *testing.T) {
	for _, p := range []*closedParams{allocHeavy, tenantProbe} {
		g := newClosedGen(p, 3)
		live := map[uint32]bool{}
		buf := make([]op, 0, 4096)
		for n := 0; n < 1<<17; n += len(buf) {
			buf = g.fill(buf)
			for _, o := range buf {
				switch o.kind {
				case opAlloc:
					if live[o.slot] {
						t.Fatalf("%s: slot %d allocated while live", p.name, o.slot)
					}
					live[o.slot] = true
				case opFree, opPlant:
					if !live[o.slot] {
						t.Fatalf("%s: slot %d freed while dead", p.name, o.slot)
					}
					delete(live, o.slot)
				case opLoad, opStore:
					if !live[o.slot] {
						t.Fatalf("%s: slot %d accessed while dead", p.name, o.slot)
					}
				}
			}
		}
	}
}
