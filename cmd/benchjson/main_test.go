package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: minesweeper
cpu: Example CPU @ 2.00GHz
BenchmarkMallocFree64_MineSweeper-2   	  300000	       230.0 ns/op
BenchmarkMallocFree64_MineSweeper-2   	  300000	       240.0 ns/op
BenchmarkMallocFree64_MineSweeper-2   	  300000	       250.0 ns/op
PASS
`

func mustParse(t *testing.T, text string) []*result {
	t.Helper()
	rs, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestParseRecordsHostShape(t *testing.T) {
	rs := mustParse(t, benchOut)
	if len(rs) != 1 {
		t.Fatalf("parsed %d results, want 1", len(rs))
	}
	r := rs[0]
	if r.Name != "BenchmarkMallocFree64_MineSweeper" || r.Procs != 2 || r.CPU != "Example CPU @ 2.00GHz" {
		t.Fatalf("name/procs/cpu = %q/%d/%q", r.Name, r.Procs, r.CPU)
	}
	if r.Runs != 3 || r.MedianNsOp != 240 {
		t.Fatalf("runs/median = %d/%v, want 3/240", r.Runs, r.MedianNsOp)
	}
}

// writeBaseline records text's results as a baseline file, as make
// bench-json does.
func writeBaseline(t *testing.T, text string) string {
	t.Helper()
	data, err := json.Marshal(mustParse(t, text))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEnvelopeRefusesOtherHostShape: a baseline recorded at another
// GOMAXPROCS or on another CPU model is not compared (exit status 2), even
// when the medians would pass; the same shape compares as usual.
func TestEnvelopeRefusesOtherHostShape(t *testing.T) {
	fresh := mustParse(t, benchOut)
	cases := []struct {
		name     string
		baseline string
		want     int
	}{
		{"same shape", benchOut, 0},
		{"other procs", strings.ReplaceAll(benchOut, "-2 ", "-1 "), 2},
		{"other cpu", strings.Replace(benchOut, "Example CPU", "Other CPU", 1), 2},
		{"no cpu recorded", strings.Replace(benchOut, "cpu: Example CPU @ 2.00GHz\n", "", 1), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := envelope(fresh, writeBaseline(t, tc.baseline), "MallocFree64", 1.5, "median"); got != tc.want {
				t.Fatalf("envelope exit status = %d, want %d", got, tc.want)
			}
		})
	}
	// A real regression on the same shape still fails with status 1.
	slow := strings.NewReplacer("230.0", "460.0", "240.0", "480.0", "250.0", "500.0").Replace(benchOut)
	if got := envelope(mustParse(t, slow), writeBaseline(t, benchOut), "", 1.5, "median"); got != 1 {
		t.Fatalf("regressed run: envelope exit status = %d, want 1", got)
	}
}
