// Interleaved A/B floor comparisons: the telemetry-, events- and
// governor-overhead gates behind their make targets all run through one
// helper, abFloor.
//
// Measuring "A vs B" with two separate `go test -bench` entries is
// unreliable on this class of host: the whole bench binary speeds up as the
// Go runtime's own heap warms (40%+ between the first and last run), so
// whichever benchmark runs second wins regardless of its real cost, and
// scheduler interference on a 1-CPU box adds ±10% to any sub-second window.
// abFloor therefore keeps one long-lived process per configuration and
// alternates short fixed-iteration chunks between them: drift and load hit
// the two interleaved chunk streams equally, and taking each side's minimum
// chunk — its cleanest scheduling window — recovers the fast-path floor a
// budget is defined against. Several independent process pairs run in turn,
// because a single process can be persistently a percent or two slow from
// heap-layout luck; the floor is taken across all of a configuration's
// processes.
//
// Each gate is skipped unless its env var is set: it spends a few seconds
// of wall-clock timing and its verdict is only meaningful on an otherwise
// idle machine.
package minesweeper_test

import (
	"math"
	"os"
	"testing"
	"time"

	minesweeper "minesweeper"
)

// abSpec is one interleaved floor comparison: the baseline configuration A,
// the candidate B, and the per-op loop both run.
type abSpec struct {
	a, b         minesweeper.Config
	aName, bName string // labels in the per-attempt log line
	// loop runs n ops on th. It owns the loop so the timed chunk pays no
	// per-op indirect call.
	loop     func(th *minesweeper.Thread, n int) error
	maxRatio float64 // limit on floor(B) / floor(A)
	attempts int     // re-measure before declaring a regression
}

// mallocFreeLoop is the standard loop: n 64-byte malloc/free pairs.
func mallocFreeLoop(th *minesweeper.Thread, n int) error {
	for i := 0; i < n; i++ {
		a, err := th.Malloc(64)
		if err != nil {
			return err
		}
		if err := th.Free(a); err != nil {
			return err
		}
	}
	return nil
}

// abFloor runs the comparison and returns the last attempt's floor ratio
// B/A and whether any attempt came in at or under maxRatio.
//
// The floor estimate makes one attempt under the limit evidence enough: an
// over-limit attempt on a shared host is more often a load burst that kept
// one side from ever seeing a clean window than a real regression, which
// would inflate B's floor in every attempt.
func abFloor(t *testing.T, s abSpec) (ratio float64, ok bool) {
	t.Helper()
	const (
		opsPerChunk = 100_000
		chunks      = 30 // interleaved A/B chunks per process pair
		pairs       = 3  // independent process pairs
	)
	newThread := func(cfg minesweeper.Config) (*minesweeper.Process, *minesweeper.Thread) {
		p, err := minesweeper.NewProcess(cfg)
		if err != nil {
			t.Fatal(err)
		}
		th, err := p.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		return p, th
	}
	chunk := func(th *minesweeper.Thread) float64 {
		start := time.Now()
		if err := s.loop(th, opsPerChunk); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(start).Nanoseconds()) / opsPerChunk
	}
	measure := func() (aMin, bMin float64) {
		aMin, bMin = math.Inf(1), math.Inf(1)
		for p := 0; p < pairs; p++ {
			pA, thA := newThread(s.a)
			pB, thB := newThread(s.b)
			// One discarded chunk each: the first chunks pay the cold-heap
			// cost (page faults, tcache fill) that later chunks reuse.
			chunk(thA)
			chunk(thB)
			for c := 0; c < chunks; c++ {
				aMin = min(aMin, chunk(thA))
				bMin = min(bMin, chunk(thB))
			}
			thA.Close()
			thB.Close()
			pA.Close()
			pB.Close()
		}
		return aMin, bMin
	}
	for a := 0; a < s.attempts; a++ {
		aMin, bMin := measure()
		ratio = bMin / aMin
		t.Logf("attempt %d: %.1f ns/op (%s) vs %.1f ns/op (%s) = %.4fx (limit %.2fx, min over %d pairs x %d interleaved chunks of %d ops)",
			a, bMin, s.bName, aMin, s.aName, ratio, s.maxRatio, pairs, chunks, opsPerChunk)
		if ratio <= s.maxRatio {
			return ratio, true
		}
	}
	return ratio, false
}

// TestTelemetryOverheadGate fails if attaching the telemetry registry costs
// more than 3% on the 64-byte malloc/free pair. The two configurations
// differ only by Config.Telemetry, so the ratio isolates the per-op
// sampling decision.
func TestTelemetryOverheadGate(t *testing.T) {
	if os.Getenv("MS_TELEMETRY_GATE") == "" {
		t.Skip("set MS_TELEMETRY_GATE=1 (or run make telemetry-overhead) to run the overhead gate")
	}
	const maxRatio, attempts = 1.03, 3
	ratio, ok := abFloor(t, abSpec{
		a:     minesweeper.Config{Scheme: minesweeper.SchemeMineSweeper},
		b:     minesweeper.Config{Scheme: minesweeper.SchemeMineSweeper, Telemetry: true},
		aName: "off", bName: "on",
		loop: mallocFreeLoop, maxRatio: maxRatio, attempts: attempts,
	})
	if !ok {
		t.Errorf("telemetry overhead %.4fx exceeds %.2fx budget in %d attempts", ratio, maxRatio, attempts)
	}
}

// TestEventsOverheadGate fails if attaching the flight recorder to an
// already-telemetered process costs more than 3% on the 64-byte malloc/free
// pair. Both sides keep telemetry attached — the recorder's sampled
// alloc/free events ride telemetry's 1-in-N countdown, so the honest
// question is what the recorder adds ON TOP of an observed process, not
// what telemetry and events cost together. The unsampled fast path's only
// extra work is one atomic pointer load and branch per amortised check.
func TestEventsOverheadGate(t *testing.T) {
	if os.Getenv("MS_EVENTS_GATE") == "" {
		t.Skip("set MS_EVENTS_GATE=1 (or run make events-overhead) to run the overhead gate")
	}
	// One more attempt than the telemetry gate: the recorder's real cost
	// (~1%) sits closer to the budget than telemetry's (~0%), so a load
	// burst needs less luck to push one measurement over.
	const maxRatio, attempts = 1.03, 4
	ratio, ok := abFloor(t, abSpec{
		a:     minesweeper.Config{Scheme: minesweeper.SchemeMineSweeper, Telemetry: true},
		b:     minesweeper.Config{Scheme: minesweeper.SchemeMineSweeper, Telemetry: true, Events: true},
		aName: "off", bName: "events on",
		loop: mallocFreeLoop, maxRatio: maxRatio, attempts: attempts,
	})
	if !ok {
		t.Errorf("events overhead %.4fx exceeds %.2fx budget in %d attempts", ratio, maxRatio, attempts)
	}
}

// TestGovernorOverheadGate fails if attaching an idle control plane costs
// more than 3% on the 64-byte malloc/free pair. The governed side runs
// under a budget far above any pressure the loop can generate, so the
// comparison isolates the plane's standing cost — the knob indirection at
// the amortised trigger check and the budget checks on the pause path —
// from any actual steering.
func TestGovernorOverheadGate(t *testing.T) {
	if os.Getenv("MS_GOVERNOR_OVERHEAD_GATE") == "" {
		t.Skip("set MS_GOVERNOR_OVERHEAD_GATE=1 (or run make governor-overhead) to run the overhead gate")
	}
	const maxRatio, attempts = 1.03, 3
	ratio, ok := abFloor(t, abSpec{
		a:     minesweeper.Config{Scheme: minesweeper.SchemeMineSweeper},
		b:     minesweeper.Config{Scheme: minesweeper.SchemeMineSweeper, MemoryBudget: 1 << 40},
		aName: "plain", bName: "governed",
		loop: mallocFreeLoop, maxRatio: maxRatio, attempts: attempts,
	})
	if !ok {
		t.Errorf("governor overhead %.4fx exceeds %.2fx budget in %d attempts", ratio, maxRatio, attempts)
	}
}
