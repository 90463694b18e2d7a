package events

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// synthSweep emits one full, correctly nested sweep onto the ring: the
// satellite-4 oracle's input, shaped exactly like runSweep's emission order.
func synthSweep(rg *Ring, base uint64) {
	rg.EmitAt(base, KindSweepBegin, 2, 128)
	rg.EmitAt(base+10, KindMarkBegin, 0, 0)
	rg.EmitAt(base+20, KindPrecleanBegin, 1, 0)
	rg.EmitAt(base+40, KindPrecleanEnd, 6, 1)
	rg.EmitAt(base+50, KindStwBegin, 4, 0)
	rg.EmitAt(base+70, KindStwEnd, 4, 0)
	rg.EmitAt(base+80, KindMarkEnd, 32, 1<<20)
	rg.EmitAt(base+90, KindRecycleBegin, 0, 0)
	rg.EmitAt(base+120, KindRecycleEnd, 100, 28)
	rg.EmitAt(base+123, KindClearBegin, 32<<10, 0)
	rg.EmitAt(base+127, KindClearEnd, 0, 0)
	rg.EmitAt(base+130, KindPurgeBegin, 0, 0)
	rg.EmitAt(base+150, KindPurgeEnd, 0, 0)
	rg.EmitAt(base+160, KindSweepEnd, 100, 28)
}

// TestChromeExportNesting is the oracle test: a synthetic sweep produces a
// Chrome trace whose B/E events are correctly nested per track.
func TestChromeExportNesting(t *testing.T) {
	rec := NewRecorder(64, time.Minute)
	sw := rec.Ring("sweeper")
	synthSweep(sw, 1000)
	th := rec.Ring("thread-0")
	th.EmitAt(1055, KindPauseBegin, 3, 0)
	th.EmitAt(1072, KindPauseEnd, 17, 0)
	th.EmitAt(1200, KindDrain, 32, 4096)

	d := rec.Capture(TripManual)
	if err := ValidateSpans(d); err != nil {
		t.Fatalf("ValidateSpans on well-formed dump: %v", err)
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, d); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	// Replay the B/E stream per tid and check stack discipline + pairing —
	// exactly what chrome://tracing's importer enforces.
	stacks := map[float64][]string{}
	spans := 0
	for _, e := range evs {
		ph, _ := e["ph"].(string)
		name, _ := e["name"].(string)
		tid, _ := e["tid"].(float64)
		switch ph {
		case "B":
			stacks[tid] = append(stacks[tid], name)
		case "E":
			st := stacks[tid]
			if len(st) == 0 {
				t.Fatalf("E %q with empty stack on tid %v", name, tid)
			}
			if top := st[len(st)-1]; top != name {
				t.Fatalf("E %q closes B %q on tid %v", name, top, tid)
			}
			stacks[tid] = st[:len(st)-1]
			spans++
		case "M", "i":
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("tid %v left open spans %v", tid, st)
		}
	}
	// sweep, mark, preclean, stw, recycle, clear, purge on the sweeper +
	// pause on the mutator.
	if spans != 8 {
		t.Fatalf("closed %d spans, want 8", spans)
	}
}

func TestValidateSpansRejectsBadNesting(t *testing.T) {
	rec := NewRecorder(64, time.Minute)
	rg := rec.Ring("sweeper")
	rg.EmitAt(10, KindSweepBegin, 0, 0)
	rg.EmitAt(20, KindMarkBegin, 0, 0)
	rg.EmitAt(30, KindSweepEnd, 0, 0) // closes sweep while mark still open
	if err := ValidateSpans(rec.Capture(TripManual)); err == nil {
		t.Fatal("interleaved spans accepted")
	}

	rec2 := NewRecorder(64, time.Minute)
	rg2 := rec2.Ring("sweeper")
	rg2.EmitAt(10, KindSweepBegin, 0, 0)
	rg2.EmitAt(15, KindSweepEnd, 0, 0)
	rg2.EmitAt(20, KindMarkBegin, 0, 0) // phase span outside any sweep
	rg2.EmitAt(25, KindMarkEnd, 0, 0)
	if err := ValidateSpans(rec2.Capture(TripManual)); err == nil {
		t.Fatal("phase span outside sweep accepted")
	}

	rec3 := NewRecorder(64, time.Minute)
	rg3 := rec3.Ring("sweeper")
	rg3.EmitAt(10, KindSweepBegin, 0, 0)
	rg3.EmitAt(15, KindSweepEnd, 0, 0)
	rg3.EmitAt(20, KindClearBegin, 0, 0) // shadow clear after its sweep closed
	rg3.EmitAt(25, KindClearEnd, 0, 0)
	if err := ValidateSpans(rec3.Capture(TripManual)); err == nil {
		t.Fatal("clear span outside sweep accepted")
	}
}

func TestValidateSpansToleratesWindowClipping(t *testing.T) {
	rec := NewRecorder(64, time.Minute)
	rg := rec.Ring("sweeper")
	// Window cut mid-sweep: the capture starts with the tail of an old
	// sweep (bare Ends), then a full sweep, then an unterminated one.
	rg.EmitAt(10, KindMarkEnd, 5, 100)
	rg.EmitAt(20, KindSweepEnd, 9, 1)
	synthSweep(rg, 100)
	rg.EmitAt(300, KindSweepBegin, 1, 50)
	rg.EmitAt(310, KindMarkBegin, 0, 0)
	if err := ValidateSpans(rec.Capture(TripManual)); err != nil {
		t.Fatalf("clipped dump rejected: %v", err)
	}
}
