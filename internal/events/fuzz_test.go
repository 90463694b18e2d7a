package events

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// FuzzReadDump exercises the MSEV decoder with arbitrary bytes: it must
// never panic, every rejection must wrap ErrCorruptDump, and anything it
// accepts must re-serialise and decode to the same rings and events.
func FuzzReadDump(f *testing.F) {
	rec := NewRecorder(64, time.Minute)
	sw := rec.Ring("sweeper")
	sw.EmitAt(1000, KindSweepBegin, 2, 77)
	sw.EmitAt(3000, KindSweepEnd, 70, 7)
	rec.Ring("thread-0").EmitAt(1200, KindDrain, 32, 4096)
	var valid bytes.Buffer
	if _, err := rec.Capture(TripManual).WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("MSEV"))
	f.Add([]byte("not a dump at all"))
	f.Add([]byte{})

	// A ring claiming 2^63 events: the count once turned negative when
	// converted to int for the preallocation, and make panicked.
	huge := []byte("MSEV\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")
	huge = append(huge, 0, 0, 0, 1)          // since, taken, no kinds, one ring
	huge = append(huge, 7)                   // ring name length
	huge = append(huge, "sweeper"...)        // ring name
	huge = binary.AppendUvarint(huge, 1<<63) // event count
	huge = append(huge, 1, 1)                // the start of a first event
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, _, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptDump) {
				t.Fatalf("rejection does not wrap ErrCorruptDump: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := d.WriteTo(&out); err != nil {
			t.Fatalf("accepted dump failed to serialise: %v", err)
		}
		back, _, err := ReadDump(&out)
		if err != nil {
			t.Fatalf("round trip of accepted dump failed: %v", err)
		}
		if len(back.Threads) != len(d.Threads) {
			t.Fatalf("round trip changed ring count: %d -> %d", len(d.Threads), len(back.Threads))
		}
		for i, tr := range back.Threads {
			want := d.Threads[i]
			if tr.Name != want.Name || len(tr.Events) != len(want.Events) {
				t.Fatalf("ring %d: %q/%d events, want %q/%d", i, tr.Name, len(tr.Events), want.Name, len(want.Events))
			}
			for j, e := range tr.Events {
				if e != want.Events[j] {
					t.Fatalf("ring %q event %d = %+v, want %+v", tr.Name, j, e, want.Events[j])
				}
			}
		}
	})
}
