package ring_test

import (
	"sync"
	"testing"

	"minesweeper/internal/ring"
)

// rec is a minimal ring.Record. The rings over the real record types are
// tested where those types live (telemetry's sweep log, the control
// plane's decision log).
type rec struct {
	seq   uint64
	val   int
	stamp uint64
}

func (r rec) WithSeq(seq uint64) rec {
	r.seq = seq
	return r
}

func TestWraparound(t *testing.T) {
	r := ring.New[rec](4)
	for i := 0; i < 10; i++ {
		if seq := r.Push(rec{val: i}); seq != uint64(i+1) {
			t.Fatalf("Push %d returned seq %d, want %d", i, seq, i+1)
		}
	}
	if r.Total() != 10 || r.Len() != 4 {
		t.Fatalf("total %d len %d, want 10/4", r.Total(), r.Len())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length %d, want 4", len(snap))
	}
	for i, got := range snap {
		wantSeq := uint64(7 + i)
		if got.seq != wantSeq {
			t.Errorf("snap[%d].seq = %d, want %d (oldest first)", i, got.seq, wantSeq)
		}
		if got.val != int(wantSeq-1) {
			t.Errorf("snap[%d].val = %d, want %d", i, got.val, wantSeq-1)
		}
	}
}

func TestCapRounding(t *testing.T) {
	for _, tc := range []struct{ capN, want int }{{5, 8}, {8, 8}, {0, ring.DefaultCap}, {-1, ring.DefaultCap}} {
		r := ring.New[rec](tc.capN)
		for i := 0; i < 2*ring.DefaultCap; i++ {
			r.Push(rec{})
		}
		if r.Len() != tc.want {
			t.Errorf("cap %d retains %d records, want %d", tc.capN, r.Len(), tc.want)
		}
	}
}

// ringStamp marks complete records in TestConcurrent.
const ringStamp = 0xC0FFEE

func TestConcurrent(t *testing.T) {
	for _, capN := range []int{16, 64} {
		r := ring.New[rec](capN)
		const writers, per = 4, 2000
		var wg, rdWg sync.WaitGroup
		stop := make(chan struct{})
		rdWg.Add(1)
		go func() {
			defer rdWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				for i := 1; i < len(snap); i++ {
					if snap[i].seq <= snap[i-1].seq {
						t.Errorf("cap %d: snapshot out of order: %d then %d", capN, snap[i-1].seq, snap[i].seq)
						return
					}
					// Publication integrity: every writer stamps the
					// same marker, so a record missing it was read
					// half-built.
					if snap[i].stamp != ringStamp {
						t.Errorf("cap %d: torn record at seq %d: stamp %d", capN, snap[i].seq, snap[i].stamp)
						return
					}
				}
			}
		}()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					r.Push(rec{stamp: ringStamp})
				}
			}()
		}
		wg.Wait()
		close(stop)
		rdWg.Wait()
		if r.Total() != writers*per {
			t.Fatalf("cap %d: Total = %d, want %d", capN, r.Total(), writers*per)
		}
	}
}
