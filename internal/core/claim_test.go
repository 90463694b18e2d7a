package core

import (
	"sync"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/dlmalloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/quarantine"
)

// TestTinyAllocationsClaimSeparately: quarantine membership is one bit per
// 16-byte granule, so two live bases must never share a granule. jemalloc
// has an 8-byte class that would pack two adjacent 1-byte or 8-byte objects
// into one; core rounds requests below mem.Granule up so each free claims
// its own bit. Without the rounding the second free of each pair loses its
// claim, is absorbed as a double free, and its allocation is never returned
// to the substrate. The jemalloc heap runs without tcache and end pad, so
// consecutive requests take consecutive regions of one slab and an 8-byte
// request stays in the 8-byte class.
func TestTinyAllocationsClaimSeparately(t *testing.T) {
	substrates := map[string]func(*mem.AddressSpace) alloc.Substrate{
		"jemalloc": func(s *mem.AddressSpace) alloc.Substrate {
			jcfg := jemalloc.DefaultConfig()
			jcfg.TcacheEnabled = false
			jcfg.PadEnd = false
			return jemalloc.New(s, jcfg)
		},
		"dlmalloc": func(s *mem.AddressSpace) alloc.Substrate { return dlmalloc.New(s) },
	}
	for name, newSub := range substrates {
		t.Run(name, func(t *testing.T) {
			space := mem.NewAddressSpace()
			h, err := NewWithSubstrate(space, testConfig(), newSub(space))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(h.Shutdown)
			tid := h.RegisterThread()
			var bases []uint64
			for _, size := range []uint64{1, 1, 8, 8} {
				a, err := h.Malloc(tid, size)
				if err != nil {
					t.Fatal(err)
				}
				bases = append(bases, a)
			}
			for _, a := range bases {
				if err := h.Free(tid, a); err != nil {
					t.Fatal(err)
				}
			}
			h.FlushThread(tid)
			if got := h.q.Entries(); got != 4 {
				t.Fatalf("quarantine holds %d entries, want 4 (bases %#x)", got, bases)
			}
			if got := h.Stats().DoubleFrees; got != 0 {
				t.Fatalf("DoubleFrees = %d, want 0", got)
			}
			h.Sweep()
			st := h.Stats()
			if st.ReleasedFrees != 4 {
				t.Errorf("ReleasedFrees = %d, want 4", st.ReleasedFrees)
			}
			if st.Allocated != 0 {
				t.Errorf("Allocated = %d after sweep, want 0", st.Allocated)
			}
		})
	}
}

// TestConcurrentDoubleFreeClaim races several registered threads freeing
// the same base at once, with real rings. The membership claim is one
// atomic test-and-set, so exactly one free quarantines the allocation and
// every other one is counted as a double free, whichever rings the frees
// sit in. Run under -race via make race-hot.
func TestConcurrentDoubleFreeClaim(t *testing.T) {
	const threads = 8
	const rounds = 100
	cfg := testConfig()
	cfg.BufferCap = quarantine.DefaultBufferCap
	h, owner := newTestHeap(t, cfg)
	tids := make([]alloc.ThreadID, threads)
	for i := range tids {
		tids[i] = h.RegisterThread()
	}
	for r := 0; r < rounds; r++ {
		a, err := h.Malloc(owner, 64)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, tid := range tids {
			wg.Add(1)
			go func(tid alloc.ThreadID) {
				defer wg.Done()
				<-start
				if err := h.Free(tid, a); err != nil {
					t.Errorf("Free: %v", err)
				}
			}(tid)
		}
		close(start)
		wg.Wait()
		for _, tid := range tids {
			h.FlushThread(tid)
		}
		if got := h.q.Entries(); got != uint64(r+1) {
			t.Fatalf("round %d: quarantine holds %d entries, want %d", r, got, r+1)
		}
	}
	if got, want := h.Stats().DoubleFrees, uint64(rounds*(threads-1)); got != want {
		t.Fatalf("DoubleFrees = %d, want %d", got, want)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	st := h.Stats()
	if st.ReleasedFrees != rounds {
		t.Errorf("ReleasedFrees = %d, want %d", st.ReleasedFrees, rounds)
	}
	if st.Allocated != 0 {
		t.Errorf("Allocated = %d after sweep, want 0", st.Allocated)
	}
}
