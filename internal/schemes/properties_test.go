package schemes

import (
	"testing"

	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
)

// interval is a live allocation's [base, base+size) range.
type interval struct{ lo, hi uint64 }

// TestNoLiveOverlapAnyScheme checks the fundamental allocator soundness
// property under every scheme: no two simultaneously live allocations ever
// overlap, across random malloc/free churn of mixed sizes.
func TestNoLiveOverlapAnyScheme(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			space := mem.NewAddressSpace()
			h, err := New(k).Build(space, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Shutdown()
			tid := h.RegisterThread()

			rng := sim.NewRand(uint64(k) + 99)
			live := make(map[uint64]interval)
			for i := 0; i < 4000; i++ {
				if len(live) > 96 || (len(live) > 0 && rng.Intn(3) == 0) {
					for base := range live {
						if err := h.Free(tid, base); err != nil {
							t.Fatalf("op %d: Free: %v", i, err)
						}
						delete(live, base)
						break
					}
					continue
				}
				size := rng.Range(8, 40000)
				base, err := h.Malloc(tid, size)
				if err != nil {
					t.Fatalf("op %d: Malloc(%d): %v", i, size, err)
				}
				nw := interval{base, base + size}
				for other, iv := range live {
					if nw.lo < iv.hi && iv.lo < nw.hi {
						t.Fatalf("op %d: allocation [%#x,%#x) overlaps live [%#x,%#x) (base %#x)",
							i, nw.lo, nw.hi, iv.lo, iv.hi, other)
					}
				}
				live[base] = nw
			}
			for base := range live {
				if err := h.Free(tid, base); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestUsableSizeCoversRequestAnyScheme checks every scheme returns usable
// sizes covering the request, and that writes across the full requested size
// land (no silent truncation).
func TestUsableSizeCoversRequestAnyScheme(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			space := mem.NewAddressSpace()
			h, err := New(k).Build(space, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Shutdown()
			tid := h.RegisterThread()
			for _, size := range []uint64{8, 16, 100, 1000, 5000, 70000} {
				base, err := h.Malloc(tid, size)
				if err != nil {
					t.Fatal(err)
				}
				if us := h.UsableSize(base); us < size {
					t.Errorf("size %d: UsableSize = %d", size, us)
				}
				// Touch first and last word of the request.
				if err := space.Store64(base, 1); err != nil {
					t.Errorf("size %d: first-word store: %v", size, err)
				}
				last := (base + size - 8) &^ 7
				if err := space.Store64(last, 2); err != nil {
					t.Errorf("size %d: last-word store: %v", size, err)
				}
				if err := h.Free(tid, base); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestStatsConsistencyAnyScheme checks bookkeeping: after freeing everything
// and quiescing, no scheme reports live application bytes.
func TestStatsConsistencyAnyScheme(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			space := mem.NewAddressSpace()
			h, err := New(k).Build(space, nil)
			if err != nil {
				t.Fatal(err)
			}
			tid := h.RegisterThread()
			var bases []uint64
			rng := sim.NewRand(7)
			for i := 0; i < 500; i++ {
				b, err := h.Malloc(tid, rng.Range(8, 8000))
				if err != nil {
					t.Fatal(err)
				}
				bases = append(bases, b)
			}
			for _, b := range bases {
				if err := h.Free(tid, b); err != nil {
					t.Fatal(err)
				}
			}
			h.Shutdown() // quiesce background machinery
			if got := h.Stats().Allocated; got != 0 {
				t.Errorf("Allocated = %d after freeing everything, want 0", got)
			}
		})
	}
}
