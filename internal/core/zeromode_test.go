package core

import (
	"errors"
	"testing"

	"minesweeper/internal/alloc"
)

// zeroModeConfigs returns the zeroing configurations the oracle tests run
// under, keyed by subtest name; everything else matches testConfig except the
// ring capacity, which is widened so frees sit in the ring between drains
// (BufferCap 1 would drain on every free).
func zeroModeConfigs() map[string]Config {
	cfg := testConfig()
	cfg.BufferCap = 16
	cfg.ZeroMode = ZeroImmediate
	cfg.Purging = true
	cfg.Unmapping = true
	return map[string]Config{ZeroImmediate.String(): cfg}
}

// TestAllocZeroOracle is the end-to-end oracle for the known-zero map and
// zero-on-free: across repeated malloc/write/free/sweep/purge cycles —
// including large allocations whose pages are decommitted in quarantine and
// recommitted on reuse — every chunk Alloc hands back must read as all
// zeros. A page whose known-zero bit survived where stale data lives would
// fail here (a stale bit would make Zero/Commit elide a scrub it still
// owed); so would a zeroing pass that never ran.
func TestAllocZeroOracle(t *testing.T) {
	sizes := []uint64{48, 256, 2048, 128 << 10} // last one is a large, unmappable extent
	for name, cfg := range zeroModeConfigs() {
		t.Run(name, func(t *testing.T) {
			h, tid := newTestHeap(t, cfg)
			for cycle := 0; cycle < 4; cycle++ {
				var addrs []uint64
				for i, size := range sizes {
					for k := 0; k < 8; k++ {
						a, err := h.Malloc(tid, size)
						if err != nil {
							t.Fatal(err)
						}
						// The returned chunk must be zero before we dirty it.
						for off := uint64(0); off < size; off += 8 {
							v, err := h.space.Load64(a + off)
							if err != nil {
								t.Fatalf("cycle %d size %d: Load64(%#x): %v", cycle, size, a+off, err)
							}
							if v != 0 {
								t.Fatalf("cycle %d size %d: Alloc returned non-zero word %#x at %#x+%#x",
									cycle, size, v, a, off)
							}
						}
						// Dirty every page of the chunk so the next cycle's
						// zeroing has real work to do (and a wrongly surviving
						// known-zero bit has real stale data to leak).
						for off := uint64(0); off < size; off += 512 {
							if err := h.space.Store64(a+off, uint64(cycle*1000+i*10+k)+0xdead); err != nil {
								t.Fatal(err)
							}
						}
						addrs = append(addrs, a)
					}
				}
				for _, a := range addrs {
					if err := h.Free(tid, a); err != nil {
						t.Fatal(err)
					}
				}
				h.FlushThread(tid)
				h.Sweep() // releases everything and purges (cfg.Purging)
			}
		})
	}
}

// TestZeroModeQuarantineSemantics checks the quarantine-visible behaviours
// of a zeroing, ring-buffered heap: membership (Contains) after a drain, and
// double-free detection in both debug and absorbing modes.
func TestZeroModeQuarantineSemantics(t *testing.T) {
	for name, cfg := range zeroModeConfigs() {
		t.Run(name, func(t *testing.T) {
			h, tid := newTestHeap(t, cfg)
			a, err := h.Malloc(tid, 256)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Free(tid, a); err != nil {
				t.Fatal(err)
			}
			h.FlushThread(tid)
			if !h.q.Contains(a) {
				t.Fatalf("freed+drained %#x not in quarantine membership", a)
			}
			// Absorbing mode: a second free is silently deduplicated at
			// drain time; the entry must not be double-released.
			if err := h.Free(tid, a); err != nil {
				t.Fatalf("absorbing double free returned %v", err)
			}
			h.FlushThread(tid)
			h.Sweep()
			if h.q.Contains(a) {
				t.Fatalf("%#x still quarantined after sweep", a)
			}
		})
		t.Run(name+"/debug", func(t *testing.T) {
			cfg := cfg
			cfg.DebugDoubleFree = true
			h, tid := newTestHeap(t, cfg)
			a, err := h.Malloc(tid, 256)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Free(tid, a); err != nil {
				t.Fatal(err)
			}
			if err := h.Free(tid, a); !errors.Is(err, alloc.ErrDoubleFree) {
				t.Fatalf("debug double free returned %v, want ErrDoubleFree", err)
			}
		})
	}
}

// TestZeroDeferredWindow checks that zeroing leaves no stale-read window: a
// free still waiting in the 16-entry ring already reads as 0, and so does the
// same address after the drain.
func TestZeroDeferredWindow(t *testing.T) {
	for name, cfg := range zeroModeConfigs() {
		t.Run(name, func(t *testing.T) {
			h, tid := newTestHeap(t, cfg)
			a, err := h.Malloc(tid, 256)
			if err != nil {
				t.Fatal(err)
			}
			const sentinel = 0x5a5a5a5a5a5a5a5a
			if err := h.space.Store64(a, sentinel); err != nil {
				t.Fatal(err)
			}
			if err := h.Free(tid, a); err != nil {
				t.Fatal(err)
			}
			if h.threadState(tid).tbuf.Len() == 0 {
				t.Fatal("free drained at once; the ring case is not exercised")
			}
			v, err := h.space.Load64(a)
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Fatalf("dangling read right after free = %#x, want 0", v)
			}
			h.FlushThread(tid)
			if v, _ := h.space.Load64(a); v != 0 {
				t.Fatalf("dangling read after drain = %#x, want 0", v)
			}
		})
	}
}
