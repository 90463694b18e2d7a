package core

import (
	"errors"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/control"
)

// zeroModeConfigs returns the two zeroing configurations the oracle tests
// run under; everything else matches testConfig except the ring capacity,
// which is widened so deferred zeroing actually defers (BufferCap 1 would
// drain — and therefore zero — on every free).
func zeroModeConfigs() map[string]Config {
	cfgs := make(map[string]Config)
	for _, zm := range []ZeroMode{ZeroImmediate, ZeroDeferred} {
		cfg := testConfig()
		cfg.BufferCap = 16
		cfg.ZeroMode = zm
		cfg.Purging = true
		cfg.Unmapping = true
		cfgs[zm.String()] = cfg
	}
	return cfgs
}

// TestAllocZeroOracle is the end-to-end oracle for the known-zero map and
// both zeroing modes: across repeated malloc/write/free/sweep/purge cycles —
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
// deferred zeroing must not change: membership (Contains) after a drain, and
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

// TestZeroDeferredWindow pins the semantic difference the modes trade on:
// immediately after free() returns, ZeroImmediate guarantees a benign
// dangling read sees zeros, while ZeroDeferred may expose the stale bytes
// until the ring drains — and after the drain both modes read zero. The
// deferred window is bounded by the ring: at most BufferCap frees.
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
			v, err := h.space.Load64(a)
			if err != nil {
				t.Fatal(err)
			}
			switch cfg.ZeroMode {
			case ZeroImmediate:
				if v != 0 {
					t.Fatalf("immediate mode: dangling read right after free = %#x, want 0", v)
				}
			case ZeroDeferred:
				if v != sentinel {
					t.Fatalf("deferred mode: dangling read before drain = %#x, want the stale sentinel", v)
				}
			}
			h.FlushThread(tid) // drain: the deferred batch zero runs here
			if v, _ := h.space.Load64(a); v != 0 {
				t.Fatalf("dangling read after drain = %#x, want 0 in both modes", v)
			}
			if cfg.ZeroMode == ZeroDeferred && h.deferredZeroBytes.Load() == 0 {
				t.Fatal("deferred mode drained without counting deferred-zeroed bytes")
			}
		})
	}
}

// TestZeroDeferredBoundedByRing fills the ring to one short of capacity and
// checks every pushed-but-undrained free still holds stale bytes, then that
// the watermark/capacity drain scrubs all of them: the stale window is the
// ring, never more.
func TestZeroDeferredBoundedByRing(t *testing.T) {
	cfg := testConfig()
	cfg.BufferCap = 8
	cfg.ZeroMode = ZeroDeferred
	h, tid := newTestHeap(t, cfg)
	var addrs []uint64
	for i := 0; i < 5; i++ { // under the 3/4 watermark of 6, no tick drain at 16-op interval yet
		a, err := h.Malloc(tid, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.space.Store64(a, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	stale := 0
	for i, a := range addrs {
		v, err := h.space.Load64(a)
		if err != nil {
			t.Fatal(err)
		}
		if v == uint64(i)+1 {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no ring-resident free held stale bytes; deferral never engaged")
	}
	h.FlushThread(tid)
	for _, a := range addrs {
		if v, _ := h.space.Load64(a); v != 0 {
			t.Fatalf("%#x still stale after drain", a)
		}
	}
	if got, want := h.deferredZeroBytes.Load(), uint64(len(addrs)*64); got < want {
		t.Fatalf("deferred-zero accounting %d bytes, want >= %d", got, want)
	}
}

// TestGovernorSteersZeroDeferred drives a governed deferred-mode heap's
// steering switch directly through the decision path: a Critical decision
// must flip the cached deferZero off (frees zero immediately again), and a
// Nominal recovery must restore the configured deferral.
func TestGovernorSteersZeroDeferred(t *testing.T) {
	cfg := testConfig()
	cfg.BufferCap = 16
	cfg.ZeroMode = ZeroDeferred
	base := cfg.BaseKnobs()
	cfg.Control = control.NewPlane(control.Config{
		Base:   base,
		Budget: 1, // one byte: any allocation at all is Critical pressure
		Policy: control.NewAIMD(),
	})
	h, tid := newTestHeap(t, cfg)
	if !h.deferZero.Load() {
		t.Fatal("deferred-mode heap built with deferZero off")
	}
	// Drive allocations and a sweep so the plane observes Critical pressure.
	for i := 0; i < 32; i++ {
		a, err := h.Malloc(tid, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	h.FlushThread(tid)
	h.Sweep()
	if h.ctl.Level() != control.Critical {
		t.Fatalf("pressure level %v under a 1-byte budget, want critical", h.ctl.Level())
	}
	if h.deferZero.Load() {
		t.Fatal("Critical decision did not switch the heap back to immediate zeroing")
	}
	// With deferral steered off, a free's bytes are scrubbed before any drain.
	a, err := h.Malloc(tid, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.space.Store64(a, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	if v, _ := h.space.Load64(a); v != 0 {
		t.Fatalf("steered-immediate free left stale word %#x", v)
	}
}
