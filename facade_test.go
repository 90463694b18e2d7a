package minesweeper

import (
	"errors"
	"testing"

	"minesweeper/internal/schemes"
)

func newProc(t testing.TB, cfg Config) (*Process, *Thread) {
	t.Helper()
	// Deterministic tests: synchronous sweeps, tiny buffers.
	cfg.Synchronous = true
	cfg.BufferCap = 1
	cfg.SweepThreshold = 1 // quarantine can never exceed the heap: manual sweeps only
	cfg.PauseThreshold = -1
	p, err := NewProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	th, err := p.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	return p, th
}

func TestQuickstartFlow(t *testing.T) {
	p, th := newProc(t, Config{Scheme: SchemeMineSweeper})
	a, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store(a, 42); err != nil {
		t.Fatal(err)
	}
	v, err := th.Load(a)
	if err != nil || v != 42 {
		t.Fatalf("Load = %d, %v; want 42, nil", v, err)
	}
	if err := th.Free(a); err != nil {
		t.Fatal(err)
	}
	// Benign UAF reads zero.
	v, err = th.Load(a)
	if err != nil || v != 0 {
		t.Errorf("UAF Load = %d, %v; want 0, nil", v, err)
	}
	st := p.Stats()
	if st.Quarantined == 0 {
		t.Error("nothing quarantined")
	}
	if !p.Sweep() {
		t.Error("Sweep returned false for minesweeper")
	}
	if got := p.Stats().Quarantined; got != 0 {
		t.Errorf("Quarantined = %d after sweep, want 0", got)
	}
}

func TestUAFPreventionEndToEnd(t *testing.T) {
	p, th := newProc(t, Config{Scheme: SchemeMineSweeper})
	victim, _ := th.Malloc(48)
	// Keep a dangling pointer in a global slot.
	if err := th.Store(p.GlobalSlot(0), victim); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(victim); err != nil {
		t.Fatal(err)
	}
	p.Sweep()
	// The attacker sprays same-size allocations: none may alias victim.
	for i := 0; i < 500; i++ {
		a, err := th.Malloc(48)
		if err != nil {
			t.Fatal(err)
		}
		if a == victim {
			t.Fatal("use-after-reallocate possible: victim address reused")
		}
	}
	if p.Stats().FailedFrees == 0 {
		t.Error("dangling pointer not recorded as failed free")
	}
}

func TestAllSchemesBasicLifecycle(t *testing.T) {
	for _, s := range schemes.All() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			p, th := newProc(t, Config{Scheme: s})
			var addrs []Addr
			for i := 0; i < 200; i++ {
				a, err := th.Malloc(uint64(16 + i%900))
				if err != nil {
					t.Fatal(err)
				}
				if err := th.Store(a, uint64(i)); err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, a)
			}
			for _, a := range addrs {
				if err := th.Free(a); err != nil {
					t.Fatal(err)
				}
			}
			p.Sweep()
			st := p.Stats()
			if st.Mallocs == 0 {
				t.Error("no mallocs recorded")
			}
			if p.Scheme() != s {
				t.Error("Scheme() mismatch")
			}
		})
	}
}

func TestInvalidFreeSurfaces(t *testing.T) {
	_, th := newProc(t, Config{Scheme: SchemeMineSweeper})
	if err := th.Free(0xdead000); !errors.Is(err, ErrInvalidFree) {
		t.Errorf("Free(wild) = %v, want ErrInvalidFree", err)
	}
}

func TestDebugDoubleFree(t *testing.T) {
	_, th := newProc(t, Config{Scheme: SchemeMineSweeper, DebugDoubleFree: true})
	a, _ := th.Malloc(32)
	if err := th.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(a); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double free = %v, want ErrDoubleFree", err)
	}
}

func TestAblationSwitches(t *testing.T) {
	_, th := newProc(t, Config{Scheme: SchemeMineSweeper, ZeroMode: ZeroOff})
	a, _ := th.Malloc(64)
	_ = th.Store(a, 7)
	_ = th.Free(a)
	if v, _ := th.Load(a); v != 7 {
		t.Error("zeroing happened despite ZeroOff")
	}
}

func TestStackSlotsAreRoots(t *testing.T) {
	p, th := newProc(t, Config{Scheme: SchemeMineSweeper})
	a, _ := th.Malloc(48)
	if err := th.Store(th.StackSlot(3), a); err != nil {
		t.Fatal(err)
	}
	_ = th.Free(a)
	p.Sweep()
	if p.Stats().Quarantined == 0 {
		t.Error("stack-rooted dangling pointer ignored by sweep")
	}
}

func TestBaselineIsVulnerable(t *testing.T) {
	// The contrast case: under the baseline, a freed address is promptly
	// reused — the use-after-reallocate window MineSweeper closes.
	_, th := newProc(t, Config{Scheme: SchemeBaseline})
	victim, _ := th.Malloc(48)
	_ = th.Free(victim)
	reused := false
	for i := 0; i < 100; i++ {
		a, _ := th.Malloc(48)
		if a == victim {
			reused = true
			break
		}
	}
	if !reused {
		t.Error("baseline did not reuse freed address (unexpected)")
	}
}

func TestUAFFaultCounting(t *testing.T) {
	p, th := newProc(t, Config{Scheme: SchemeMineSweeper})
	big, _ := th.Malloc(1 << 20) // large: unmapped in quarantine
	_ = th.Free(big)
	if _, err := th.Load(big); err == nil {
		t.Fatal("load of unmapped quarantined page succeeded")
	}
	if p.Stats().UAFFaults != 1 {
		t.Errorf("UAFFaults = %d, want 1", p.Stats().UAFFaults)
	}
}

func TestThreadByteAPI(t *testing.T) {
	_, th := newProc(t, Config{Scheme: SchemeMineSweeper})
	a, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.StoreBytes(a, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := th.LoadBytes(a, 7)
	if err != nil || string(got) != "payload" {
		t.Fatalf("LoadBytes = %q, %v", got, err)
	}
	if err := th.Store8(a+63, 0xAB); err != nil {
		t.Fatal(err)
	}
	b, err := th.Load8(a + 63)
	if err != nil || b != 0xAB {
		t.Fatalf("Load8 = %#x, %v", b, err)
	}
}
