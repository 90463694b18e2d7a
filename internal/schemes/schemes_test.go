package schemes

import (
	"strings"
	"testing"

	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
)

func TestAllKindsBuild(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			f := New(k)
			if f.Name != k.String() {
				t.Errorf("factory name %q != kind name %q", f.Name, k.String())
			}
			space := mem.NewAddressSpace()
			world := sim.NewWorld()
			h, err := f.Build(space, world)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			defer h.Shutdown()
			tid := h.RegisterThread()
			a, err := h.Malloc(tid, 128)
			if err != nil {
				t.Fatalf("Malloc: %v", err)
			}
			if err := h.Free(tid, a); err != nil {
				t.Fatalf("Free: %v", err)
			}
			if h.Stats().Mallocs != 1 {
				t.Errorf("Mallocs = %d, want 1", h.Stats().Mallocs)
			}
		})
	}
}

func TestBuildWithNilWorld(t *testing.T) {
	for _, k := range []Kind{MineSweeper, MineSweeperMostly, MarkUs} {
		h, err := New(k).Build(mem.NewAddressSpace(), nil)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		h.Shutdown()
	}
}

func TestKindStrings(t *testing.T) {
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty string")
	}
	seen := map[string]bool{}
	for _, k := range All() {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate scheme name %q", s)
		}
		seen[s] = true
	}
	if len(All()) != int(MineSweeperDlmalloc)+1 {
		t.Errorf("All() lists %d kinds, want %d", len(All()), int(MineSweeperDlmalloc)+1)
	}
}

// TestByNameRoundTrip checks every kind resolves from its own name, and that
// an unknown name's error lists the valid ones.
func TestByNameRoundTrip(t *testing.T) {
	for _, k := range All() {
		got, err := ByName(k.String())
		if err != nil || got != k {
			t.Errorf("ByName(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	_, err := ByName("scudo")
	if err == nil {
		t.Fatal("ByName accepted an unknown name")
	}
	for _, k := range All() {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("unknown-scheme error %q does not list %q", err, k)
		}
	}
}
