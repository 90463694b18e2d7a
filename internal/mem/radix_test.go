package mem

import (
	"runtime"
	"testing"
)

// mapAt maps a heap region of size bytes at base by moving the heap cursor
// there first, so a test can place a mapping across a radix boundary without
// mapping everything below it.
func mapAt(t *testing.T, as *AddressSpace, base, size uint64) *Region {
	t.Helper()
	as.mu.Lock()
	as.nextHeap = base
	as.mu.Unlock()
	r, err := as.Map(KindHeap, size, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Base() != base {
		t.Fatalf("mapped at %#x, want %#x", r.Base(), base)
	}
	return r
}

// TestRadixAcrossBoundaries maps, looks up and unmaps regions straddling a
// leaf boundary (256 MiB) and a mid-block boundary (128 GiB): every page on
// both sides resolves to the region, the pages just outside do not, and
// after Unmap none do.
func TestRadixAcrossBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		boundary uint64
	}{
		{"leaf", HeapBase + 1<<radixMidShift},
		{"mid block", HeapBase + 1<<radixTopShift},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			as := NewAddressSpace()
			const size = 8 * PageSize
			r := mapAt(t, as, tc.boundary-size/2, size)
			for addr := r.Base(); addr < r.End(); addr += PageSize / 2 {
				if got := as.Lookup(addr); got != r {
					t.Fatalf("Lookup(%#x) = %v, want the region", addr, got)
				}
			}
			if as.Lookup(r.Base()-1) != nil || as.Lookup(r.End()) != nil {
				t.Fatal("Lookup outside the region found it")
			}
			if err := as.Unmap(r); err != nil {
				t.Fatal(err)
			}
			for addr := r.Base(); addr < r.End(); addr += PageSize {
				if got := as.Lookup(addr); got != nil {
					t.Fatalf("Lookup(%#x) after Unmap = %v", addr, got)
				}
			}
			// The emptied tables stay installed and are reused.
			r2 := mapAt(t, as, tc.boundary-PageSize, 2*PageSize)
			if as.Lookup(tc.boundary-1) != r2 || as.Lookup(tc.boundary) != r2 {
				t.Fatal("remapping across the boundary not visible")
			}
		})
	}
}

// TestRadixUninstalledSlots checks Lookup on addresses whose top-level slot
// (or mid-block slot) was never installed, and on addresses past the 47-bit
// layout.
func TestRadixUninstalledSlots(t *testing.T) {
	as := NewAddressSpace()
	r, err := as.Map(KindHeap, PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{
		0,
		0x0000_6000_0000_0000,       // top slot never installed
		r.Base() + 1<<radixMidShift, // installed mid block, missing leaf
		StackBase,                   // no stack mapped yet
		1 << 47,                     // past the layout
		^uint64(0),
	} {
		if got := as.Lookup(addr); got != nil {
			t.Errorf("Lookup(%#x) = %v, want nil", addr, got)
		}
	}
	if as.Lookup(r.Base()) != r {
		t.Error("the one mapped page did not resolve")
	}
}

// retainedPerInstance returns the Go heap bytes one value built by mk
// retains, averaged over n live instances.
func retainedPerInstance(n int, mk func() any) int64 {
	keep := make([]any, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = mk()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(n)
}

// TestAddressSpaceGoHeapBudget bounds what an empty address space costs the
// Go heap: the radix tables below the top level are installed by mappings,
// so a fresh space must not retain the whole 47-bit root.
func TestAddressSpaceGoHeapBudget(t *testing.T) {
	const budget = 64 << 10
	got := retainedPerInstance(64, func() any { return NewAddressSpace() })
	t.Logf("NewAddressSpace retains %d B", got)
	if got > budget {
		t.Fatalf("NewAddressSpace retains %d B, budget %d B", got, budget)
	}
}

// BenchmarkNewAddressSpace measures constructing an empty address space and
// reports the Go heap one retains.
func BenchmarkNewAddressSpace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewAddressSpace()
	}
	b.StopTimer()
	b.ReportMetric(float64(retainedPerInstance(64, func() any { return NewAddressSpace() })), "retained-B/op")
}
