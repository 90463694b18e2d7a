package shadow

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"minesweeper/internal/mem"
)

func newTestBitmap(t testing.TB) *Bitmap {
	t.Helper()
	b, err := New(mem.HeapBase, mem.HeapLimit, 4) // 1 bit / 16 B, like MineSweeper
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(16, 8, 4); err == nil {
		t.Error("New with empty range succeeded")
	}
	if _, err := New(1, 1<<30, 4); err == nil {
		t.Error("New with misaligned base succeeded")
	}
	if _, err := New(0, 1<<30, 4); err != nil {
		t.Errorf("New aligned: %v", err)
	}
}

func TestMarkTest(t *testing.T) {
	b := newTestBitmap(t)
	addr := mem.HeapBase + 0x1230
	if b.Test(addr) {
		t.Fatal("fresh bitmap has bit set")
	}
	b.Mark(addr)
	if !b.Test(addr) {
		t.Fatal("marked bit not set")
	}
	// Same granule: offsets within the same 16 bytes share a bit.
	if !b.Test(addr + 15 - addr%16 - (addr % 16)) {
		// compute granule start explicitly below instead
		_ = addr
	}
	g := addr &^ 15
	for off := uint64(0); off < 16; off++ {
		if !b.Test(g + off) {
			t.Errorf("offset %d within granule not set", off)
		}
	}
	if b.Test(g + 16) {
		t.Error("next granule unexpectedly set")
	}
	if b.Test(g - 1) {
		t.Error("previous granule unexpectedly set")
	}
}

func TestMarkOutsideRangeIgnored(t *testing.T) {
	b := newTestBitmap(t)
	b.Mark(0x1000)              // below heap
	b.Mark(mem.HeapLimit)       // at limit
	b.Mark(mem.HeapLimit + 123) // above heap
	if b.PopCount() != 0 {
		t.Errorf("PopCount = %d, want 0", b.PopCount())
	}
	if b.Test(0x1000) {
		t.Error("Test outside range returned true")
	}
}

func TestAnyInRange(t *testing.T) {
	b := newTestBitmap(t)
	base := mem.HeapBase + 1<<20
	b.Mark(base + 160) // granule 10 of this block

	cases := []struct {
		lo, hi uint64
		want   bool
	}{
		{base, base + 160, false},       // ends exactly before the mark
		{base, base + 161, true},        // includes first byte of marked granule
		{base + 160, base + 176, true},  // exactly the marked granule
		{base + 175, base + 176, true},  // last byte of marked granule
		{base + 176, base + 512, false}, // after
		{base, base + 1<<16, true},      // large covering range
		{base + 200, base + 200, false}, // empty
		{base + 300, base + 200, false}, // inverted
	}
	for _, c := range cases {
		if got := b.AnyInRange(c.lo, c.hi); got != c.want {
			t.Errorf("AnyInRange(%#x, %#x) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestAnyInRangeSkipsUnallocatedChunks(t *testing.T) {
	b := newTestBitmap(t)
	// Range spanning many chunks with a single mark near the end.
	lo := mem.HeapBase
	hi := mem.HeapBase + 64<<20 // 64 MiB, 16 chunks at 4 MiB coverage
	b.Mark(hi - 16)
	if !b.AnyInRange(lo, hi) {
		t.Error("mark near end of multi-chunk range not found")
	}
	if b.AnyInRange(lo, hi-16) {
		t.Error("found mark outside queried range")
	}
}

func TestClearAll(t *testing.T) {
	b := newTestBitmap(t)
	for i := uint64(0); i < 1000; i++ {
		b.Mark(mem.HeapBase + i*4096)
	}
	if b.PopCount() != 1000 {
		t.Fatalf("PopCount = %d, want 1000", b.PopCount())
	}
	if b.FootprintBytes() == 0 {
		t.Error("FootprintBytes = 0 with chunks allocated")
	}
	b.ClearAll()
	if b.PopCount() != 0 {
		t.Errorf("PopCount after ClearAll = %d, want 0", b.PopCount())
	}
	if b.FootprintBytes() != 0 {
		t.Errorf("FootprintBytes after ClearAll = %d, want 0", b.FootprintBytes())
	}
}

func TestPageGranularity(t *testing.T) {
	// A page-granular bitmap (shift 12): one bit covers a whole page.
	b, err := New(mem.HeapBase, mem.HeapLimit, 12)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if b.GranuleSize() != 4096 {
		t.Fatalf("GranuleSize = %d, want 4096", b.GranuleSize())
	}
	b.Mark(mem.HeapBase + 4096)
	if !b.Test(mem.HeapBase + 4096 + 4095) {
		t.Error("page bit does not cover whole page")
	}
	if b.Test(mem.HeapBase) || b.Test(mem.HeapBase+8192) {
		t.Error("adjacent pages set")
	}
}

func TestConcurrentMark(t *testing.T) {
	b := newTestBitmap(t)
	const goroutines = 8
	const marks = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < marks; i++ {
				b.Mark(mem.HeapBase + uint64(g*marks+i)*16)
			}
		}(g)
	}
	wg.Wait()
	if got := b.PopCount(); got != goroutines*marks {
		t.Errorf("PopCount = %d, want %d", got, goroutines*marks)
	}
}

// Property: after marking an arbitrary set of addresses, AnyInRange(lo, hi)
// agrees with a naive per-granule Test scan.
func TestQuickAnyInRangeMatchesNaive(t *testing.T) {
	b := newTestBitmap(t)
	const window = 1 << 16
	f := func(markOffs []uint16, lo, hi uint16) bool {
		b.ClearAll()
		for _, m := range markOffs {
			b.Mark(mem.HeapBase + uint64(m))
		}
		loA := mem.HeapBase + uint64(lo)
		hiA := mem.HeapBase + uint64(hi)
		naive := false
		if hiA > loA {
			for g := loA &^ 15; g < hiA; g += 16 {
				if b.Test(g) {
					naive = true
					break
				}
			}
		}
		return b.AnyInRange(loA, hiA) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMark(b *testing.B) {
	bm := newTestBitmap(b)
	for i := 0; i < b.N; i++ {
		bm.Mark(mem.HeapBase + uint64(i%(1<<20))*16)
	}
}

func BenchmarkAnyInRangeMiss(b *testing.B) {
	bm := newTestBitmap(b)
	bm.Mark(mem.HeapBase + 1<<21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bm.AnyInRange(mem.HeapBase, mem.HeapBase+1<<20) {
			b.Fatal("unexpected hit")
		}
	}
}

func TestTestAndSetClear(t *testing.T) {
	b := newTestBitmap(t)
	addr := mem.HeapBase + 0x1230
	if b.TestAndSet(addr) {
		t.Fatal("first TestAndSet reported the bit already set")
	}
	if !b.TestAndSet(addr + 15 - addr%16) {
		t.Fatal("second TestAndSet in the same granule reported the bit clear")
	}
	if b.Test(addr+16) || b.Test(addr-16) {
		t.Fatal("TestAndSet touched a neighbouring granule")
	}
	b.Mark(addr + 16)
	b.Clear(addr)
	if b.Test(addr) {
		t.Fatal("bit still set after Clear")
	}
	if !b.Test(addr + 16) {
		t.Fatal("Clear cleared a neighbouring granule")
	}
	if b.TestAndSet(addr) {
		t.Fatal("TestAndSet after Clear reported the bit already set")
	}
	b.Clear(mem.HeapBase + 1<<30) // chunk never installed: no-op
	if b.TestAndSet(0x1000) || b.TestAndSet(0x1000) || b.TestAndSet(mem.HeapLimit) {
		t.Fatal("TestAndSet outside the range reported a set bit")
	}
	b.Clear(0x1000)
	if got := b.PopCount(); got != 2 {
		t.Fatalf("PopCount = %d, want 2", got)
	}
}

// TestTestAndSetClearConcurrent stresses the two read-modify-writes under
// -race. Each goroutine sets and clears its own granules of one shared word,
// so a non-atomic update would lose a neighbour's bit; and every goroutine
// races to claim each of a run of shared granules that straddles a chunk
// boundary (so the chunk installs race too), where exactly one claim per
// granule may win.
func TestTestAndSetClearConcurrent(t *testing.T) {
	b := newTestBitmap(t)
	const goroutines = 8
	const rounds = 500
	word := mem.HeapBase + 1<<22 - 128*16 // 64 granules, all in chunk 0
	shared := word + 64*16                // crosses into chunk 1 at granule 128
	var wins [rounds]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := g; i < 64; i += goroutines {
					a := word + uint64(i)*16
					if b.TestAndSet(a) {
						t.Errorf("own granule %d already set", i)
						return
					}
					if !b.Test(a) {
						t.Errorf("own granule %d lost its bit", i)
						return
					}
					b.Clear(a)
					if b.Test(a) {
						t.Errorf("own granule %d still set after Clear", i)
						return
					}
				}
				if !b.TestAndSet(shared + uint64(r)*16) {
					wins[r].Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	for r := range wins {
		if n := wins[r].Load(); n != 1 {
			t.Fatalf("shared granule %d claimed %d times, want exactly 1", r, n)
		}
	}
	if got := b.PopCount(); got != rounds {
		t.Fatalf("PopCount = %d, want %d (own granules cleared, shared set)", got, rounds)
	}
}
