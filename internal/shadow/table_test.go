package shadow

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"minesweeper/internal/mem"
)

// leafCover returns the bytes of address space one leaf covers for b.
func leafCover(b *Bitmap) uint64 { return chunkCover(b) << chunksPerLeafShift }

// TestLeafBoundaryMatchesModel marks granules at the edges of the two-level
// table — the heap's first and last granules and both sides of the boundary
// between leaf 0 and leaf 1 — and requires Test, AnyInRange and PopCount to
// agree with a naive set of marked granules, before and after ClearAll.
func TestLeafBoundaryMatchesModel(t *testing.T) {
	b := newTestBitmap(t)
	g := b.GranuleSize()
	boundary := mem.HeapBase + leafCover(b)
	marks := []uint64{
		mem.HeapBase,
		mem.HeapLimit - g,
		boundary - chunkCover(b), // first granule of leaf 0's last chunk
		boundary - g,             // last granule of leaf 0
		boundary,                 // first granule of leaf 1
		boundary + 5*g,
		boundary + chunkCover(b) - g, // last granule of leaf 1's first chunk
	}
	model := map[uint64]bool{}
	chunks := map[uint64]bool{}
	for _, a := range marks {
		b.Mark(a)
		model[a/g] = true
		chunks[(a-mem.HeapBase)/chunkCover(b)] = true
	}
	naiveAny := func(lo, hi uint64) bool {
		for a := lo &^ (g - 1); a < hi; a += g {
			if model[a/g] {
				return true
			}
		}
		return false
	}
	var probes []uint64
	for _, a := range marks {
		probes = append(probes, a-g, a, a+g)
	}
	check := func(stage string) {
		t.Helper()
		for _, a := range probes {
			if a < mem.HeapBase || a >= mem.HeapLimit {
				continue
			}
			if got := b.Test(a); got != model[a/g] {
				t.Errorf("%s: Test(%#x) = %v, want %v", stage, a, got, model[a/g])
			}
			for _, r := range [][2]uint64{{a, a + g}, {a - g, a}, {a - 2*g, a + 2*g}} {
				lo, hi := max(r[0], mem.HeapBase), min(r[1], mem.HeapLimit)
				if got, want := b.AnyInRange(r[0], r[1]), naiveAny(lo, hi); got != want {
					t.Errorf("%s: AnyInRange(%#x, %#x) = %v, want %v", stage, r[0], r[1], got, want)
				}
			}
		}
		if got, want := b.AnyInRange(boundary-chunkCover(b)+g, boundary+chunkCover(b)-g), naiveAny(boundary-chunkCover(b)+g, boundary+chunkCover(b)-g); got != want {
			t.Errorf("%s: AnyInRange across the leaf boundary = %v, want %v", stage, got, want)
		}
		if got := b.PopCount(); got != uint64(len(model)) {
			t.Errorf("%s: PopCount = %d, want %d", stage, got, len(model))
		}
	}
	check("marked")
	if got := b.allocated.Load(); got != int64(len(chunks)) {
		t.Errorf("allocated = %d, want %d distinct chunks", got, len(chunks))
	}
	b.ClearAll()
	clear(model)
	check("cleared")
	if got := b.FootprintBytes(); got != 0 {
		t.Errorf("FootprintBytes after ClearAll = %d, want 0", got)
	}
}

// TestConcurrentLeafInstall has 8 goroutines' Markers first-touch the same
// uninstalled leaf at once, each over its own spread of chunks with
// overlaps. Under -race this exercises the leaf and chunk CAS installs; a
// lost install would drop marks or miscount chunks.
func TestConcurrentLeafInstall(t *testing.T) {
	b := newTestBitmap(t)
	const workers = 8
	const perWorker = 256
	leafBase := mem.HeapBase + 3*leafCover(b) // leaf 3, never touched
	addrFor := func(w, i int) uint64 {
		// Worker w's i-th mark lands in chunk (w+i)%64 of the leaf, so
		// every chunk is first-touched by several workers.
		c := uint64((w + i) % 64)
		return leafBase + c*chunkCover(b) + uint64(w*perWorker+i)*b.GranuleSize()
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mk := b.NewMarker()
			<-start
			for i := 0; i < perWorker; i++ {
				mk.Mark(addrFor(w, i))
			}
			mk.Flush()
		}(w)
	}
	close(start)
	wg.Wait()

	chunks := map[uint64]bool{}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			a := addrFor(w, i)
			if !b.Test(a) {
				t.Fatalf("worker %d mark %d (%#x) lost", w, i, a)
			}
			chunks[(a-mem.HeapBase)/chunkCover(b)] = true
		}
	}
	if got := b.allocated.Load(); got != int64(len(chunks)) {
		t.Errorf("allocated = %d, want %d distinct chunks", got, len(chunks))
	}
	if got := b.PopCount(); got != workers*perWorker {
		t.Errorf("PopCount = %d, want %d", got, workers*perWorker)
	}
}

// TestBitmapGoHeapBudget bounds what an empty heap-sized bitmap costs the Go
// heap: only the top level of leaf pointers, not a slot per chunk of the
// 1 TiB range.
func TestBitmapGoHeapBudget(t *testing.T) {
	const budget = 16 << 10
	const n = 64
	keep := make([]*Bitmap, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = newTestBitmap(t)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	got := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("New(HeapBase, HeapLimit, 4) retains %d B", got)
	if got > budget {
		t.Fatalf("New(HeapBase, HeapLimit, 4) retains %d B, budget %d B", got, budget)
	}
}

// BenchmarkShadowClearAll measures ClearAll after a sweep that marked one
// granule in each of 1 or 64 chunks; the marking is outside the timer.
func BenchmarkShadowClearAll(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("chunks=%d", n), func(b *testing.B) {
			bm := newTestBitmap(b)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for c := 0; c < n; c++ {
					bm.Mark(mem.HeapBase + uint64(c)*chunkCover(bm))
				}
				b.StartTimer()
				bm.ClearAll()
			}
		})
	}
}
