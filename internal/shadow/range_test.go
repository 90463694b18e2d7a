package shadow

import (
	"testing"

	"minesweeper/internal/mem"
)

// Cross-chunk-boundary edge cases for AnyInRange: ranges that straddle two
// chunks, ranges touching base/limit, and empty ranges. A chunk
// covers chunkCover(b) bytes, so addresses just either side of that boundary
// land in different lazily-allocated chunks.

func TestAnyInRangeAcrossChunkBoundary(t *testing.T) {
	b := newTestBitmap(t)
	boundary := mem.HeapBase + chunkCover(b)
	g := b.GranuleSize()

	// One mark on the last granule of chunk 0, one on the first of chunk 1.
	lastC0 := boundary - g
	firstC1 := boundary
	b.Mark(lastC0)
	b.Mark(firstC1)

	cases := []struct {
		name   string
		lo, hi uint64
		want   bool
	}{
		{"straddles both marks", boundary - 2*g, boundary + 2*g, true},
		{"ends exactly at boundary (hits last of c0)", boundary - g, boundary, true},
		{"starts exactly at boundary (hits first of c1)", boundary, boundary + g, true},
		{"straddle between the marks only", lastC0 + 4, firstC1 + 4, true},
		{"clean range inside chunk 0", boundary - 64*g, boundary - 2*g, false},
		{"clean range inside chunk 1", boundary + 2*g, boundary + 64*g, false},
		{"clean straddle of an untouched boundary", mem.HeapBase + 5*chunkCover(b) - g, mem.HeapBase + 5*chunkCover(b) + g, false},
		{"empty range (hi == lo)", boundary, boundary, false},
		{"inverted range (hi < lo)", boundary + g, boundary - g, false},
		{"clamped below base", mem.HeapBase - 100, mem.HeapBase + g, false},
		{"clamped above limit", mem.HeapLimit - g, mem.HeapLimit + 100, false},
		{"entirely below base", 0, mem.HeapBase, false},
		{"entirely above limit", mem.HeapLimit, mem.HeapLimit + 100, false},
	}
	for _, tc := range cases {
		if got := b.AnyInRange(tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: AnyInRange(%#x, %#x) = %v, want %v", tc.name, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestAnyInRangeTouchingBaseAndLimit(t *testing.T) {
	b := newTestBitmap(t)
	g := b.GranuleSize()
	b.Mark(mem.HeapBase)      // very first granule
	b.Mark(mem.HeapLimit - g) // very last granule

	if !b.AnyInRange(mem.HeapBase, mem.HeapBase+g) {
		t.Error("range at base missed the first granule")
	}
	if !b.AnyInRange(mem.HeapLimit-g, mem.HeapLimit) {
		t.Error("range at limit missed the last granule")
	}
	// Over-wide range clamps to [base, limit) and still finds both.
	if !b.AnyInRange(0, ^uint64(0)) {
		t.Error("clamped full-space range found nothing")
	}
}
