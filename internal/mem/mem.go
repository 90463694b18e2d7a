// Package mem implements the simulated virtual-memory substrate that every
// allocator in this repository runs on.
//
// The real MineSweeper system operates on a Linux process: it sweeps the
// process address space word by word, releases physical pages with madvise,
// protects quarantined pages with mprotect, and re-checks modified pages via
// the kernel's soft-dirty PTE mechanism. Go programs have none of those
// facilities, so this package provides a functional stand-in: a sparse 64-bit
// address space made of regions, each backed by word-granular storage with
// per-page residency, protection and soft-dirty state.
//
// Storage is word-granular ([]uint64) rather than byte-granular, and all word
// accesses go through sync/atomic. This makes the concurrent sweeper race-free
// at the Go level while modelling exactly what the paper's sweeper does: read
// every aligned 64-bit word of mapped memory while the mutator keeps running.
package mem

import "fmt"

// Fundamental geometry of the simulated machine. These mirror the paper's
// setup: 4 KiB pages, 64-bit words, and a 16-byte (128-bit) smallest
// allocation granule which sets the shadow-map resolution.
const (
	// PageShift is log2(PageSize).
	PageShift = 12
	// PageSize is the size of a virtual-memory page in bytes.
	PageSize = 1 << PageShift
	// WordSize is the machine word size in bytes. Pointers occupy one word.
	WordSize = 8
	// WordsPerPage is the number of 64-bit words in one page.
	WordsPerPage = PageSize / WordSize
	// Granule is the smallest allocation granule in bytes (the paper's
	// "one bit per every 128 bits" shadow-map resolution). MineSweeper's
	// core layer rounds smaller requests up to it, so no two allocation
	// bases share a granule: the quarantine's membership bitmap keeps one
	// bit per granule, and the sweep's mark bitmap tests whole granules.
	Granule = 16
)

// Prot is a page-protection mask, mirroring mmap/mprotect protections.
type Prot uint8

// Protection bits.
const (
	// ProtNone forbids all access (like PROT_NONE).
	ProtNone Prot = 0
	// ProtRead permits loads.
	ProtRead Prot = 1 << 0
	// ProtWrite permits stores.
	ProtWrite Prot = 1 << 1
	// ProtRW permits loads and stores.
	ProtRW = ProtRead | ProtWrite
)

// String returns the conventional rwx-style rendering of p.
func (p Prot) String() string {
	b := [2]byte{'-', '-'}
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	return string(b[:])
}

// Kind classifies what a region of the address space is used for. The sweeper
// uses kinds to decide what constitutes "program memory" (heap, stacks and
// globals are swept; nothing else is mapped in this model).
type Kind uint8

// Region kinds.
const (
	// KindHeap is allocator-managed heap memory.
	KindHeap Kind = iota
	// KindStack is a mutator thread's simulated stack.
	KindStack
	// KindGlobals is the program's simulated global/static data segment.
	KindGlobals
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindHeap:
		return "heap"
	case KindStack:
		return "stack"
	case KindGlobals:
		return "globals"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// FaultCause identifies why a memory access faulted.
type FaultCause uint8

// Fault causes.
const (
	// CauseUnmapped means no region contains the address.
	CauseUnmapped FaultCause = iota
	// CauseNotResident means the page's physical backing was decommitted.
	CauseNotResident
	// CauseProtection means the page protection forbade the access.
	CauseProtection
	// CauseMisaligned means a word access was not word-aligned.
	CauseMisaligned
)

// String returns the cause's name.
func (c FaultCause) String() string {
	switch c {
	case CauseUnmapped:
		return "unmapped"
	case CauseNotResident:
		return "not-resident"
	case CauseProtection:
		return "protection"
	case CauseMisaligned:
		return "misaligned"
	default:
		return fmt.Sprintf("FaultCause(%d)", uint8(c))
	}
}

// Fault is the simulated equivalent of a SIGSEGV: an invalid memory access.
// The paper relies on faults for its guarantees — an access to an unmapped
// quarantined page "results in a memory-protection violation, thus immediate
// clean termination".
type Fault struct {
	// Addr is the faulting virtual address.
	Addr uint64
	// Write reports whether the access was a store.
	Write bool
	// Cause identifies why the access failed.
	Cause FaultCause
}

// Error implements the error interface.
func (f *Fault) Error() string {
	op := "load"
	if f.Write {
		op = "store"
	}
	return fmt.Sprintf("mem: fault: %s at %#x (%s)", op, f.Addr, f.Cause)
}

// PageFloor rounds addr down to a page boundary.
func PageFloor(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// PageCeil rounds addr up to a page boundary.
func PageCeil(addr uint64) uint64 { return (addr + PageSize - 1) &^ (PageSize - 1) }

// WordAligned reports whether addr is 8-byte aligned.
func WordAligned(addr uint64) bool { return addr&(WordSize-1) == 0 }
