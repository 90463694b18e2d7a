// Package ring is the lock-free record ring behind telemetry's per-sweep
// log and the control plane's decision log: a fixed window of the last N
// records, written rarely (once per sweep or decision) and read by
// snapshotters that must never block the writers.
package ring

import "sync/atomic"

// DefaultCap is the default number of records retained.
const DefaultCap = 256

// Record is a ring element type: a value that carries its own sequence
// number. WithSeq returns a copy stamped with seq.
type Record[T any] interface {
	WithSeq(seq uint64) T
}

// slot is one published record together with the sequence it was pushed
// under, so a snapshot can tell the record it wants from a newer one that
// lapped it.
type slot[T any] struct {
	seq uint64
	rec T
}

// Ring is a lock-free ring buffer of the last N records. Writers claim a
// slot with one atomic add and publish an immutable record with one atomic
// pointer store; readers never block writers.
type Ring[T Record[T]] struct {
	slots []atomic.Pointer[slot[T]]
	next  atomic.Uint64
}

// New returns a ring retaining the last capN records, rounded up to a power
// of two (DefaultCap if capN <= 0).
func New[T Record[T]](capN int) *Ring[T] {
	if capN <= 0 {
		capN = DefaultCap
	}
	n := 1
	for n < capN {
		n <<= 1
	}
	return &Ring[T]{slots: make([]atomic.Pointer[slot[T]], n)}
}

// Push appends rec stamped with its sequence number (starting at 1),
// overwriting the oldest record once the ring is full, and returns that
// sequence number. The stored copy is private to the ring, so callers may
// reuse rec.
func (r *Ring[T]) Push(rec T) uint64 {
	seq := r.next.Add(1)
	r.slots[(seq-1)&uint64(len(r.slots)-1)].Store(&slot[T]{seq: seq, rec: rec.WithSeq(seq)})
	return seq
}

// Len returns the number of records currently retained.
func (r *Ring[T]) Len() int {
	return int(min(r.next.Load(), uint64(len(r.slots))))
}

// Total returns the number of records ever pushed.
func (r *Ring[T]) Total() uint64 { return r.next.Load() }

// Snapshot returns the retained records, oldest first. Records pushed while
// snapshotting may be included or not; each returned record is internally
// consistent (publication is a single pointer store).
func (r *Ring[T]) Snapshot() []T {
	hi := r.next.Load()
	lo := hi - min(hi, uint64(len(r.slots)))
	out := make([]T, 0, hi-lo)
	for s := lo; s < hi; s++ {
		p := r.slots[s&uint64(len(r.slots)-1)].Load()
		if p == nil {
			continue // claimed but not yet published
		}
		// A slot lapped by a concurrent writer holds a newer record;
		// keep only the record this slot held at sequence s+1 so the
		// result stays ordered oldest-first.
		if p.seq == s+1 {
			out = append(out, p.rec)
		}
	}
	return out
}
