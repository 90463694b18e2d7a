// Package quarantine implements MineSweeper's quarantine: the set of
// allocations the program has freed but that cannot yet be proven free of
// dangling pointers (§3). It provides:
//
//   - a membership bitmap with one bit per 16-byte granule, the paper's
//     "shadow map of entries". free() claims an allocation's base with one
//     atomic test-and-set (Claim), so a double free is caught at free time,
//     lock-free, and calls to free() while a dangling pointer exists are
//     idempotent;
//   - a global pending list with epoch lock-in: a sweep atomically takes the
//     entries "already in quarantine when it starts"; anything freed during
//     the sweep waits for the next one (§4.3);
//   - thread-private quarantine rings that make free()'s enqueue
//     thread-local and publish accounting and pending-list appends in bulk
//     drains (contribution (c) in §1.1);
//   - byte accounting with the paper's two adjustments: failed frees are
//     subtracted from both sides of the sweep trigger (§3.2), and unmapped
//     allocations do not count towards the standard threshold (§4.2).
package quarantine

import (
	"sync"
	"sync/atomic"

	"minesweeper/internal/mem"
	"minesweeper/internal/shadow"
)

// Entry describes one quarantined allocation.
type Entry struct {
	// Base is the allocation's base address.
	Base uint64
	// Size is the allocation's usable size in bytes.
	Size uint64
	// Unmapped records that the allocation's physical pages were released
	// while in quarantine (§4.2).
	Unmapped bool
	// Failed records that at least one sweep found a (possible) dangling
	// pointer to this allocation.
	Failed bool
	// Epoch is the sweep epoch in which the entry joined the global pending
	// list (stamped by Append, under the pending lock, so it is always
	// consistent with the epoch advance in LockIn).
	Epoch uint64
	// Ref is the substrate's opaque container reference (alloc.Ref),
	// captured when free() resolved the allocation. The sweep's recycle
	// phase frees through it, so the allocation's address is resolved
	// exactly once over its whole quarantine lifetime. The quarantine owns
	// the allocation until Release, which is precisely the window the
	// substrate guarantees the ref stays valid for.
	Ref any
	// Shard is the arena shard that owns the allocation (0 on substrates
	// without arena shards). It routes the entry to the matching pending
	// shard so each arena shard can sweep on its own cadence.
	Shard int32

	next *Entry // intrusive freelist link, owned by the quarantine
}

// Quarantine is the global quarantine state. All methods are safe for
// concurrent use.
type Quarantine struct {
	// members holds one bit per granule, set while the allocation based
	// there is quarantined: Claim sets it, Release clears it. Allocation
	// bases are at least mem.Granule apart (core rounds smaller requests
	// up), so no two quarantined bases share a bit.
	members *shadow.Bitmap

	// Entry recycling: free() is the hot path, so Entries flow NewEntry ->
	// Append -> (sweeps) -> Release -> this freelist and back. An intrusive
	// structure under its own mutex rather than a sync.Pool: the pool is
	// emptied at every GC cycle, and with millions of quarantined entries
	// in flight the subsequent re-allocation (plus the pool's own ring
	// growth) was a double-digit share of benchmark CPU. Entries are held
	// as whole chains — a sweep worker's Releaser donates its chunk with
	// one splice, and a thread's buffer takes a chain at a time — so the
	// lock is paid per batch, not per free.
	freeMu sync.Mutex
	chains []*Entry // each element heads an intrusive chain of free entries

	// pend is the pending side, split into per-arena-shard lists so each
	// shard can be locked in (and hence swept) on its own cadence. One
	// mutex covers all of them: pending traffic is already batched (ring
	// drains, requeues, lock-ins), so per-shard locks would buy contention
	// relief nothing measurable while complicating the epoch stamp, which
	// MUST be consistent across shards (one global epoch counter orders
	// every append against every lock-in).
	pendMu sync.Mutex
	pend   []pendShard
	// lockedSpare recycles the flattened slice LockInSelected hands the
	// sweep (see Reclaim).
	lockedSpare []*Entry
	epoch       atomic.Uint64

	bytes         atomic.Int64 // mapped quarantined bytes (excludes unmapped)
	unmappedBytes atomic.Int64
	failedBytes   atomic.Int64
	entries       atomic.Int64
	doubleFrees   atomic.Uint64
}

// pendShard is one arena shard's slice of the pending list. All fields are
// guarded by pendMu.
type pendShard struct {
	pending []*Entry
	// oldest is the epoch of the oldest pending entry (meaningful only
	// while pending is non-empty). Appends stamp the current epoch, so
	// they never lower it; Requeue can, since failed entries keep the
	// epoch of their original append.
	oldest uint64
	// bytes tallies the pending entries' sizes (mapped + unmapped) — the
	// fair-share input for the core layer's shard selection policy.
	bytes int64
}

// New returns an empty quarantine with a single pending shard (the
// rendezvous behaviour: every lock-in takes everything).
func New() *Quarantine {
	return NewSharded(1)
}

// NewSharded returns an empty quarantine whose pending list is split across
// n shards (n <= 0 means 1), matching the substrate's arena shard count.
// Entries route by Entry.Shard; LockInSelected can take any subset.
func NewSharded(n int) *Quarantine {
	if n <= 0 {
		n = 1
	}
	// One bit per mem.Granule (2^4 bytes) over the heap range; the range
	// is constant and chunk-aligned, so New cannot fail.
	members, err := shadow.New(mem.HeapBase, mem.HeapLimit, 4)
	if err != nil {
		panic(err)
	}
	return &Quarantine{members: members, pend: make([]pendShard, n)}
}

// NumShards returns the pending-list shard count.
func (q *Quarantine) NumShards() int { return len(q.pend) }

// pendIdx maps an entry to its pending shard.
func (q *Quarantine) pendIdx(e *Entry) int {
	si := int(e.Shard)
	if si < 0 || si >= len(q.pend) {
		return 0
	}
	return si
}

// NewEntry returns a recycled or fresh Entry initialised for (base, size).
// Threads with a ThreadBuffer should prefer ThreadBuffer.NewEntry, which
// amortises the freelist lock over whole chains.
func (q *Quarantine) NewEntry(base, size uint64) *Entry {
	e := q.getChain()
	if e == nil {
		return &Entry{Base: base, Size: size}
	}
	if e.next != nil {
		q.putChain(e.next)
	}
	*e = Entry{Base: base, Size: size}
	return e
}

// getChain pops one free chain, or nil.
func (q *Quarantine) getChain() *Entry {
	q.freeMu.Lock()
	var e *Entry
	if n := len(q.chains); n > 0 {
		e = q.chains[n-1]
		q.chains[n-1] = nil
		q.chains = q.chains[:n-1]
	}
	q.freeMu.Unlock()
	return e
}

// putChain donates a chain of free entries.
func (q *Quarantine) putChain(head *Entry) {
	q.freeMu.Lock()
	q.chains = append(q.chains, head)
	q.freeMu.Unlock()
}

// putEntry returns a single released entry to the freelist.
func (q *Quarantine) putEntry(e *Entry) {
	e.next = nil
	q.putChain(e)
}

// Claim marks base quarantined with one atomic test-and-set on its
// membership bit. It returns false — and counts a de-duplicated double free —
// if base is already quarantined. free() claims before it zeroes, decommits
// or builds an entry, so only the winning free does any of that.
func (q *Quarantine) Claim(base uint64) bool {
	if q.members.TestAndSet(base) {
		q.doubleFrees.Add(1)
		return false
	}
	return true
}

// Contains reports whether base is currently quarantined: claimed and not
// yet released, whether its entry still waits in a thread's ring or not.
func (q *Quarantine) Contains(base uint64) bool { return q.members.Test(base) }

// Append publishes claimed entries: it adds their sizes to the byte and entry
// accounts, then appends them to the pending list for the next lock-in,
// stamping each with the current epoch. Accounting comes first so a sweep
// that locks the batch in can never release an entry whose bytes were not
// yet counted. Entries flagged Unmapped before the call count towards the
// unmapped account (§4.2).
//
// The stamp happens under the pending lock — the same lock LockIn advances
// the epoch under — so a batch appended concurrently with a lock-in is
// stamped consistently with the side of the swap it landed on: entries the
// sweep took carry the pre-advance epoch, entries that missed it carry the
// post-advance epoch. (An earlier revision stamped at free time and
// advanced the epoch outside the lock,
// so a flush racing the advance could publish entries whose recorded epoch
// was already released — the age gauge then under-reported forever and a
// governor steering on it never escalated.)
func (q *Quarantine) Append(batch []*Entry) {
	if len(batch) == 0 {
		return
	}
	var mapped, unmapped int64
	for _, e := range batch {
		if e.Unmapped {
			unmapped += int64(e.Size)
		} else {
			mapped += int64(e.Size)
		}
	}
	if mapped != 0 {
		q.bytes.Add(mapped)
	}
	if unmapped != 0 {
		q.unmappedBytes.Add(unmapped)
	}
	q.entries.Add(int64(len(batch)))
	q.pendMu.Lock()
	ep := q.epoch.Load()
	for _, e := range batch {
		e.Epoch = ep
		ps := &q.pend[q.pendIdx(e)]
		if len(ps.pending) == 0 {
			ps.oldest = ep
		}
		ps.pending = append(ps.pending, e)
		ps.bytes += int64(e.Size)
	}
	q.pendMu.Unlock()
}

// LockIn atomically takes the whole pending list (every shard) and starts a
// new epoch — the global-rendezvous lock-in. The returned entries are the
// sweep's candidate set; entries quarantined after LockIn go to the next
// sweep. The swap and the epoch advance happen under one critical section so
// no Append can interleave between them (see Append).
func (q *Quarantine) LockIn() []*Entry { return q.LockInSelected(nil) }

// LockInSelected takes the pending entries of the selected shards (nil means
// all) into one flattened slice and starts a new epoch. The epoch advances
// once regardless of how many shards are taken, so entries left behind in
// unselected shards age by one epoch — the core layer's lag rule uses that
// age to force stragglers into a later sweep. Safety is unaffected by
// partial selection: released entries must survive a full mark pass that
// began after their lock-in, which covers all memory regardless of which
// shard owned the entry.
func (q *Quarantine) LockInSelected(sel []bool) []*Entry {
	q.pendMu.Lock()
	locked := q.lockedSpare[:0]
	q.lockedSpare = nil
	for si := range q.pend {
		if sel != nil && (si >= len(sel) || !sel[si]) {
			continue
		}
		ps := &q.pend[si]
		if len(ps.pending) == 0 {
			continue
		}
		locked = append(locked, ps.pending...)
		clear(ps.pending)
		ps.pending = ps.pending[:0]
		ps.bytes = 0
	}
	q.epoch.Add(1)
	q.pendMu.Unlock()
	return locked
}

// Reclaim donates a slice previously returned by LockIn/LockInSelected back
// to the quarantine once the sweep is done with it, so steady-state sweeps
// reuse one backing array instead of regrowing from nil every epoch. The
// entries themselves must already be Released or Requeued.
func (q *Quarantine) Reclaim(buf []*Entry) {
	if cap(buf) == 0 {
		return
	}
	clear(buf[:cap(buf)])
	q.pendMu.Lock()
	if cap(buf) > cap(q.lockedSpare) {
		q.lockedSpare = buf[:0]
	}
	q.pendMu.Unlock()
}

// Requeue returns failed entries to the pending list so future sweeps retry
// them. Unlike Append it preserves each entry's original epoch — the age of a
// stubborn failed free is measured from when it first went pending — and
// lowers the owning shard's oldest-epoch watermark accordingly.
func (q *Quarantine) Requeue(failed []*Entry) {
	if len(failed) == 0 {
		return
	}
	q.pendMu.Lock()
	for _, e := range failed {
		ps := &q.pend[q.pendIdx(e)]
		if len(ps.pending) == 0 || e.Epoch < ps.oldest {
			ps.oldest = e.Epoch
		}
		ps.pending = append(ps.pending, e)
		ps.bytes += int64(e.Size)
	}
	q.pendMu.Unlock()
}

// NoteFailed accounts an entry's first failed free (§3.2: failed frees are
// subtracted from both sides of the trigger comparison).
func (q *Quarantine) NoteFailed(e *Entry) {
	if e.Failed {
		return
	}
	e.Failed = true
	q.failedBytes.Add(int64(e.Size))
}

// Release clears a released entry's membership bit and removes it from all
// byte accounts. It must be called exactly once per entry, after the sweep
// has proven it safe and before the underlying free: once freed, the address
// can be handed out again, and the next owner's free must find the bit clear.
func (q *Quarantine) Release(e *Entry) {
	q.members.Clear(e.Base)
	if e.Unmapped {
		q.unmappedBytes.Add(-int64(e.Size))
	} else {
		q.bytes.Add(-int64(e.Size))
	}
	if e.Failed {
		q.failedBytes.Add(-int64(e.Size))
	}
	q.entries.Add(-1)
	e.Ref = nil
	q.putEntry(e)
}

// Releaser batches one sweep worker's releases. Membership bits are cleared
// per entry (membership must be exact at all times), but the freelist splice
// and the byte/entry accounting are deferred to Flush, turning five atomic
// operations per release into one set per chunk.
type Releaser struct {
	q                                 *Quarantine
	head                              *Entry
	chainLen                          int
	bytes, unmappedBytes, failedBytes int64
	n                                 int64
}

// releaseChainLen bounds the length of a donated free chain. A sweep worker
// may release a hundred thousand entries; donated as one chain, whichever
// thread's buffer popped it first would hoard the whole freelist while every
// other thread allocated fresh entries (ThreadBuffer.NewEntry keeps the
// popped chain locally). Bounded chains keep the freelist shareable at a
// cost of one splice lock per chunk.
const releaseChainLen = 256

// NewReleaser returns a Releaser for one worker's chunk. Not safe for
// concurrent use; each worker owns one and must call Flush when done.
func (q *Quarantine) NewReleaser() Releaser { return Releaser{q: q} }

// ReleaseBatch releases a whole batch: each entry's membership bit is cleared
// at once, and the accounting and freelist splice are deferred to Flush. The
// caller must copy out each entry's Base and Ref first — the entries are
// recycled here.
func (r *Releaser) ReleaseBatch(entries []*Entry) {
	for _, e := range entries {
		r.q.members.Clear(e.Base)
		r.account(e)
	}
}

// account performs Release's lock-free tail: deferred byte/entry accounting
// plus the bounded freelist chain.
func (r *Releaser) account(e *Entry) {
	if e.Unmapped {
		r.unmappedBytes -= int64(e.Size)
	} else {
		r.bytes -= int64(e.Size)
	}
	if e.Failed {
		r.failedBytes -= int64(e.Size)
	}
	r.n++
	e.Ref = nil
	e.next = r.head
	r.head = e
	if r.chainLen++; r.chainLen >= releaseChainLen {
		r.q.putChain(r.head)
		r.head, r.chainLen = nil, 0
	}
}

// Flush publishes the accumulated accounting and donates the released
// entries to the freelist as one chain.
func (r *Releaser) Flush() {
	q := r.q
	if r.bytes != 0 {
		q.bytes.Add(r.bytes)
	}
	if r.unmappedBytes != 0 {
		q.unmappedBytes.Add(r.unmappedBytes)
	}
	if r.failedBytes != 0 {
		q.failedBytes.Add(r.failedBytes)
	}
	if r.n != 0 {
		q.entries.Add(-r.n)
	}
	if r.head != nil {
		q.putChain(r.head)
	}
	*r = Releaser{q: q}
}

// Bytes returns mapped quarantined bytes (unmapped entries excluded).
func (q *Quarantine) Bytes() uint64 { return clamp(q.bytes.Load()) }

// UnmappedBytes returns bytes of quarantined allocations whose pages were
// released.
func (q *Quarantine) UnmappedBytes() uint64 { return clamp(q.unmappedBytes.Load()) }

// FailedBytes returns bytes of entries that have failed at least one sweep.
func (q *Quarantine) FailedBytes() uint64 { return clamp(q.failedBytes.Load()) }

// Entries returns the number of quarantined allocations.
func (q *Quarantine) Entries() uint64 { return clamp(q.entries.Load()) }

// DoubleFrees returns the number of de-duplicated double frees.
func (q *Quarantine) DoubleFrees() uint64 { return q.doubleFrees.Load() }

// Epoch returns the current sweep epoch.
func (q *Quarantine) Epoch() uint64 { return q.epoch.Load() }

// OldestPendingEpoch returns the quarantine epoch of the oldest entry still
// on the pending list, or the current epoch when the list is empty. The
// difference Epoch() - OldestPendingEpoch() is how many sweeps the most
// stubborn pending entry has been waiting (e.g. a failed free being retried),
// which telemetry exports as quarantine age.
func (q *Quarantine) OldestPendingEpoch() uint64 {
	q.pendMu.Lock()
	defer q.pendMu.Unlock()
	// The tracked watermarks, not pending[0].Epoch: Requeue appends failed
	// entries (which keep old epochs) behind newer appends, so the lists
	// are not epoch-sorted.
	oldest := q.epoch.Load()
	for si := range q.pend {
		ps := &q.pend[si]
		if len(ps.pending) > 0 && ps.oldest < oldest {
			oldest = ps.oldest
		}
	}
	return oldest
}

// ShardPending is one pending shard's state as PendingShardStats reports it.
type ShardPending struct {
	// Entries and Bytes cover the shard's pending (not yet locked-in)
	// entries.
	Entries int
	Bytes   uint64
	// OldestEpoch is the shard's oldest pending entry's epoch; equal to
	// the current epoch when the shard is empty. Epoch() - OldestEpoch is
	// the shard's lag in sweeps.
	OldestEpoch uint64
}

// PendingShardStats fills dst (grown as needed) with each pending shard's
// entry count, byte tally and oldest epoch — the inputs to the core layer's
// per-shard sweep selection. The snapshot is consistent (taken under the
// pending lock).
func (q *Quarantine) PendingShardStats(dst []ShardPending) []ShardPending {
	q.pendMu.Lock()
	defer q.pendMu.Unlock()
	ep := q.epoch.Load()
	if cap(dst) < len(q.pend) {
		dst = make([]ShardPending, len(q.pend))
	}
	dst = dst[:len(q.pend)]
	for si := range q.pend {
		ps := &q.pend[si]
		sp := ShardPending{Entries: len(ps.pending), Bytes: clamp(ps.bytes), OldestEpoch: ep}
		if len(ps.pending) > 0 {
			sp.OldestEpoch = ps.oldest
		}
		dst[si] = sp
	}
	return dst
}

// ForEach calls fn for a snapshot of every pending entry. Entries still in a
// thread's ring, or locked in by a running sweep, are not visited; nor may
// entries published or released concurrently be. The entries must not be
// mutated.
func (q *Quarantine) ForEach(fn func(e *Entry)) {
	q.pendMu.Lock()
	var snap []*Entry
	for si := range q.pend {
		snap = append(snap, q.pend[si].pending...)
	}
	q.pendMu.Unlock()
	for _, e := range snap {
		fn(e)
	}
}

// MetaBytes estimates the quarantine's metadata footprint: the membership
// bitmap's installed chunks, plus per entry the Entry struct (incl. the
// substrate ref word pair) and its pending slot.
func (q *Quarantine) MetaBytes() uint64 {
	return q.members.FootprintBytes() + clamp(q.entries.Load())*(56+8)
}

func clamp(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// ThreadBuffer is one mutator thread's private quarantine ring. Entries are
// pushed only after free() has won their Claim, so membership — Contains and
// double-free de-duplication — is exact from the moment of the free. The
// enqueue (Push) touches only thread-local state — no atomics, no shared
// locks — and the ring drains in bulk: one Drain publishes the byte/entry
// accounting as one set of atomic adds and appends the ring to the global
// pending list under a single pending-lock acquisition.
//
// The deferral is visible only in the byte accounts and the pending list: a
// ring-resident entry is not yet counted and no sweep can lock it in. The lag
// is bounded by the ring capacity; a capacity of 1 publishes every free at
// once.
//
// Not safe for concurrent use; each thread owns one.
type ThreadBuffer struct {
	q    *Quarantine
	ring []*Entry // fixed backing of cap entries; len is the occupancy
	cap  int
	wm   int          // Drain watermark for the amortised tick (see NeedsDrain)
	free *Entry       // local entry cache, refilled from the freelist a chain at a time
	occ  atomic.Int32 // occupancy published at drains/ticks for gauges (stale in between)
}

// DefaultBufferCap is the default thread-ring capacity.
const DefaultBufferCap = 64

// NewThreadBuffer returns a ring of capacity capN (DefaultBufferCap if
// capN <= 0) draining to q.
func NewThreadBuffer(q *Quarantine, capN int) *ThreadBuffer {
	if capN <= 0 {
		capN = DefaultBufferCap
	}
	wm := 3 * capN / 4
	if wm < 1 {
		wm = 1
	}
	return &ThreadBuffer{
		q:    q,
		ring: make([]*Entry, 0, capN),
		cap:  capN,
		wm:   wm,
	}
}

// Push enqueues a claimed entry on the ring — a single thread-local append, no
// shared state — and reports whether the ring is now full, in which case the
// caller must Drain before the next Push. (A Push past capacity is tolerated
// — the ring grows — but loses the fixed-footprint guarantee.)
func (b *ThreadBuffer) Push(e *Entry) bool {
	b.ring = append(b.ring, e)
	return len(b.ring) >= b.cap
}

// Len returns the ring occupancy.
func (b *ThreadBuffer) Len() int { return len(b.ring) }

// NeedsDrain reports whether the ring has reached its drain watermark (3/4 of
// capacity). Callers amortising drains over an op tick drain at the watermark
// so the ring never fills between ticks.
func (b *ThreadBuffer) NeedsDrain() bool { return len(b.ring) >= b.wm }

// Occupancy returns the occupancy last published by a Drain or
// PublishOccupancy — readable from any thread, at most one ring of staleness.
func (b *ThreadBuffer) Occupancy() int { return int(b.occ.Load()) }

// PublishOccupancy publishes the current occupancy for cross-thread readers
// (gauges). Owner-thread only, like Push.
func (b *ThreadBuffer) PublishOccupancy() { b.occ.Store(int32(len(b.ring))) }

// NewEntry returns a recycled or fresh Entry initialised for (base, size),
// drawing on the buffer's local cache so the hot path usually takes no lock.
func (b *ThreadBuffer) NewEntry(base, size uint64) *Entry {
	e := b.free
	if e == nil {
		e = b.q.getChain()
		if e == nil {
			return &Entry{Base: base, Size: size}
		}
	}
	b.free = e.next
	*e = Entry{Base: base, Size: size}
	return e
}

// Drain publishes the whole ring through Append: accounting as one set of
// atomic adds, then one pending-list append.
func (b *ThreadBuffer) Drain() {
	if len(b.ring) != 0 {
		b.q.Append(b.ring)
		clear(b.ring)
		b.ring = b.ring[:0]
	}
	b.occ.Store(0)
}

// Retire drains the ring and donates the local entry cache back to the
// global freelist; the owning thread is going away.
func (b *ThreadBuffer) Retire() {
	b.Drain()
	if b.free != nil {
		b.q.putChain(b.free)
		b.free = nil
	}
}
