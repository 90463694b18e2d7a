package quarantine

import (
	"sync"
	"testing"
	"testing/quick"

	"minesweeper/internal/mem"
)

// hb rebases test addresses into the heap range the membership bitmap
// covers.
const hb = mem.HeapBase

// insert claims e's base and publishes e, as free() and a drain do
// together; false means the claim lost (a double free).
func insert(q *Quarantine, e *Entry) bool {
	if !q.Claim(e.Base) {
		return false
	}
	q.Append([]*Entry{e})
	return true
}

func TestInsertRelease(t *testing.T) {
	q := New()
	e := &Entry{Base: hb + 0x1000, Size: 64}
	if !insert(q, e) {
		t.Fatal("Insert returned false")
	}
	if !q.Contains(hb + 0x1000) {
		t.Error("Contains = false after insert")
	}
	if q.Bytes() != 64 || q.Entries() != 1 {
		t.Errorf("Bytes/Entries = %d/%d, want 64/1", q.Bytes(), q.Entries())
	}
	q.Release(e)
	if q.Contains(hb + 0x1000) {
		t.Error("Contains = true after release")
	}
	if q.Bytes() != 0 || q.Entries() != 0 {
		t.Errorf("Bytes/Entries = %d/%d, want 0/0", q.Bytes(), q.Entries())
	}
}

func TestDoubleFreeDeduplicated(t *testing.T) {
	q := New()
	if !insert(q, &Entry{Base: hb + 0x2000, Size: 32}) {
		t.Fatal("first insert failed")
	}
	if insert(q, &Entry{Base: hb + 0x2000, Size: 32}) {
		t.Fatal("duplicate insert succeeded")
	}
	if q.DoubleFrees() != 1 {
		t.Errorf("DoubleFrees = %d, want 1", q.DoubleFrees())
	}
	if q.Bytes() != 32 {
		t.Errorf("Bytes = %d, want 32 (duplicate must not double-count)", q.Bytes())
	}
}

func TestReinsertAfterRelease(t *testing.T) {
	// Once released (truly freed), the same base can be allocated and
	// freed again — the quarantine must accept it.
	q := New()
	e := &Entry{Base: hb + 0x3000, Size: 16}
	insert(q, e)
	q.Release(e)
	if !insert(q, &Entry{Base: hb + 0x3000, Size: 16}) {
		t.Error("reinsert after release failed")
	}
}

func TestLockInEpochs(t *testing.T) {
	q := New()
	a := &Entry{Base: hb + 0x1000, Size: 8}
	b := &Entry{Base: hb + 0x2000, Size: 8}
	q.Claim(a.Base)
	q.Claim(b.Base)
	q.Append([]*Entry{a, b})

	locked := q.LockIn()
	if len(locked) != 2 {
		t.Fatalf("LockIn returned %d entries, want 2", len(locked))
	}
	// New frees during the sweep go to the next epoch.
	c := &Entry{Base: hb + 0x3000, Size: 8}
	insert(q, c)
	if got := q.LockIn(); len(got) != 1 || got[0] != c {
		t.Errorf("second LockIn = %v, want [c]", got)
	}
	if q.Epoch() != 2 {
		t.Errorf("Epoch = %d, want 2", q.Epoch())
	}
}

func TestFailedAccounting(t *testing.T) {
	q := New()
	e := &Entry{Base: hb + 0x1000, Size: 100}
	insert(q, e)
	q.NoteFailed(e)
	q.NoteFailed(e) // idempotent
	if q.FailedBytes() != 100 {
		t.Errorf("FailedBytes = %d, want 100", q.FailedBytes())
	}
	q.Release(e)
	if q.FailedBytes() != 0 {
		t.Errorf("FailedBytes after release = %d, want 0", q.FailedBytes())
	}
}

func TestUnmappedAccounting(t *testing.T) {
	q := New()
	e := &Entry{Base: hb + 0x1000, Size: 8192, Unmapped: true} // decommitted before publication
	insert(q, e)
	if q.Bytes() != 0 {
		t.Errorf("Bytes = %d, want 0 (unmapped excluded)", q.Bytes())
	}
	if q.UnmappedBytes() != 8192 {
		t.Errorf("UnmappedBytes = %d, want 8192", q.UnmappedBytes())
	}
	q.Release(e)
	if q.UnmappedBytes() != 0 {
		t.Errorf("UnmappedBytes after release = %d, want 0", q.UnmappedBytes())
	}
}

func TestThreadBufferDrainPublishes(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 4)
	for i := 0; i < 3; i++ {
		if tb.Push(claimed(q, hb+uint64(0x1000+i*16), 16)) {
			t.Fatalf("ring full after %d of 4 pushes", i+1)
		}
	}
	// Ring-resident entries are members from the claim on, but are neither
	// counted nor pending until the drain.
	if !q.Contains(hb + 0x1000) {
		t.Error("Contains = false for claimed ring-resident entry")
	}
	if q.Bytes() != 0 || q.Entries() != 0 {
		t.Errorf("Bytes/Entries = %d/%d before drain, want 0/0", q.Bytes(), q.Entries())
	}
	if got := q.LockIn(); len(got) != 0 {
		t.Fatalf("pending published early: %d entries", len(got))
	}
	if !tb.Push(claimed(q, hb+0x9000, 16)) {
		t.Fatal("Push at capacity did not report full")
	}
	tb.Drain()
	if !q.Contains(hb+0x1000) || !q.Contains(hb+0x9000) {
		t.Error("Contains = false after drain")
	}
	if q.Bytes() != 64 || q.Entries() != 4 {
		t.Errorf("Bytes/Entries = %d/%d after drain, want 64/4", q.Bytes(), q.Entries())
	}
	if got := q.LockIn(); len(got) != 4 {
		t.Errorf("LockIn after drain = %d entries, want 4", len(got))
	}
}

func TestThreadBufferExplicitDrain(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 0) // default cap
	tb.Push(claimed(q, hb+0x1000, 16))
	tb.Drain()
	tb.Drain() // empty drain is a no-op
	if got := q.LockIn(); len(got) != 1 {
		t.Errorf("LockIn = %d entries, want 1", len(got))
	}
}

// TestThreadBufferDrainDeduplicates: a double free loses its claim at free
// time, so only the winning entry ever reaches the ring, whether the first
// free is still ring-resident or already drained.
func TestThreadBufferDrainDeduplicates(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 8)
	free := func(base, size uint64) {
		if q.Claim(base) {
			tb.Push(tb.NewEntry(base, size))
		}
	}
	free(hb+0x1000, 32)
	free(hb+0x1000, 32) // double free while the first is ring-resident
	free(hb+0x2000, 16)
	if tb.Len() != 2 {
		t.Errorf("ring holds %d entries, want 2 (the duplicate never enters)", tb.Len())
	}
	tb.Drain()
	if q.DoubleFrees() != 1 {
		t.Errorf("DoubleFrees = %d, want 1", q.DoubleFrees())
	}
	if q.Bytes() != 48 || q.Entries() != 2 {
		t.Errorf("Bytes/Entries = %d/%d, want 48/2", q.Bytes(), q.Entries())
	}
	// A duplicate against an already-drained entry is also caught.
	free(hb+0x2000, 16)
	tb.Drain()
	if q.DoubleFrees() != 2 {
		t.Errorf("DoubleFrees = %d after second drain, want 2", q.DoubleFrees())
	}
	if got := q.LockIn(); len(got) != 2 {
		t.Errorf("LockIn = %d entries, want 2 (duplicates must not be pending)", len(got))
	}
}

func TestThreadBufferDrainUnmappedAccounting(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 4)
	e := claimed(q, hb+0x4000, 8192)
	e.Unmapped = true // flagged while ring-resident
	tb.Push(e)
	tb.Push(claimed(q, hb+0x8000, 64))
	tb.Drain()
	if q.Bytes() != 64 {
		t.Errorf("Bytes = %d, want 64 (unmapped excluded)", q.Bytes())
	}
	if q.UnmappedBytes() != 8192 {
		t.Errorf("UnmappedBytes = %d, want 8192", q.UnmappedBytes())
	}
	q.Release(e)
	if q.UnmappedBytes() != 0 {
		t.Errorf("UnmappedBytes after release = %d, want 0", q.UnmappedBytes())
	}
}

func TestThreadBufferWatermark(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 64)
	for i := 0; i < 47; i++ {
		tb.Push(claimed(q, hb+uint64(0x1000+i*16), 16))
	}
	if tb.NeedsDrain() {
		t.Error("NeedsDrain = true below watermark")
	}
	tb.Push(claimed(q, hb+0x9000, 16))
	if !tb.NeedsDrain() {
		t.Error("NeedsDrain = false at watermark (48 of 64)")
	}
	if tb.Occupancy() != 0 {
		t.Errorf("Occupancy = %d before publish, want 0 (stale)", tb.Occupancy())
	}
	tb.PublishOccupancy()
	if tb.Occupancy() != 48 {
		t.Errorf("Occupancy = %d after publish, want 48", tb.Occupancy())
	}
	tb.Drain()
	if tb.Occupancy() != 0 || tb.Len() != 0 {
		t.Errorf("Occupancy/Len = %d/%d after drain, want 0/0", tb.Occupancy(), tb.Len())
	}
}

// TestAppendEpochLockInRace is the regression test for the flush/epoch-advance
// race: Append must stamp entries under the same critical section LockIn
// advances the epoch in, so a drain racing a lock-in can never publish an
// entry stamped with an epoch the sweep has already released. Run under -race
// this also exercises the pendMu discipline itself.
func TestAppendEpochLockInRace(t *testing.T) {
	q := New()
	const pushers = 4
	const perPusher = 3000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tb := NewThreadBuffer(q, 8)
			for i := 0; i < perPusher; i++ {
				if tb.Push(claimed(q, hb+uint64(g*perPusher+i+1)*16, 16)) {
					tb.Drain()
				}
			}
			tb.Drain()
		}(g)
	}
	locked := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			batch := q.LockIn()
			epoch := q.Epoch() // > stamp of everything in batch
			for _, e := range batch {
				if e.Epoch >= epoch {
					t.Errorf("locked-in entry stamped epoch %d, released at epoch %d (stranded past release)", e.Epoch, epoch)
					return
				}
			}
			for i := 1; i < len(batch); i++ {
				if batch[i].Epoch < batch[i-1].Epoch {
					t.Errorf("pending list epochs not monotonic: %d after %d", batch[i].Epoch, batch[i-1].Epoch)
					return
				}
			}
			locked += len(batch)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	// Everything drained before the final LockIn rounds must have been taken.
	final := q.LockIn()
	if total := locked + len(final); total != pushers*perPusher {
		t.Errorf("locked-in total = %d, want %d", total, pushers*perPusher)
	}
}

func TestRequeueLowersOldestPendingEpoch(t *testing.T) {
	q := New()
	a := &Entry{Base: hb + 0x1000, Size: 8}
	insert(q, a)
	locked := q.LockIn() // epoch 0 -> 1; a carries epoch 0
	// New free lands at epoch 1, then the failed entry is requeued behind it.
	b := &Entry{Base: hb + 0x2000, Size: 8}
	insert(q, b)
	q.Requeue(locked)
	if got := q.OldestPendingEpoch(); got != 0 {
		t.Errorf("OldestPendingEpoch = %d, want 0 (requeued entry is oldest)", got)
	}
	if age := q.Epoch() - q.OldestPendingEpoch(); age != 1 {
		t.Errorf("age = %d epochs, want 1", age)
	}
}

func TestConcurrentInsertRelease(t *testing.T) {
	q := New()
	const threads = 8
	const n = 2000
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tb := NewThreadBuffer(q, 16)
			for i := 0; i < n; i++ {
				if tb.Push(claimed(q, hb+uint64(g*n+i+1)*16, 16)) {
					tb.Drain()
				}
			}
			tb.Retire()
		}(g)
	}
	wg.Wait()
	if q.Entries() != threads*n {
		t.Fatalf("Entries = %d, want %d", q.Entries(), threads*n)
	}
	locked := q.LockIn()
	if len(locked) != threads*n {
		t.Fatalf("LockIn = %d, want %d", len(locked), threads*n)
	}
	for _, e := range locked {
		q.Release(e)
	}
	if q.Entries() != 0 || q.Bytes() != 0 {
		t.Errorf("Entries/Bytes = %d/%d after release all", q.Entries(), q.Bytes())
	}
	if q.Contains(locked[0].Base) {
		t.Error("Contains = true after release")
	}
}

// Property: for any interleaving of insert/insert-unmapped/fail/release on
// distinct bases, Bytes + UnmappedBytes equals the sum of live entry sizes,
// UnmappedBytes the sum over unmapped entries, and FailedBytes the sum over
// failed ones.
func TestQuickAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		q := New()
		live := make(map[uint64]*Entry)
		next := hb + 16
		for _, op := range ops {
			switch op % 4 {
			case 0, 2: // insert; case 2 inserts an entry decommitted in free()
				e := &Entry{Base: next, Size: uint64(op)*8 + 8, Unmapped: op%4 == 2}
				next += 1 << 12
				if insert(q, e) {
					live[e.Base] = e
				}
			case 1: // fail one
				for _, e := range live {
					q.NoteFailed(e)
					break
				}
			case 3: // release one
				for b, e := range live {
					q.Release(e)
					delete(live, b)
					break
				}
			}
			var want, unmapped, failed uint64
			for _, e := range live {
				want += e.Size
				if e.Unmapped {
					unmapped += e.Size
				}
				if e.Failed {
					failed += e.Size
				}
			}
			if q.Bytes()+q.UnmappedBytes() != want || q.UnmappedBytes() != unmapped {
				return false
			}
			if q.FailedBytes() != failed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// claimed returns an entry for base whose claim won, as free() pushes it.
func claimed(q *Quarantine, base, size uint64) *Entry {
	if !q.Claim(base) {
		panic("duplicate base in test")
	}
	return &Entry{Base: base, Size: size}
}

// BenchmarkClaimRelease is the membership layer's cost per quarantined
// allocation: the atomic claim free() pays, and the bit clear the recycle
// phase pays in Releaser.ReleaseBatch, with the batch's deferred accounting
// and the entry's trip through the freelist as core drives them.
func BenchmarkClaimRelease(b *testing.B) {
	q := New()
	tb := NewThreadBuffer(q, 0)
	r := q.NewReleaser()
	batch := make([]*Entry, 0, 256)
	for i := 0; i < b.N; i++ {
		base := hb + uint64(i&(1<<16-1))*64
		if !q.Claim(base) {
			b.Fatal("claim lost on a released base")
		}
		batch = append(batch, tb.NewEntry(base, 64))
		if len(batch) == cap(batch) {
			r.ReleaseBatch(batch)
			batch = batch[:0]
		}
	}
	r.ReleaseBatch(batch)
	r.Flush()
}
