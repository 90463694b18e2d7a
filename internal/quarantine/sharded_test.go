package quarantine

import "testing"

func pendEntry(q *Quarantine, base, size uint64, shard int32) *Entry {
	e := claimed(q, hb+base, size)
	e.Shard = shard
	return e
}

// TestLockInSelectedSubset: a partial lock-in takes only the selected shards'
// entries, advances the epoch once, and leaves the rest pending with their
// original epochs (so their age grows).
func TestLockInSelectedSubset(t *testing.T) {
	q := NewSharded(3)
	if q.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", q.NumShards())
	}
	e0 := pendEntry(q, 0x1000, 64, 0)
	e1 := pendEntry(q, 0x2000, 128, 1)
	e2 := pendEntry(q, 0x3000, 256, 2)
	q.Append([]*Entry{e0, e1, e2})

	stats := q.PendingShardStats(nil)
	if stats[0].Bytes != 64 || stats[1].Bytes != 128 || stats[2].Bytes != 256 {
		t.Fatalf("shard bytes = %+v", stats)
	}

	locked := q.LockInSelected([]bool{true, false, true})
	if len(locked) != 2 {
		t.Fatalf("locked %d entries, want 2 (shards 0 and 2)", len(locked))
	}
	for _, e := range locked {
		if e.Shard == 1 {
			t.Fatal("unselected shard 1 was locked in")
		}
	}
	if q.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1 (one advance per lock-in)", q.Epoch())
	}
	stats = q.PendingShardStats(stats)
	if stats[0].Entries != 0 || stats[2].Entries != 0 {
		t.Fatalf("selected shards not emptied: %+v", stats)
	}
	if stats[1].Entries != 1 || stats[1].Bytes != 128 {
		t.Fatalf("unselected shard disturbed: %+v", stats[1])
	}
	// e1 was appended at epoch 0 and left behind; its shard lags 1 epoch.
	if stats[1].OldestEpoch != 0 {
		t.Fatalf("shard 1 oldest epoch = %d, want 0", stats[1].OldestEpoch)
	}
	if got := q.OldestPendingEpoch(); got != 0 {
		t.Fatalf("OldestPendingEpoch = %d, want 0", got)
	}

	// A full lock-in picks up the straggler.
	locked2 := q.LockIn()
	if len(locked2) != 1 || locked2[0] != e1 {
		t.Fatalf("full lock-in took %d entries, want e1 only", len(locked2))
	}
	if got := q.OldestPendingEpoch(); got != q.Epoch() {
		t.Fatalf("OldestPendingEpoch on empty = %d, want current epoch %d", got, q.Epoch())
	}
}

// TestAppendRoutesByShard: entries land on the pending shard named by
// Entry.Shard, with out-of-range values routed to shard 0.
func TestAppendRoutesByShard(t *testing.T) {
	q := NewSharded(2)
	a := pendEntry(q, 0x1000, 32, 1)
	b := pendEntry(q, 0x2000, 32, 7)  // out of range -> shard 0
	c := pendEntry(q, 0x3000, 32, -1) // negative -> shard 0
	q.Append([]*Entry{a, b, c})
	stats := q.PendingShardStats(nil)
	if stats[0].Entries != 2 || stats[1].Entries != 1 {
		t.Fatalf("routing: %+v", stats)
	}
	locked := q.LockInSelected([]bool{false, true})
	if len(locked) != 1 || locked[0] != a {
		t.Fatalf("shard-1 lock-in = %d entries", len(locked))
	}
}

// TestRequeuePerShardWatermark: requeued failures return to their own shard
// and lower that shard's (and thus the global) oldest-epoch watermark.
func TestRequeuePerShardWatermark(t *testing.T) {
	q := NewSharded(2)
	e := pendEntry(q, 0x1000, 64, 1)
	q.Append([]*Entry{e})
	locked := q.LockInSelected([]bool{false, true})
	if len(locked) != 1 {
		t.Fatalf("locked %d, want 1", len(locked))
	}
	// Age the world a few epochs, then fail the entry back in.
	q.LockIn()
	q.LockIn()
	q.Requeue(locked)
	stats := q.PendingShardStats(nil)
	if stats[1].Entries != 1 || stats[1].OldestEpoch != 0 {
		t.Fatalf("requeued shard state: %+v", stats[1])
	}
	if got := q.OldestPendingEpoch(); got != 0 {
		t.Fatalf("OldestPendingEpoch = %d, want 0 (requeue preserves epoch)", got)
	}
	if age := q.Epoch() - stats[1].OldestEpoch; age != 3 {
		t.Fatalf("shard lag = %d epochs, want 3", age)
	}
}

// TestUnshardedDefault: New() behaves exactly as before — one shard, every
// lock-in takes everything regardless of Entry.Shard.
func TestUnshardedDefault(t *testing.T) {
	q := New()
	if q.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", q.NumShards())
	}
	a := pendEntry(q, 0x1000, 32, 0)
	b := pendEntry(q, 0x2000, 32, 3)
	q.Append([]*Entry{a, b})
	if locked := q.LockIn(); len(locked) != 2 {
		t.Fatalf("locked %d, want 2", len(locked))
	}
}
