package main

import (
	"fmt"
	"runtime"
	"time"

	"minesweeper"
	"minesweeper/internal/alloc"
	"minesweeper/internal/control"
	"minesweeper/internal/fleet"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/quarantine"
	"minesweeper/internal/shadow"
	"minesweeper/internal/telemetry"
)

// layerRun is what a traced pass collected for the per-layer metrics.
//
// A traced pass runs the slice pairs of the untraced run, protected against
// baseline on the same inputs, with every other pair traced on both sides.
// The untraced pairs give the protection overhead, the traced pairs the
// layer costs, and the two kinds of protected slice set against each other
// the tracing cost.
type layerRun struct {
	ms, base *tracer // the protected side and the baseline, traced slices only
	// overheadRatio is protected over baseline host time on identical
	// inputs over the untraced slice pairs.
	overheadRatio float64
	// traceOverhead is the tracing cost on the workload's headline figure:
	// traced over untraced protected slices, minus 1.
	traceOverhead float64
	recs          []telemetry.SweepRecord
	st0, st1      alloc.Stats // the protected heap before and after the pass
	gov           *control.State
	gc            goRuntime
	ptrs          []uint64 // heap pointers found in the final heap
	ops           uint64   // units of work in the traced slices
	allOps        uint64   // units of work in the whole pass
	untracedRate  float64  // units of work per second, untraced
}

// maxProbePtrs caps how many words of the final heap the shadow probe
// replays.
const maxProbePtrs = 1 << 21

// reportLayers computes every per-layer metric from a traced pass and prints
// the layer self-time table.
func reportLayers(r *result, lr *layerRun) {
	lr.ms.printSelf("protected run, layer self time")
	lr.base.printSelf("baseline run, layer self time")

	r.set("core.malloc_ns", lr.ms.meanNs(lMalloc), "ns")
	r.set("core.free_ns", lr.ms.meanNs(lFree), "ns")
	r.set("core.overhead_ratio", lr.overheadRatio, "x")
	r.set("mem.load_ns", lr.ms.meanNs(lLoad), "ns")
	r.set("mem.store_ns", lr.ms.meanNs(lStore), "ns")
	r.set("jemalloc.malloc_ns", lr.base.meanNs(lMalloc), "ns")
	r.set("jemalloc.free_ns", lr.base.meanNs(lFree), "ns")
	r.set("trace.overhead_share", lr.traceOverhead, "ratio")

	var sw struct {
		total, mark, dirty, pre, recycle, purge, unattr float64
		scanned, kz, pages, dirtyPages                  float64
		released, retained                              float64
		stw                                             []float64
	}
	for _, rec := range lr.recs {
		sw.total += float64(rec.TotalNanos)
		sw.mark += float64(rec.MarkNanos)
		sw.dirty += float64(rec.DirtyNanos)
		sw.pre += float64(rec.PrecleanNanos)
		sw.recycle += float64(rec.RecycleNanos)
		sw.purge += float64(rec.PurgeNanos)
		sw.unattr += float64(rec.TotalNanos - rec.MarkNanos - rec.DirtyNanos - rec.PrecleanNanos - rec.RecycleNanos - rec.PurgeNanos)
		sw.scanned += float64(rec.BytesScanned)
		sw.kz += float64(rec.PagesKnownZero)
		sw.pages += float64(rec.PagesScanned)
		sw.dirtyPages += float64(rec.DirtyPages)
		sw.released += float64(rec.Released)
		sw.retained += float64(rec.Retained)
		sw.stw = append(sw.stw, float64(rec.DirtyNanos)/1e3)
	}
	n := float64(len(lr.recs))
	if n == 0 {
		r.fail("traced run completed no sweep")
		n = 1
	}
	r.set("core.sweeps", float64(len(lr.recs)), "count")
	r.set("core.sweep_ms", sw.total/n/1e6, "ms")
	r.set("core.sweep_unattributed_ms", sw.unattr/n/1e6, "ms")
	r.set("core.release_ratio", div(sw.released, sw.released+sw.retained), "ratio")
	r.set("sweep.mark_ms", sw.mark/n/1e6, "ms")
	r.set("sweep.scan_mib_per_s", div(sw.scanned/(1<<20), sw.mark/1e9), "MiB/s")
	r.set("sweep.known_zero_share", div(sw.kz, sw.kz+sw.pages), "ratio")
	r.set("sweep.recycle_ms", sw.recycle/n/1e6, "ms")
	r.note("core.pause_ms", float64(lr.st1.PauseNanos-lr.st0.PauseNanos)/1e6, "ms")
	r.note("core.stw_ms", float64(lr.st1.STWCycles-lr.st0.STWCycles)/1e6, "ms")
	r.note("mem.dirty_pages_per_sweep", sw.dirtyPages/n, "count")
	r.note("sweep.stw_us", quantile(sw.stw, 0.99), "us")
	r.note("sweep.preclean_ms", sw.pre/n/1e6, "ms")
	if lr.gov != nil {
		crit := 0
		for _, d := range lr.gov.Decisions {
			if d.Level == control.Critical {
				crit++
			}
		}
		r.note("control.decisions", float64(lr.gov.DecisionsTotal), "count")
		r.note("control.critical_share", div(float64(crit), float64(len(lr.gov.Decisions))), "ratio")
	}
	r.set("go.gc_cpu_share", div(lr.gc.gcCPU, lr.gc.totalCPU), "ratio")
	r.set("go.gc_cycles", lr.gc.cycles, "count")

	// The sweeps ran over the whole pass, the traced frees in its traced
	// slices only.
	freesPerSweep := int(float64(lr.ms.calls[lFree]) * div(float64(lr.allOps), float64(lr.ops)) / n)
	push, drain, lockin := quarantineProbe(lr.ms.frees, freesPerSweep)
	r.set("quarantine.push_ns", push, "ns")
	r.set("quarantine.drain_ns_per_entry", drain, "ns")
	r.set("quarantine.lockin_us", lockin, "us")
	batch, purge := jemallocProbe(lr.ms.frees)
	r.set("jemalloc.free_batch_ns_per_item", batch, "ns")
	r.set("jemalloc.purge_ms", purge, "ms")
	mark, clear := shadowProbe(lr.ptrs)
	r.set("shadow.mark_ns", mark, "ns")
	r.set("shadow.clear_all_us", clear, "us")
	r.set("shadow.go_bytes_per_heap", shadowGoBytes(), "B")
	fmt.Printf("traced phase: %d units, %d sweeps, %d frees replayed, %d heap pointers replayed\n",
		lr.ops, len(lr.recs), len(lr.ms.frees), len(lr.ptrs))
}

// quarantineProbe replays a free stream through a standalone sharded
// quarantine as core drives it: each free takes a ring entry, the ring drains
// at its watermark, and every freesPerSweep frees a sweep locks the
// quarantine in and releases it. It returns ns per ring push, ns per drained
// entry and us per lock-in.
func quarantineProbe(frees []freeRec, freesPerSweep int) (push, drain, lockin float64) {
	if len(frees) == 0 {
		return 0, 0, 0
	}
	if freesPerSweep < 1 {
		freesPerSweep = len(frees)
	}
	sub := jemalloc.New(mem.NewAddressSpace(), jemalloc.DefaultConfig())
	q := quarantine.NewSharded(sub.NumArenas())
	tb := quarantine.NewThreadBuffer(q, quarantine.DefaultBufferCap)
	var pushNs, drainNs, lockNs time.Duration
	var drained, locks int
	sweep := func() {
		tb.Drain()
		t0 := time.Now()
		locked := q.LockIn()
		lockNs += time.Since(t0)
		locks++
		for _, e := range locked {
			q.Release(e)
		}
		q.Reclaim(locked)
	}
	for i := 0; i < len(frees); {
		t0 := time.Now()
		full := false
		for j := 0; j < 16 && i < len(frees) && !full; j, i = j+1, i+1 {
			full = tb.Push(tb.NewEntry(frees[i].addr, frees[i].size))
		}
		t1 := time.Now()
		pushNs += t1.Sub(t0)
		if full || tb.NeedsDrain() {
			drained += tb.Len()
			tb.Drain()
			drainNs += time.Since(t1)
		}
		if i%freesPerSweep < 16 {
			sweep()
		}
	}
	sweep()
	if drained == 0 {
		drained = 1
	}
	return float64(pushNs) / float64(len(frees)), float64(drainNs) / float64(drained), float64(lockNs) / float64(locks) / 1e3
}

// jemallocProbe allocates the free stream's sizes on a standalone jemalloc,
// releases them through FreeBatch in the sweep's batch size, and purges. It
// returns ns per batched free and the purge time in ms.
func jemallocProbe(frees []freeRec) (perItem, purgeMs float64) {
	const batch = 256
	n := len(frees)
	if n > 1<<16 {
		n = 1 << 16
	}
	if n == 0 {
		return 0, 0
	}
	h := jemalloc.New(mem.NewAddressSpace(), jemalloc.DefaultConfig())
	tid := h.RegisterThread()
	addrs := make([]uint64, 0, n)
	for _, f := range frees[:n] {
		size := f.size
		if size == 0 {
			size = 64
		}
		a, err := h.Malloc(tid, size)
		if err != nil {
			break
		}
		addrs = append(addrs, a)
	}
	refs := make([]alloc.Ref, batch)
	errs := make([]error, batch)
	var d time.Duration
	for i := 0; i < len(addrs); i += batch {
		chunk := addrs[i:min(i+batch, len(addrs))]
		for j, a := range chunk {
			_, refs[j], _ = h.Resolve(a)
		}
		t0 := time.Now()
		h.FreeBatch(tid, refs[:len(chunk)], chunk, errs[:len(chunk)])
		d += time.Since(t0)
	}
	t0 := time.Now()
	h.PurgeAll()
	return float64(d) / float64(len(addrs)), float64(time.Since(t0)) / 1e6
}

// shadowProbe marks the final heap's pointers into a bitmap shaped like
// core's mark bitmap, then clears it, several times; it returns the median
// ns per marked pointer and us per ClearAll.
func shadowProbe(ptrs []uint64) (markNs, clearUs float64) {
	b, err := shadow.New(mem.HeapBase, mem.HeapLimit, 4)
	if err != nil || len(ptrs) == 0 {
		return 0, 0
	}
	var marks, clears []float64
	for rep := 0; rep < 5; rep++ {
		mk := b.NewMarker()
		t0 := time.Now()
		for _, p := range ptrs {
			mk.Mark(p)
		}
		mk.Flush()
		t1 := time.Now()
		b.ClearAll()
		marks = append(marks, float64(t1.Sub(t0))/float64(len(ptrs)))
		clears = append(clears, float64(time.Since(t1))/1e3)
	}
	return median(marks), median(clears)
}

// shadowGoBytes is the Go heap the two bitmaps core allocates per heap (the
// mark bitmap and the unmapped-page bitmap) retain.
func shadowGoBytes() float64 {
	runtime.GC()
	before := readHeapBytes()
	a, _ := shadow.New(mem.HeapBase, mem.HeapLimit, 4)
	b, _ := shadow.New(mem.HeapBase, mem.HeapLimit, mem.PageShift)
	runtime.GC()
	after := readHeapBytes()
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
	return after - before
}

func readHeapBytes() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// traceClosed is the traced pass of a closed-loop workload.
func traceClosed(r *result, p *closedParams, seed uint64, seconds float64) {
	lr, err := traceClosedRun(r, p, seed, seconds, msConfig, false)
	if err != nil {
		r.fail("%v", err)
		return
	}
	reportLayers(r, lr)
	if p == allocHeavy {
		printLedger(lr, r)
	}
}

// traceClosedRun runs the traced pass of a closed loop with the given
// protected configuration (tenant selects a fleet tenant's knobs) and
// returns what it collected.
func traceClosedRun(r *result, p *closedParams, seed uint64, seconds float64, cfg minesweeper.Config, tenant bool) (*layerRun, error) {
	x, err := newClosed(p, seed, spec{cfg: cfg, traced: true, tenant: tenant}, r)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer x.close()
	b, err := newClosed(p, seed, spec{cfg: baseConfig}, r)
	if err != nil {
		return nil, fmt.Errorf("baseline setup: %w", err)
	}
	defer b.close()

	lr := &layerRun{ms: newTracer(p.timedPeriod), base: newTracer(p.timedPeriod), st0: x.tg.heap.Stats()}
	var un, tr interleaved
	gc0 := readGoRuntime()
	start := time.Now()
	for i := 0; time.Since(start) < time.Duration(seconds*float64(time.Second)); i++ {
		if i%2 == 0 {
			x.m.tr, b.m.tr = nil, nil
			un.pair(x, b)
			continue
		}
		x.m.tr, b.m.tr = lr.ms, lr.base
		ph, bp := tr.pair(x, b)
		lr.ms.elapsed += ph.wall
		lr.base.elapsed += bp.wall
		lr.ops += ph.ops
	}
	x.m.tr, b.m.tr = nil, nil
	lr.gc = readGoRuntime().since(gc0)
	lr.st1 = x.tg.heap.Stats()
	lr.recs = x.tg.reg.Ring().Snapshot()
	lr.gov = x.tg.governor()
	lr.ptrs = x.heapPointers()
	r.Attempted += x.ops
	lr.allOps = x.ops
	checkSums(r, x, b)
	lr.overheadRatio = un.wallRatio()
	tw, _, tu := tr.ms.total()
	uw, _, uu := un.ms.total()
	lr.untracedRate = div(float64(uu), uw.Seconds())
	lr.traceOverhead = div(tw.Seconds()/float64(tu), uw.Seconds()/float64(uu)) - 1
	if path, err := lr.ms.writeSpans(fmt.Sprintf("%s-%d", r.Workload, r.Seed)); err == nil {
		fmt.Println("spans written to", path)
	}
	return lr, nil
}

// heapPointers reads every word of the live objects (up to maxProbePtrs)
// and returns those that hold heap addresses.
func (x *closedExec) heapPointers() []uint64 {
	var ptrs []uint64
	for s, alive := range x.gen.alive {
		if !alive {
			continue
		}
		a := x.addr[s]
		for w := uint64(0); w < uint64(x.gen.size[s])/8; w++ {
			if v, err := x.m.load(a + 8*w); err == nil && mem.IsHeapAddr(v) {
				ptrs = append(ptrs, v)
			}
			if len(ptrs) >= maxProbePtrs {
				return ptrs
			}
		}
	}
	return ptrs
}

// printLedger splits one alloc-heavy op into the layer calls it makes,
// against the op's measured untraced host time. Reported, not gated.
func printLedger(lr *layerRun, r *result) {
	t := lr.ms
	ops := float64(t.calls[lOp])
	perOp := 1e9 / lr.untracedRate
	fmt.Println("layer ledger, one alloc-heavy op (traced self times, untraced total):")
	var sum float64
	row := func(name string, ns float64) {
		sum += ns
		fmt.Printf("  %-34s %9.1f ns  %5.1f%%\n", name, ns, 100*ns/perOp)
	}
	for _, l := range []layer{lMalloc, lFree, lLoad, lStore} {
		row(fmt.Sprintf("%s (%.3f calls/op)", layerNames[l], float64(t.calls[l])/ops), t.meanNs(l)*float64(t.calls[l])/ops)
	}
	row("bench.op self (inputs, checks)", t.meanNs(lOp))
	drain := r.Metrics["quarantine.drain_ns_per_entry"].Value * float64(t.calls[lFree]) / ops
	fmt.Printf("  %-34s %9.1f ns  (inside core.Free)\n", "  of which quarantine drain", drain)
	var sweepNs float64
	for _, rec := range lr.recs {
		sweepNs += float64(rec.TotalNanos)
	}
	fmt.Printf("  %-34s %9.1f ns  (on the sweeper, not the op's path)\n", "sweep wall per op", sweepNs/float64(lr.allOps))
	fmt.Printf("  %-34s %9.1f ns  %5.1f%%\n", "unattributed remainder", perOp-sum, 100*(perOp-sum)/perOp)
	fmt.Printf("  %-34s %9.1f ns\n", "measured untraced op", perOp)
	fmt.Println("  (a negative remainder is what timing the calls adds to them; see trace.overhead_share)")
}

// traceServer is the server's traced pass: the slice pairs of runServer at
// the nominal rate, every other pair traced on both sides.
func traceServer(r *result, seed uint64, seconds float64) {
	s, err := newServer(seed, spec{cfg: serverConfig, traced: true}, r)
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	defer s.close()
	b, err := newServer(seed, spec{cfg: baseConfig}, r)
	if err != nil {
		r.fail("baseline setup: %v", err)
		return
	}
	defer b.close()

	lr := &layerRun{st0: s.tg.heap.Stats()}
	msTr := make([]*tracer, len(s.gens))
	baseTr := make([]*tracer, len(b.gens))
	for i := range msTr {
		msTr[i] = newTracer(serverCfg.timedPeriod)
		baseTr[i] = newTracer(serverCfg.timedPeriod)
	}
	attach := func(on bool) {
		for i := range s.gens {
			s.gens[i].m.tr, b.gens[i].m.tr = nil, nil
			if on {
				s.gens[i].m.tr, b.gens[i].m.tr = msTr[i], baseTr[i]
			}
		}
	}
	var un, tr interleaved
	var msWall, baseWall time.Duration
	gc0 := readGoRuntime()
	start := time.Now()
	for i := 0; time.Since(start) < time.Duration(seconds*float64(time.Second)); i++ {
		attach(i%2 == 1)
		if i%2 == 0 {
			un.pairServer(s, b)
			continue
		}
		ms, base := tr.pairServer(s, b)
		msWall += ms.wall
		baseWall += base.wall
		lr.ops += ms.reqs
	}
	attach(false)
	lr.gc = readGoRuntime().since(gc0)
	lr.st1 = s.tg.heap.Stats()
	lr.recs = s.tg.reg.Ring().Snapshot()
	lr.gov = s.tg.governor()
	lr.ms, lr.base = msTr[0], baseTr[0]
	for i := 1; i < len(msTr); i++ {
		lr.ms.merge(msTr[i])
		lr.base.merge(baseTr[i])
	}
	lr.ms.elapsed, lr.base.elapsed = msWall, baseWall
	for _, x := range s.gens {
		lr.ptrs = append(lr.ptrs, x.heapPointers()...)
	}
	n, _ := checkServers(r, s, b)
	r.Attempted += n
	lr.allOps = n
	lr.overheadRatio = un.latRatio()
	p50u, p50t := un.ms.pooled(0.5), tr.ms.pooled(0.5)
	lr.traceOverhead = div(p50t, p50u) - 1
	r.note("trace.req_p50_us_untraced", p50u, "us")
	r.note("trace.req_p50_us_traced", p50t, "us")
	if path, err := lr.ms.writeSpans(fmt.Sprintf("%s-%d", r.Workload, r.Seed)); err == nil {
		fmt.Println("spans written to", path)
	}
	reportLayers(r, lr)
}

// heapPointers reads the cache table, the sessions and every cached node's
// header words, and returns those that hold heap addresses.
func (x *serverExec) heapPointers() []uint64 {
	var ptrs []uint64
	add := func(a uint64, words int) {
		for w := 0; w < words; w++ {
			if v, err := x.m.load(a + 8*uint64(w)); err == nil && mem.IsHeapAddr(v) {
				ptrs = append(ptrs, v)
			}
		}
	}
	add(x.table, x.gen.p.entries)
	for _, nodes := range x.entries {
		for _, a := range nodes {
			add(a, 3)
		}
	}
	return ptrs
}

// tenantProbe is a fleet tenant's heap shape for the fleet's traced pass:
// Host does not expose its tenants, so the per-heap layers are measured on
// one tenant-shaped heap the benchmark drives itself, with a tenant-sized
// live set and a tenant's share of the host budget.
var tenantProbe = &closedParams{
	name: "fleet-tenant", liveObjects: 4000, minSize: 16, maxSize: 1024,
	allocShare: 0.5, linkShare: 0.8, unlinkShare: 0.9,
	plantEvery: 1024, probes: 16, timedPeriod: 16,
}

// traceFleet is the fleet's traced pass: the host untraced and traced at the
// tick level, the arbiter and tenant admission timed on their own, and the
// per-heap layers on a tenant-shaped probe heap.
func traceFleet(r *result, seed uint64, seconds float64) {
	quarter := time.Duration(seconds / 4 * float64(time.Second))
	h, err := fleet.NewHost(fleetConfig(seed))
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	un, err := stepFleet(h, quarter, nil)
	if err != nil {
		r.fail("fleet: %v", err)
	}
	h, err = fleet.NewHost(fleetConfig(seed))
	if err != nil {
		r.fail("traced setup: %v", err)
		return
	}
	var adds []float64
	var added []int
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		id, err := h.AddTenant(fleetConfig(seed).Classes[0])
		adds = append(adds, float64(time.Since(t0))/1e6)
		if err != nil {
			r.fail("AddTenant: %v", err)
			continue
		}
		added = append(added, id)
	}
	for _, id := range added {
		if err := h.RemoveTenant(id); err != nil {
			r.fail("RemoveTenant: %v", err)
		}
	}
	ttr := newTracer(1)
	tr, err := stepFleet(h, quarter, ttr)
	if err != nil {
		r.fail("traced fleet: %v", err)
	}
	ttr.elapsed = tr.wall
	ttr.printSelf("fleet host, tick self time")
	if un.rep != nil {
		r.Attempted += checkFleet(r, un.rep)
	}
	if tr.rep != nil {
		r.Attempted += checkFleet(r, tr.rep)
		r.note("fleet.rebalance_us", arbiterProbe(tr.rep), "us")
	}
	r.note("fleet.add_tenant_ms", median(adds), "ms")
	r.note("fleet.tick_p50_ms_untraced", quantile(un.ticks, 0.5)/1e3, "ms")
	r.note("fleet.tick_p50_ms_traced", quantile(tr.ticks, 0.5)/1e3, "ms")

	budget := uint64(fleetBudget) / uint64(fleetConfig(seed).Tenants())
	lr, err := traceClosedRun(r, tenantProbe, seed, seconds/2,
		minesweeper.Config{Scheme: msConfig.Scheme, MemoryBudget: budget}, true)
	if err != nil {
		r.fail("tenant probe: %v", err)
		return
	}
	reportLayers(r, lr)
}

// arbiterProbe times Arbiter.Rebalance over a fleet of the report's shape,
// each tenant at its peak footprint, and returns the median in us.
func arbiterProbe(rep *fleet.Report) float64 {
	cls := map[string]fleet.Class{}
	for _, c := range fleetConfig(0).Classes {
		cls[c.Name] = c
	}
	a := fleet.NewArbiter(rep.HostBudget, 3)
	rss := map[int]uint64{}
	for _, t := range rep.Tenants {
		c := cls[t.Class]
		if err := a.Admit(t.ID, c.Floor, c.Weight, c.Priority); err != nil {
			continue
		}
		rss[t.ID] = t.PeakRSS
	}
	var xs []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		a.Rebalance(func(id int) uint64 { return rss[id] })
		xs = append(xs, float64(time.Since(t0))/1e3)
	}
	return median(xs)
}
