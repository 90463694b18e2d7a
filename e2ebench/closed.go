package main

import (
	"fmt"
	"time"

	"minesweeper"
)

// allocHeavy: tiny objects, allocation on nearly every op, a 10^5-object
// live set with mixed lifetimes, most objects linked from a heap parent.
var allocHeavy = &closedParams{
	name: "alloc-heavy", liveObjects: 100_000, minSize: 16, maxSize: 160,
	allocShare: 0.95, linkShare: 0.8, unlinkShare: 0.9,
	plantEvery: 4096, probes: 64, timedPeriod: 16,
}

// bigHeap: a pointer-dense live heap of 1-4 KiB objects and a tenth of
// extent-backed 64-256 KiB ones (2% of allocations), half of them permanent, allocation on 1% of
// ops and loads and stores on the rest.
var bigHeap = &closedParams{
	name: "big-heap", liveBytes: 128 << 20, minSize: 1 << 10, maxSize: 4 << 10,
	largeShare: 0.02, largeMin: 64 << 10, largeMax: 256 << 10,
	allocShare: 0.01, permShare: 0.5, dataEvery: 8, linkShare: 0.8, unlinkShare: 0.95,
	plantEvery: 4096, probes: 64, timedPeriod: 16,
}

// batchOps is the unit of work whose time the closed loops report as
// latency, and how often they look at the clock.
const batchOps = 1024

// closedExec runs a closed-loop op stream against one target.
type closedExec struct {
	p        *closedParams
	tg       *target
	gen      *closedGen
	m        mut
	baseline bool
	r        *result

	addr  []uint64 // address per slot
	perm  []uint64 // addresses of permanent objects, in creation order
	probe []uint64 // planted dangling pointers
	buf   []op
	at    int

	sum    uint64 // checksum of every value loaded from a live object
	ops    uint64
	checks uint64 // dangling-pointer reads made
}

func (x *closedExec) next() *op {
	if x.at == len(x.buf) {
		x.buf = x.gen.fill(x.buf)
		x.at = 0
	}
	o := &x.buf[x.at]
	x.at++
	return o
}

func (x *closedExec) exec(o *op) {
	m := &x.m
	switch o.kind {
	case opAlloc:
		a, err := m.malloc(uint64(o.size))
		if err != nil {
			x.r.fail("malloc(%d): %v", o.size, err)
			return
		}
		for int(o.slot) >= len(x.addr) {
			x.addr = append(x.addr, 0)
		}
		x.addr[o.slot] = a
		x.check(m.store(a, o.val))
		x.check(m.store(a+8, 0))
		x.fillObject(a, o)
		if o.perm {
			x.perm = append(x.perm, a)
		}
		if o.par != 0 {
			x.check(m.store(x.addr[o.par-1]+8, a))
		}
	case opFree, opPlant:
		a := x.addr[o.slot]
		if o.kind == opPlant {
			x.check(m.store(x.tg.global(int(o.word)), a))
			x.probe[o.word] = a
		}
		if o.par != 0 {
			x.check(m.store(x.addr[o.par-1]+8, 0))
		}
		if err := m.free(a, uint64(o.size)); err != nil {
			x.r.fail("free(%#x): %v", a, err)
		}
	case opLoad:
		v, err := m.load(x.addr[o.slot] + 8*uint64(o.word))
		if err != nil || v != o.val {
			x.r.fail("load of live object slot %d word %d: got %#x err %v, want %#x", o.slot, o.word, v, err, o.val)
		}
		x.sum = (x.sum ^ v) * 0x100000001b3
	case opStore:
		x.check(m.store(x.addr[o.slot]+8*uint64(o.word), o.val))
	case opCheck:
		if !x.baseline {
			// The paper's invariant: a dangling pointer kept in program
			// memory reads 0 (zero-on-free, the chunk still quarantined)
			// or faults (unmapped), never a later allocation's data.
			x.checks++
			if v, err := m.load(x.probe[o.word]); err == nil && v != 0 {
				x.r.fail("dangling pointer %#x read %#x: later allocation's data", x.probe[o.word], v)
			}
		}
		x.check(m.store(x.tg.global(int(o.word)), 0))
	}
}

func (x *closedExec) check(err error) {
	if err != nil {
		x.r.fail("store: %v", err)
	}
}

// fillObject writes a new object's data words, and in every dataEvery words
// one pointer to a permanent object: the pointer density sweeps scan.
func (x *closedExec) fillObject(a uint64, o *op) {
	if x.p.dataEvery == 0 {
		return
	}
	words := o.size / 8
	for i := x.p.dataEvery; i < words; i += x.p.dataEvery {
		x.check(x.m.store(a+8*uint64(i), dataWord(o.val, i)))
		if j := i + x.p.dataEvery - 1; j < words && len(x.perm) > 0 {
			x.check(x.m.store(a+8*uint64(j), x.perm[dataWord(o.val, j)%uint64(len(x.perm))]))
		}
	}
}

// newClosed builds a target, fills its initial live set and returns the
// executor positioned at the first timed op.
func newClosed(p *closedParams, seed uint64, sp spec, r *result) (*closedExec, error) {
	tg, err := newTarget(sp)
	if err != nil {
		return nil, err
	}
	th, err := tg.newThread(seed)
	if err != nil {
		tg.close()
		return nil, err
	}
	x := &closedExec{p: p, tg: tg, gen: newClosedGen(p, seed), m: mut{th: th},
		baseline: sp.cfg.Scheme == minesweeper.SchemeBaseline, r: r,
		probe: make([]uint64, p.probes), buf: make([]op, 0, 4096)}
	for {
		o := x.next()
		if o.kind == opSetupDone {
			return x, nil
		}
		x.exec(o)
	}
}

func (x *closedExec) close() {
	x.m.th.Close()
	x.tg.close()
}

// phase is what one timed stretch of a closed loop measured.
type phase struct {
	ops     uint64
	wall    time.Duration
	cpu     time.Duration // process user+system CPU
	batches []float64     // wall time of each batch of batchOps ops, microseconds
}

// runOps runs the stream until d has passed (d > 0) or the executor has
// done n ops in all (n > 0).
func (x *closedExec) runOps(d time.Duration, n uint64) phase {
	var ph phase
	cpu0 := cpuTime()
	ops0 := x.ops
	start := time.Now()
	last := start
	for {
		for i := 0; i < batchOps; i++ {
			if n > 0 && x.ops >= n {
				break
			}
			o := x.next()
			if x.m.tr != nil {
				s := x.m.tr.begin(lOp, x.ops)
				x.exec(o)
				x.m.tr.end(lOp, s)
			} else {
				x.exec(o)
			}
			x.ops++
		}
		now := time.Now()
		ph.batches = append(ph.batches, float64(now.Sub(last))/1e3)
		last = now
		if (d > 0 && now.Sub(start) >= d) || (n > 0 && x.ops >= n) {
			break
		}
	}
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.ops = x.ops - ops0
	return ph
}

var msConfig = minesweeper.Config{Scheme: minesweeper.SchemeMineSweeper}
var baseConfig = minesweeper.Config{Scheme: minesweeper.SchemeBaseline}

// sliceLen is how long the protected side of an interleaved run goes before
// the baseline replays the same inputs (server: serves its own copy of the
// same requests for as long).
const sliceLen = 250 * time.Millisecond

// pair runs one slice pair: the protected executor x for sliceLen, then the
// baseline b for exactly the ops x has run, each followed by settle. It
// records the pair in iv and returns both phases.
func (iv *interleaved) pair(x, b *closedExec) (ph, bp phase) {
	ph = x.runOps(sliceLen, 0)
	ph.cpu += iv.settle()
	bp = b.runOps(0, x.ops)
	bp.cpu += iv.settle()
	iv.add(window{wall: ph.wall, cpu: ph.cpu, units: ph.ops, lat: ph.batches},
		window{wall: bp.wall, cpu: bp.cpu, units: bp.ops, lat: bp.batches})
	return ph, bp
}

// checkSums fails the run if x and b loaded different values, or if x made
// no dangling-pointer read.
func checkSums(r *result, x, b *closedExec) {
	if x.checks == 0 {
		r.fail("no dangling-pointer checks ran")
	}
	if x.sum != b.sum || x.ops != b.ops {
		r.fail("checksum of loaded values %#x under minesweeper over %d ops, %#x under baseline over %d", x.sum, x.ops, b.sum, b.ops)
	}
}

// runClosed alternates the protected process and an unprotected baseline
// process over the same op stream: the protected one runs a slice, then the
// baseline runs exactly the ops the slice ran, so both see the same host.
func runClosed(r *result, p *closedParams, seed uint64, seconds float64) {
	x, setup, err := timeSetup(func() (*closedExec, error) { return newClosed(p, seed, spec{cfg: msConfig}, r) },
		func(x *closedExec) { x.close() })
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	defer x.close()
	goHeap := goHeapMiB()
	b, err := newClosed(p, seed, spec{cfg: baseConfig}, r)
	if err != nil {
		r.fail("baseline setup: %v", err)
		return
	}
	defer b.close()

	var iv interleaved
	stop := iv.watch(x.tg.footprint, b.tg.footprint)
	start := time.Now()
	var batches []float64
	for time.Since(start) < time.Duration(seconds*float64(time.Second)) {
		ph, _ := iv.pair(x, b)
		batches = append(batches, ph.batches...)
	}
	stop()
	st := x.tg.proc.Stats()
	r.Attempted += x.ops
	checkSums(r, x, b)
	iv.set(r, setup, goHeap, iv.wallRatio())
	r.note("ops_per_s", iv.ms.rate(), "1/s")
	r.note("cpu_ns_per_op", iv.ms.cpuPerUnit(), "ns")
	r.note("batch_p50_us", quantile(batches, 0.5), "us")
	r.note("batch_p99_us", quantile(batches, 0.99), "us")
	r.note("batch_samples", float64(len(batches)), "count")
	r.note("sweeps", float64(st.Sweeps), "count")
	r.note("dangling_checks", float64(x.checks), "count")
	r.note("uaf_faults", float64(st.UAFFaults), "count")
	fmt.Printf("%d ops in %d slice pairs, %d sweeps, %d dangling reads, checksum %#x on both sides\n",
		x.ops, len(iv.ms.ws), st.Sweeps, x.checks, x.sum)
}
