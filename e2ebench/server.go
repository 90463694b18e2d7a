package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"
	"syscall"
	"time"

	"minesweeper"
)

// The server workload: two generator threads, each owning a mutator, issue
// Poisson arrivals open-loop. A request reads session objects and one cache
// entry, builds a response graph, stores it in a long-lived cache table and
// frees the graph it evicts.
const serverGenerators = 2

var serverCfg = &serverParams{
	sessions: 256, sessWords: 32, entries: 1024,
	minNodes: 8, maxNodes: 40, minSize: 32, maxSize: 4096, timedPeriod: 8,
}

const (
	// serverBudget is the fixed MemoryBudget that attaches the AIMD
	// governor. It sits above the unbounded peak (about 54 MiB): layers.json
	// records why a budget below it does not give a steady workload.
	serverBudget = 80 << 20
	// nominalRPS is each generator's nominal arrival rate.
	nominalRPS = 500
	// Every plantEvery-th request keeps a pointer to the response it is
	// about to free in one of probeSlots words of a long-lived object; the
	// pointer is read, and the word reused, probeSlots plants later.
	plantEvery = 32
	probeSlots = 16
)

// ladder is the rates, as multiples of nominalRPS, above the nominal one at
// which the run looks for the highest rate that meets sloP99.
var ladder = []float64{2, 3, 4, 6, 8}

var serverConfig = minesweeper.Config{Scheme: minesweeper.SchemeMineSweeperMostlyConcurrent, MemoryBudget: serverBudget}

// serverExec is one generator thread and the objects it owns.
type serverExec struct {
	gi  int
	gen *reqGen
	m   mut
	r   *result

	sess    []uint64   // session objects
	table   uint64     // cache table: one root pointer per entry
	entries [][]uint64 // node addresses of each cached response
	spare   []uint64   // backing for the next response's node list
	q       request
	pending bool // q was generated but not yet served

	baseline bool
	probe    uint64   // long-lived object holding planted dangling pointers
	planted  []uint64 // the pointer in each probe word, 0 if none

	sum    uint64 // checksum of every value loaded from a live object
	reqs   uint64
	checks uint64 // dangling-pointer reads made
}

func (x *serverExec) storeOK(addr, v uint64) {
	if err := x.m.store(addr, v); err != nil {
		x.r.fail("store: %v", err)
	}
}

func (x *serverExec) loadOK(addr, want uint64) uint64 {
	v, err := x.m.load(addr)
	if err != nil || (want != 0 && v != want) {
		x.r.fail("generator %d load %#x: got %#x err %v, want %#x", x.gi, addr, v, err, want)
	}
	return v
}

// serve runs one request to completion.
func (x *serverExec) serve(q *request) {
	p := x.gen.p
	for i := 0; i < q.nsess; i++ {
		s := int(q.sessions[i])
		w := 1 + (int(q.sessWord)+i)%(p.sessWords-1)
		x.sum = (x.sum ^ x.loadOK(x.sess[s]+8*uint64(w), sessWord(x.gi, s, w))) * 0x100000001b3
	}
	if q.hitTag != 0 {
		old := x.entries[q.hit]
		root := x.loadOK(x.table+8*uint64(q.hit), old[0])
		x.sum = (x.sum ^ x.loadOK(root, q.hitTag)) * 0x100000001b3
	}
	evict := x.entries[q.entry]
	nodes := x.spare[:0]
	for i, sz := range q.sizes {
		a, err := x.m.malloc(uint64(sz))
		if err != nil {
			x.r.fail("malloc(%d): %v", sz, err)
			return
		}
		x.storeOK(a, nodeTag(q.seed, i))
		x.storeOK(a+8, 0)
		x.storeOK(a+16, 0)
		if i > 0 {
			x.storeOK(nodes[(i-1)/2]+8*uint64(1+(i-1)%2), a)
		}
		nodes = append(nodes, a)
	}
	x.storeOK(x.table+8*uint64(q.entry), nodes[0])
	x.storeOK(x.sess[q.sessions[0]], q.seed)
	if len(evict) > 0 && x.reqs%plantEvery == 0 {
		x.plant(evict[0])
	}
	for _, a := range evict {
		if err := x.m.free(a, 0); err != nil {
			x.r.fail("free(%#x): %v", a, err)
		}
	}
	x.entries[q.entry], x.spare = nodes, evict
	x.reqs++
}

// plant stores a, the root of a response about to be freed, in a probe
// word: a store into long-lived heap memory, which in mostly-concurrent mode
// dirties a page that the sweep's stop-the-world re-scan must then find.
// First it reads through the pointer the word held, planted probeSlots
// plants ago: under protection it must read 0 (zeroed on free, still
// quarantined because the word pointed at it) or fault (unmapped), never a
// later allocation's data. The baseline makes the same stores but no read.
func (x *serverExec) plant(a uint64) {
	k := x.reqs / plantEvery % probeSlots
	if old := x.planted[k]; old != 0 && !x.baseline {
		x.checks++
		if v, err := x.m.load(old); err == nil && v != 0 {
			x.r.fail("generator %d: dangling pointer %#x read %#x: later allocation's data", x.gi, old, v)
		}
	}
	x.storeOK(x.probe+8*k, a)
	x.planted[k] = a
}

// newServerExec builds generator gi's sessions and cache table on th and
// fills every cache entry once.
func newServerExec(gi int, th thread, seed uint64, baseline bool, r *result) (*serverExec, error) {
	p := serverCfg
	x := &serverExec{gi: gi, gen: newReqGen(p, seed, gi), m: mut{th: th}, r: r,
		entries: make([][]uint64, p.entries), baseline: baseline, planted: make([]uint64, probeSlots)}
	probe, err := th.Malloc(8 * probeSlots)
	if err != nil {
		return nil, err
	}
	x.probe = probe
	for k := 0; k < probeSlots; k++ {
		x.storeOK(probe+8*uint64(k), 0)
	}
	for s := 0; s < p.sessions; s++ {
		a, err := th.Malloc(uint64(8 * p.sessWords))
		if err != nil {
			return nil, err
		}
		for w := 0; w < p.sessWords; w++ {
			x.storeOK(a+8*uint64(w), sessWord(gi, s, w))
		}
		x.sess = append(x.sess, a)
	}
	t, err := th.Malloc(uint64(8 * p.entries))
	if err != nil {
		return nil, err
	}
	x.table = t
	for e := 0; e < p.entries; e++ {
		x.storeOK(t+8*uint64(e), 0)
	}
	for e := 0; e < p.entries; e++ {
		x.gen.next(&x.q, e)
		x.serve(&x.q)
	}
	x.reqs = 0
	return x, nil
}

// server is a whole server process: the target and its generators.
type server struct {
	tg   *target
	gens []*serverExec
}

func newServer(seed uint64, sp spec, r *result) (*server, error) {
	tg, err := newTarget(sp)
	if err != nil {
		return nil, err
	}
	s := &server{tg: tg}
	// Each generator is built on this goroutine, then parked until its
	// own goroutine runs it.
	for gi := 0; gi < serverGenerators; gi++ {
		th, err := tg.newThread(seed + uint64(gi)*1e9)
		if err != nil {
			s.close()
			return nil, err
		}
		x, err := newServerExec(gi, th, seed, sp.cfg.Scheme == minesweeper.SchemeBaseline, r)
		if err != nil {
			th.Close()
			s.close()
			return nil, err
		}
		s.gens = append(s.gens, x)
		tg.park()
	}
	return s, nil
}

func (s *server) close() {
	for _, x := range s.gens {
		s.tg.unpark()
		x.m.th.Close()
	}
	s.tg.close()
}

// rung is what one open-loop stretch at one rate measured.
type rung struct {
	rate    float64 // total arrivals per second, all generators
	lat     []float64
	late    []float64 // generator lateness after a wait, microseconds
	backlog bool      // requests at the end of the stretch started more than sloP99 late
	reqs    uint64
	wall    time.Duration
	cpu     time.Duration
}

// openLoop runs every generator at rate per generator for d. Latency is
// timed from each request's due time, so a stall also charges the requests
// queued behind it.
func (s *server) openLoop(rate float64, d time.Duration) rung {
	rg := rung{rate: rate * float64(len(s.gens))}
	type out struct {
		lat, late []float64
		tail      []float64
		n         uint64
	}
	outs := make([]out, len(s.gens))
	cpu0 := cpuTime()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i, x := range s.gens {
		wg.Add(1)
		go func(x *serverExec, o *out) {
			defer wg.Done()
			s.tg.unpark()
			defer s.tg.park()
			due := start
			for {
				if !x.pending {
					x.gen.next(&x.q, -1)
					x.pending = true
				}
				due = due.Add(time.Duration(x.q.gap / rate * 1e9))
				if due.After(end) {
					return
				}
				now := time.Now()
				if wait := due.Sub(now); wait > 0 {
					// A raw nanosleep: Go's timers wake on the netpoller's
					// millisecond clock, which would put the host's timer
					// granularity into every latency.
					ts := syscall.NsecToTimespec(int64(wait))
					s.tg.park()
					_ = syscall.Nanosleep(&ts, nil) // an early wake-up only serves the request early
					s.tg.unpark()
					now = time.Now()
					o.late = append(o.late, float64(now.Sub(due))/1e3)
				}
				if now.Sub(start) > d*3/4 {
					o.tail = append(o.tail, float64(now.Sub(due)))
				}
				x.pending = false
				if x.m.tr != nil {
					sp := x.m.tr.begin(lRequest, x.reqs)
					x.m.req = x.reqs
					x.serve(&x.q)
					x.m.tr.end(lRequest, sp)
				} else {
					x.serve(&x.q)
				}
				done := time.Now()
				o.lat = append(o.lat, float64(done.Sub(due))/1e3)
				o.n++
			}
		}(x, &outs[i])
	}
	wg.Wait()
	rg.wall = time.Since(start)
	rg.cpu = cpuTime() - cpu0
	var tail []float64
	for _, o := range outs {
		rg.lat = append(rg.lat, o.lat...)
		rg.late = append(rg.late, o.late...)
		tail = append(tail, o.tail...)
		rg.reqs += o.n
	}
	rg.backlog = median(tail) > float64(sloP99)
	return rg
}

// pairServer runs one slice pair: the protected server s at the nominal rate for
// sliceLen, then the baseline server b for as long on its own copy of the
// same requests, each followed by settle. It records the pair in iv and
// returns both stretches.
func (iv *interleaved) pairServer(s, b *server) (ms, base rung) {
	ms = s.openLoop(nominalRPS, sliceLen)
	ms.cpu += iv.settle()
	base = b.openLoop(nominalRPS, sliceLen)
	base.cpu += iv.settle()
	iv.add(window{wall: ms.wall, cpu: ms.cpu, units: ms.reqs, lat: ms.lat},
		window{wall: base.wall, cpu: base.cpu, units: base.reqs, lat: base.lat})
	return ms, base
}

// checkServers fails the run if a generator of s served other requests or
// loaded other values than its twin in b, or if s made no dangling-pointer
// read. It returns the requests s served and the dangling reads it made.
func checkServers(r *result, s, b *server) (n, checks uint64) {
	for gi, x := range s.gens {
		y := b.gens[gi]
		n += x.reqs
		checks += x.checks
		if x.reqs != y.reqs || x.sum != y.sum {
			r.fail("generator %d: checksum of loaded values %#x under minesweeper over %d requests, %#x under baseline over %d",
				gi, x.sum, x.reqs, y.sum, y.reqs)
		}
	}
	if checks == 0 {
		r.fail("no dangling-pointer checks ran")
	}
	return n, checks
}

// runServer alternates the protected server and an unprotected baseline
// server, each with its own copy of the request stream, in slices at the
// nominal rate, then climbs the rate ladder on the protected one.
func runServer(r *result, seed uint64, seconds float64) {
	s, setup, err := timeSetup(func() (*server, error) { return newServer(seed, spec{cfg: serverConfig, direct: true}, r) },
		func(s *server) { s.close() })
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	defer s.close()
	goHeap := goHeapMiB()
	b, err := newServer(seed, spec{cfg: baseConfig}, r)
	if err != nil {
		r.fail("baseline setup: %v", err)
		return
	}
	defer b.close()

	total := time.Duration(seconds * float64(time.Second))
	var iv interleaved
	var lat, late []float64
	var backlog bool
	stop := iv.watch(s.tg.footprint, b.tg.footprint)
	start := time.Now()
	for time.Since(start) < total*7/10 {
		ms, _ := iv.pairServer(s, b)
		lat = append(lat, ms.lat...)
		late = append(late, ms.late...)
		backlog = backlog || ms.backlog
	}
	stop()
	n, checks := checkServers(r, s, b)
	r.Attempted += n

	step := total * 3 / 10 / time.Duration(len(ladder))
	best := 0.0
	if quantile(lat, 0.99) <= float64(sloP99/time.Microsecond) && !backlog {
		best = nominalRPS * serverGenerators
		for _, m := range ladder {
			rg := s.openLoop(nominalRPS*m, step)
			r.Attempted += rg.reqs
			ok := quantile(rg.lat, 0.99) <= float64(sloP99/time.Microsecond) && !rg.backlog
			fmt.Printf("ladder %.0f req/s: p99 %.1f us backlog %v (%d requests)\n", rg.rate, quantile(rg.lat, 0.99), rg.backlog, len(rg.lat))
			if !ok {
				break
			}
			best = rg.rate
		}
	}
	st := s.tg.heap.Stats()
	iv.set(r, setup, goHeap, iv.latRatio())
	r.note("ops_per_s", iv.ms.rate(), "1/s")
	r.note("cpu_ns_per_op", iv.ms.cpuPerUnit(), "ns")
	r.note("req_p50_us", quantile(lat, 0.5), "us")
	r.note("req_p99_us", quantile(lat, 0.99), "us")
	r.note("req_samples", float64(len(lat)), "count")
	r.note("max_rps_at_slo", best, "1/s")
	r.note("slo_p99_us", float64(sloP99/time.Microsecond), "us")
	r.note("gen_late_p99_us", quantile(late, 0.99), "us")
	r.note("rss_over_budget", iv.peak*(1<<20)/float64(serverBudget), "x")
	r.note("dangling_checks", float64(checks), "count")
	r.note("sweeps", float64(st.Sweeps), "count")
	r.note("pause_ms", float64(st.PauseNanos)/1e6, "ms")
	r.note("stw_ms", float64(st.STWCycles)/1e6, "ms")
	fmt.Printf("nominal %d req/s offered in %d slice pairs, %d sweeps, %d dangling reads, checksums match\n",
		nominalRPS*serverGenerators, len(iv.ms.ws), st.Sweeps, checks)
}

// sloP99 is the p99 latency limit max_rps_at_slo is judged against, fixed
// in layers.json.
var sloP99 = time.Duration(rationale.SLOP99us) * time.Microsecond

//go:embed layers.json
var layersJSON []byte

// rationale is the part of layers.json the benchmark itself reads.
var rationale = func() (v struct {
	HeldOutSeed uint64  `json:"held_out_seed"`
	SLOP99us    float64 `json:"slo_p99_us"`
}) {
	if err := json.Unmarshal(layersJSON, &v); err != nil || v.SLOP99us <= 0 {
		panic(fmt.Sprintf("e2ebench: layers.json: %v", err))
	}
	return v
}()
