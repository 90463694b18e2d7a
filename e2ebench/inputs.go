package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// rng is splitmix64: the benchmark's only source of input randomness, so a
// seed fixes every input byte.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int        { return int(r.next() % uint64(n)) }
func (r *rng) float() float64        { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) chance(p float64) bool { return r.float() < p }

// logUniform draws a size in [lo, hi] with a log-uniform distribution,
// rounded to a multiple of 8.
func (r *rng) logUniform(lo, hi uint64) uint64 {
	v := uint64(math.Exp(math.Log(float64(lo)) + r.float()*(math.Log(float64(hi))-math.Log(float64(lo)))))
	v &^= 7
	if v < lo {
		v = lo
	}
	return v
}

// mix derives a well-spread word from a seed and an index. Results are odd,
// so never zero: a load that reads 0 is always a dangling read, never data.
func mix(a, b uint64) uint64 {
	r := rng{a ^ (b * 0xd6e8feb86659fd93)}
	return r.next() | 1
}

// Op kinds of the closed-loop stream.
const (
	opAlloc uint8 = iota
	opFree
	opLoad
	opStore
	opPlant // store a live object's address in a global, then free it
	opCheck // load through a planted dangling pointer, then clear the global
	opSetupDone
)

// op is one step of a closed-loop input stream. It names objects by slot,
// never by address, so the stream is the same whatever the heap does.
type op struct {
	kind uint8
	perm bool   // alloc: the object is never freed
	word uint32 // load/store: word index; plant/check: probe index
	slot uint32
	par  uint32 // alloc: slot+1 of the parent that links it; free/plant: slot+1 of the parent to unlink first
	size uint32
	val  uint64 // alloc: object seed; store: value; load: expected value
}

func (o *op) encode(b []byte) []byte {
	flag := byte(0)
	if o.perm {
		flag = 1
	}
	b = append(b, o.kind, flag)
	b = binary.LittleEndian.AppendUint32(b, o.word)
	b = binary.LittleEndian.AppendUint32(b, o.slot)
	b = binary.LittleEndian.AppendUint32(b, o.par)
	b = binary.LittleEndian.AppendUint32(b, o.size)
	return binary.LittleEndian.AppendUint64(b, o.val)
}

// closedParams shapes a closed-loop workload.
type closedParams struct {
	name        string
	liveObjects int    // live-set size in objects (alloc-heavy)
	liveBytes   uint64 // live-set size in bytes (big-heap)
	minSize     uint64
	maxSize     uint64
	allocShare  float64 // share of ops that allocate, paired with a free once the live set is full
	permShare   float64 // share of the initial objects that are never freed
	linkShare   float64 // share of new objects linked from a heap parent
	unlinkShare float64 // share of frees that clear the parent's link first
	largeShare  float64 // share of allocations drawn from [largeMin, largeMax] instead
	largeMin    uint64
	largeMax    uint64
	dataEvery   uint32 // write one data word (and one pointer word) in every dataEvery words; 0 writes only the header
	plantEvery  int    // ops between dangling-pointer plants
	probes      int    // dangling pointers alive at once (one global slot each)
	timedPeriod uint64 // traced runs time one op in timedPeriod
}

// Object layout: word 0 holds the object's tag, word 1 the link to its
// newest child, words 2.. data (and, in pointer-dense objects, pointers to
// permanent objects).
func dataWord(seed uint64, i uint32) uint64 { return mix(seed, uint64(i)) }

// dataWordAt picks a random data word of an object of the given size, or
// word 0 when it has none.
func (g *closedGen) dataWordAt(size uint32) uint32 {
	if g.p.dataEvery == 0 || size/8 <= g.p.dataEvery {
		return 0
	}
	return g.p.dataEvery * (1 + uint32(g.r.intn(int(size/8/g.p.dataEvery)-1)))
}

// Object lifetime classes: freed last-in-first-out, first-in-first-out, or
// at random.
const (
	clLIFO = iota
	clFIFO
	clRand
	clPerm
)

// closedGen generates a closed-loop op stream. It keeps its own model of the
// live set, so every free and load it emits names a live object.
type closedGen struct {
	p *closedParams
	r rng

	seed   []uint64 // per slot
	tag    []uint64 // current word-0 value
	size   []uint32
	parent []uint32 // slot+1 of the parent holding a link, 0 if none
	child  []uint32 // slot+1 of the newest child linked here
	alive  []bool
	spare  []uint32

	lifo, fifo, bag, perm []uint32
	fifoHead              int

	live      int
	liveBytes uint64
	setup     bool
	ops       int
	nextPlant int
	planted   []bool
	out       []op
}

func newClosedGen(p *closedParams, seed uint64) *closedGen {
	return &closedGen{p: p, r: rng{seed ^ 0x5eed0f1c1005ed}, setup: true, nextPlant: p.plantEvery, planted: make([]bool, p.probes)}
}

func (g *closedGen) full() bool {
	if g.p.liveObjects > 0 {
		return g.live >= g.p.liveObjects
	}
	return g.liveBytes >= g.p.liveBytes
}

func (g *closedGen) newSlot() uint32 {
	if n := len(g.spare); n > 0 {
		s := g.spare[n-1]
		g.spare = g.spare[:n-1]
		return s
	}
	g.seed = append(g.seed, 0)
	g.tag = append(g.tag, 0)
	g.size = append(g.size, 0)
	g.parent = append(g.parent, 0)
	g.child = append(g.child, 0)
	g.alive = append(g.alive, false)
	return uint32(len(g.seed) - 1)
}

// pick returns a random live object of any class.
func (g *closedGen) pick() uint32 {
	nf := len(g.fifo) - g.fifoHead
	n := len(g.lifo) + nf + len(g.bag) + len(g.perm)
	i := g.r.intn(n)
	switch {
	case i < len(g.lifo):
		return g.lifo[i]
	case i < len(g.lifo)+nf:
		return g.fifo[g.fifoHead+i-len(g.lifo)]
	case i < len(g.lifo)+nf+len(g.bag):
		return g.bag[i-len(g.lifo)-nf]
	}
	return g.perm[i-len(g.lifo)-nf-len(g.bag)]
}

func (g *closedGen) alloc() {
	p := g.p
	s := g.newSlot()
	sz := g.r.logUniform(p.minSize, p.maxSize)
	if p.largeShare > 0 && g.r.chance(p.largeShare) {
		sz = g.r.logUniform(p.largeMin, p.largeMax)
	}
	sd := mix(g.r.next(), uint64(s))
	o := op{kind: opAlloc, slot: s, size: uint32(sz), val: sd}
	if g.live > 0 && g.r.chance(p.linkShare) {
		par := g.pick()
		o.par = par + 1
		g.child[par] = s + 1
		g.parent[s] = par + 1
	} else {
		g.parent[s] = 0
	}
	cl := uint8(g.r.intn(3))
	if g.setup && g.r.chance(p.permShare) {
		cl = clPerm
		o.perm = true
	}
	g.seed[s], g.tag[s], g.size[s], g.child[s], g.alive[s] = sd, sd, uint32(sz), 0, true
	switch cl {
	case clLIFO:
		g.lifo = append(g.lifo, s)
	case clFIFO:
		g.fifo = append(g.fifo, s)
	case clRand:
		g.bag = append(g.bag, s)
	default:
		g.perm = append(g.perm, s)
	}
	g.live++
	g.liveBytes += sz
	g.out = append(g.out, o)
}

// victim removes and returns an object to free: the class is drawn in
// proportion to its population, so the lifetime mix stays balanced.
func (g *closedGen) victim() uint32 {
	nf := len(g.fifo) - g.fifoHead
	n := len(g.lifo) + nf + len(g.bag)
	i := g.r.intn(n)
	var s uint32
	switch {
	case i < len(g.lifo):
		s = g.lifo[len(g.lifo)-1]
		g.lifo = g.lifo[:len(g.lifo)-1]
	case i < len(g.lifo)+nf:
		s = g.fifo[g.fifoHead]
		g.fifoHead++
		if g.fifoHead > 4096 && g.fifoHead*2 > len(g.fifo) {
			g.fifo = append(g.fifo[:0], g.fifo[g.fifoHead:]...)
			g.fifoHead = 0
		}
	default:
		j := i - len(g.lifo) - nf
		s = g.bag[j]
		g.bag[j] = g.bag[len(g.bag)-1]
		g.bag = g.bag[:len(g.bag)-1]
	}
	return s
}

// unlinkFor returns slot+1 of the live parent still linking s, if the
// program should clear that link before freeing s.
func (g *closedGen) unlinkFor(s uint32) uint32 {
	par := g.parent[s]
	if par == 0 || !g.alive[par-1] || g.child[par-1] != s+1 || !g.r.chance(g.p.unlinkShare) {
		return 0
	}
	g.child[par-1] = 0
	return par
}

func (g *closedGen) kill(s uint32) {
	g.alive[s] = false
	g.live--
	g.liveBytes -= uint64(g.size[s])
	g.spare = append(g.spare, s)
}

func (g *closedGen) free() {
	s := g.victim()
	g.out = append(g.out, op{kind: opFree, slot: s, par: g.unlinkFor(s), size: g.size[s]})
	g.kill(s)
}

// load reads word 0 or an immutable data word of a random live object.
func (g *closedGen) load() {
	s := g.pick()
	o := op{kind: opLoad, slot: s, val: g.tag[s]}
	if w := g.dataWordAt(g.size[s]); w != 0 && g.r.chance(0.75) {
		o.word, o.val = w, dataWord(g.seed[s], w)
	}
	g.out = append(g.out, o)
}

// store writes a new tag to word 0, or rewrites a data word with its value.
func (g *closedGen) store() {
	s := g.pick()
	if w := g.dataWordAt(g.size[s]); w != 0 && g.r.chance(0.5) {
		g.out = append(g.out, op{kind: opStore, slot: s, word: w, val: dataWord(g.seed[s], w)})
		return
	}
	g.tag[s] = mix(g.tag[s], 0x57)
	g.out = append(g.out, op{kind: opStore, slot: s, val: g.tag[s]})
}

// plant checks the probe in slot k, then plants a fresh one: a random-class
// object whose address is kept in a global root while it is freed.
func (g *closedGen) plant() {
	k := uint32((g.ops / g.p.plantEvery) % g.p.probes)
	if g.planted[k] {
		g.out = append(g.out, op{kind: opCheck, word: k})
	}
	if len(g.bag) == 0 {
		g.planted[k] = false
		return
	}
	j := g.r.intn(len(g.bag))
	s := g.bag[j]
	g.bag[j] = g.bag[len(g.bag)-1]
	g.bag = g.bag[:len(g.bag)-1]
	g.out = append(g.out, op{kind: opPlant, word: k, slot: s, par: g.unlinkFor(s), size: g.size[s]})
	g.kill(s)
	g.planted[k] = true
}

// step appends the next op (an allocation may bring its paired frees).
func (g *closedGen) step() {
	if g.setup {
		if !g.full() {
			g.alloc()
			return
		}
		g.setup = false
		g.out = append(g.out, op{kind: opSetupDone})
		return
	}
	g.ops++
	if g.ops >= g.nextPlant {
		g.nextPlant += g.p.plantEvery
		g.plant()
		return
	}
	x := g.r.float()
	switch {
	case x < g.p.allocShare:
		g.alloc()
		for g.full() {
			g.free()
		}
	case x < g.p.allocShare+(1-g.p.allocShare)/2:
		g.load()
	default:
		g.store()
	}
}

// fill refills buf with the next ops of the stream.
func (g *closedGen) fill(buf []op) []op {
	buf = buf[:0]
	for len(buf) < cap(buf) {
		if len(g.out) == 0 {
			g.step()
		}
		n := copy(buf[len(buf):cap(buf)], g.out)
		buf = buf[:len(buf)+n]
		g.out = g.out[:copy(g.out, g.out[n:])]
	}
	return buf
}

// request is one server request, generated independently of the arrival
// rate: its gap is in units of the mean inter-arrival time.
type request struct {
	gap      float64 // exponential, mean 1
	entry    uint32  // cache entry the response replaces
	hit      uint32  // cache entry read before the response is built
	hitTag   uint64  // expected tag of that entry's root, 0 if empty
	sessions [4]uint16
	nsess    int
	sessWord uint16
	sizes    []uint32 // response graph node sizes
	seed     uint64   // the response's tag seed
}

// serverParams shapes the server workload.
type serverParams struct {
	sessions    int // session objects per generator
	sessWords   int // words per session object
	entries     int // cache entries per generator
	minNodes    int
	maxNodes    int
	minSize     uint64
	maxSize     uint64
	timedPeriod uint64
}

// reqGen generates one generator thread's request stream.
type reqGen struct {
	p       *serverParams
	r       rng
	entryOf []uint64 // current root tag per cache entry
	seq     uint64
}

func newReqGen(p *serverParams, seed uint64, gen int) *reqGen {
	return &reqGen{p: p, r: rng{seed*0x100000001b3 + uint64(gen)*0x9e3779b9 + 0x5e55}, entryOf: make([]uint64, p.entries)}
}

func nodeTag(seed uint64, i int) uint64 { return mix(seed, uint64(i)) }
func sessWord(gen, s, w int) uint64     { return mix(uint64(gen)<<32|uint64(s), uint64(w)) }

// next fills q with the next request. fillEntry forces the cache entry (the
// set-up pass fills each entry once, in order).
func (g *reqGen) next(q *request, fillEntry int) {
	p := g.p
	g.seq++
	q.gap = -math.Log(1 - g.r.float())
	if fillEntry >= 0 {
		q.entry = uint32(fillEntry)
	} else {
		q.entry = uint32(g.r.intn(p.entries))
	}
	q.hit = uint32(g.r.intn(p.entries))
	q.hitTag = 0
	if g.entryOf[q.hit] != 0 {
		q.hitTag = nodeTag(g.entryOf[q.hit], 0)
	}
	q.nsess = 2 + g.r.intn(3)
	for i := 0; i < q.nsess; i++ {
		q.sessions[i] = uint16(g.r.intn(p.sessions))
	}
	q.sessWord = uint16(1 + g.r.intn(p.sessWords-1))
	n := p.minNodes + g.r.intn(p.maxNodes-p.minNodes+1)
	q.sizes = q.sizes[:0]
	for i := 0; i < n; i++ {
		q.sizes = append(q.sizes, uint32(g.r.logUniform(p.minSize, p.maxSize)))
	}
	q.seed = mix(g.r.next(), g.seq)
	g.entryOf[q.entry] = q.seed
}

func (q *request) encode(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(q.gap))
	b = binary.LittleEndian.AppendUint32(b, q.entry)
	b = binary.LittleEndian.AppendUint32(b, q.hit)
	b = binary.LittleEndian.AppendUint64(b, q.hitTag)
	for i := 0; i < q.nsess; i++ {
		b = binary.LittleEndian.AppendUint16(b, q.sessions[i])
	}
	b = binary.LittleEndian.AppendUint16(b, q.sessWord)
	for _, s := range q.sizes {
		b = binary.LittleEndian.AppendUint32(b, s)
	}
	return binary.LittleEndian.AppendUint64(b, q.seed)
}

// hashedInputs is how many leading inputs of a stream the printed hash
// covers: every run consumes at least that many.
const hashedInputs = 1 << 18

// inputHash hashes the first hashedInputs inputs the workload generates
// from seed: ops for the closed loops, requests of every generator for the
// server, the tenant classes and the seed for the fleet.
func inputHash(workload string, seed uint64) (string, int) {
	h := sha256.New()
	var b []byte
	n := 0
	switch workload {
	case "alloc-heavy", "big-heap":
		p := allocHeavy
		if workload == "big-heap" {
			p = bigHeap
		}
		g := newClosedGen(p, seed)
		buf := make([]op, 0, 4096)
		for n < hashedInputs {
			buf = g.fill(buf)
			for i := range buf {
				b = buf[i].encode(b[:0])
				h.Write(b)
			}
			n += len(buf)
		}
	case "server":
		for gi := 0; gi < serverGenerators; gi++ {
			g := newReqGen(serverCfg, seed, gi)
			var q request
			for i := 0; i < hashedInputs/serverGenerators; i++ {
				fe := -1
				if i < serverCfg.entries {
					fe = i
				}
				g.next(&q, fe)
				b = q.encode(b[:0])
				h.Write(b)
				n++
			}
		}
	case "fleet":
		b = fleetInputs(seed)
		h.Write(b)
		n = 1
	}
	return hex.EncodeToString(h.Sum(nil)), n
}
