package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"minesweeper"
	"minesweeper/internal/control"
	"minesweeper/internal/core"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
	"minesweeper/internal/telemetry"
)

// thread is the mutator surface both builds of a process expose: the
// minesweeper.Thread facade and the sim.Thread under a bare core.Heap.
type thread interface {
	Malloc(size uint64) (uint64, error)
	Free(addr uint64) error
	Load(addr uint64) (uint64, error)
	Store(addr, val uint64) error
	Close()
}

// target is one protected (or baseline) process under test. Untraced
// closed loops build it through the minesweeper.Process facade, as a user
// would. The server builds a core.Heap directly, because its generators must
// mark themselves quiescent while they wait for the next arrival, as a
// thread blocked in a system call is. Traced runs build a core.Heap too, so
// they can attach a telemetry registry whose ring keeps every sweep record
// of the run.
type target struct {
	proc *minesweeper.Process // facade build

	heap  *core.Heap // direct build
	space *mem.AddressSpace
	world *sim.World
	prog  *sim.Program
	reg   *telemetry.Registry // traced builds only
}

// sweepRingCap keeps every sweep of a traced run (tens per second at most).
const sweepRingCap = 1 << 15

// spec says how to build a target.
type spec struct {
	cfg    minesweeper.Config // scheme and memory budget
	direct bool               // build a core.Heap directly instead of through the facade
	traced bool               // attach a telemetry registry (implies direct)
	tenant bool               // use a fleet tenant's knobs (implies direct)
}

func newTarget(sp spec) (*target, error) {
	cfg := sp.cfg
	if !(sp.direct || sp.traced || sp.tenant) || cfg.Scheme == minesweeper.SchemeBaseline {
		p, err := minesweeper.NewProcess(cfg)
		if err != nil {
			return nil, err
		}
		return &target{proc: p}, nil
	}
	space := mem.NewAddressSpace()
	world := sim.NewWorld()
	ccfg := core.DefaultConfig()
	ccfg.World = world
	if cfg.Scheme == minesweeper.SchemeMineSweeperMostlyConcurrent {
		ccfg.Mode = core.MostlyConcurrent
	}
	if sp.tenant {
		// As fleet.Host builds its tenants: small heaps sweep and drain
		// at their own proportions.
		ccfg.SweepFloorBytes = 4 << 10
		ccfg.BufferCap = 16
	}
	if cfg.MemoryBudget > 0 {
		ccfg.Control = control.NewPlane(control.Config{
			Base: control.Knobs{
				SweepThreshold:    ccfg.SweepThreshold,
				UnmappedFactor:    ccfg.UnmappedFactor,
				PauseThreshold:    ccfg.PauseThreshold,
				Helpers:           ccfg.Helpers,
				RescanBudgetPages: ccfg.RescanBudgetPages,
			},
			Budget: cfg.MemoryBudget,
			Policy: control.NewAIMD(),
		})
	}
	heap, err := core.New(space, ccfg, jemalloc.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var reg *telemetry.Registry
	if sp.traced {
		reg = telemetry.NewRegistry(sweepRingCap)
		heap.SetTelemetry(reg)
	}
	prog, err := sim.NewProgram(space, heap, world)
	if err != nil {
		heap.Shutdown()
		return nil, err
	}
	return &target{heap: heap, space: space, world: world, prog: prog, reg: reg}, nil
}

func (t *target) newThread(seed uint64) (thread, error) {
	if t.proc != nil {
		return t.proc.NewThreadSeed(seed)
	}
	return t.prog.NewThread(seed)
}

func (t *target) global(i int) uint64 {
	if t.proc != nil {
		return t.proc.GlobalSlot(i)
	}
	return t.prog.GlobalSlot(i)
}

// footprint is the simulated process footprint including allocator
// metadata, as workload.Run samples it.
func (t *target) footprint() uint64 {
	if t.proc != nil {
		return t.proc.RSS() + t.proc.Stats().MetaBytes
	}
	return t.space.RSS() + t.heap.Stats().MetaBytes
}

// governor returns the control plane's state, or nil when ungoverned.
func (t *target) governor() *control.State {
	if t.proc != nil {
		return t.proc.Governor()
	}
	if t.heap.Control() == nil {
		return nil
	}
	st := t.heap.Control().State()
	return &st
}

// park marks one of the target's threads quiescent: it will make no memory
// access until unpark, so a stop-the-world need not wait for it.
func (t *target) park() {
	if t.world != nil {
		t.world.BeginQuiescent()
	}
}

// unpark ends a park, waiting out any stop in progress.
func (t *target) unpark() {
	if t.world != nil {
		t.world.EndQuiescent()
	}
}

func (t *target) close() {
	if t.proc != nil {
		t.proc.Close()
	} else {
		t.heap.Shutdown()
	}
}

// Layers the benchmark's spans are named after: each is a call the benchmark
// makes into the program, or a unit of work that contains such calls.
type layer uint8

const (
	lMalloc layer = iota
	lFree
	lLoad
	lStore
	lOp
	lRequest
	lTick
	nLayers
)

var layerNames = [nLayers]string{
	"core.Malloc", "core.Free", "mem.Load", "mem.Store",
	"bench.op", "bench.request", "fleet.Step",
}

// span is one timed call: start and end in nanoseconds since the tracer's
// epoch, the index of the enclosing span (-1 for none) and the request or
// op it belongs to.
type span struct {
	L      layer
	Start  int64
	End    int64
	Parent int32
	Req    uint64
}

// tracer records spans around the calls one mutator makes. Calls are counted
// exactly; one unit of work in every period is timed, and every call inside
// a timed unit gets a span. Self time is a span's duration minus that of its
// children.
type tracer struct {
	epoch   time.Time
	period  uint64
	units   uint64
	on      bool
	open    int32 // index of the open unit span, -1 if none
	childNs int64 // raw child time inside the open unit
	childN  int64 // timed children of the open unit
	clock   int64 // cost of one clock read, taken out of every timed span

	calls   [nLayers]uint64
	sampled [nLayers]uint64
	selfNs  [nLayers]int64

	spans   []span
	frees   []freeRec // the free stream, for the quarantine replay
	elapsed time.Duration
}

// freeRec is one free the traced run made.
type freeRec struct{ addr, size uint64 }

const (
	maxSpans     = 1 << 18
	maxFreeStore = 1 << 19
)

func newTracer(period uint64) *tracer {
	t := &tracer{epoch: time.Now(), period: period, open: -1}
	t.clock = t.clockCost()
	return t
}

// clockCost measures what one clock read adds to a span: the least mean
// distance between two back-to-back reads over a few rounds.
func (t *tracer) clockCost() int64 {
	best := int64(-1)
	for round := 0; round < 5; round++ {
		var sum int64
		for i := 0; i < 2000; i++ {
			s := t.now()
			sum += t.now() - s
		}
		if m := sum / 2000; best < 0 || m < best {
			best = m
		}
	}
	return best
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a unit of work (an op, a request or a tick) and decides
// whether it is timed.
func (t *tracer) begin(l layer, req uint64) int64 {
	t.calls[l]++
	t.units++
	t.on = t.units%t.period == 0
	if !t.on {
		return -1
	}
	t.childNs, t.childN = 0, 0
	s := t.now()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{L: l, Start: s, Parent: -1, Req: req})
		t.open = int32(len(t.spans) - 1)
	} else {
		t.open = -1
	}
	return s
}

func (t *tracer) end(l layer, s int64) {
	if s < 0 {
		return
	}
	e := t.now()
	if t.open >= 0 {
		t.spans[t.open].End = e
	}
	t.sampled[l]++
	t.selfNs[l] += max(0, e-s-t.childNs-(t.childN+1)*t.clock)
	t.on = false
	t.open = -1
}

// call counts one call and, inside a timed unit, starts its span.
func (t *tracer) call(l layer) int64 {
	t.calls[l]++
	if !t.on {
		return -1
	}
	return t.now()
}

func (t *tracer) done(l layer, s int64, req uint64) {
	if s < 0 {
		return
	}
	e := t.now()
	d := e - s
	t.sampled[l]++
	t.selfNs[l] += max(0, d-t.clock)
	t.childNs += d
	t.childN++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{L: l, Start: s, End: e, Parent: t.open, Req: req})
	}
}

// meanNs is a layer's mean self time per timed call.
func (t *tracer) meanNs(l layer) float64 {
	if t.sampled[l] == 0 {
		return 0
	}
	return float64(t.selfNs[l]) / float64(t.sampled[l])
}

// merge folds another mutator's tracer into t.
func (t *tracer) merge(o *tracer) {
	for l := range t.calls {
		t.calls[l] += o.calls[l]
		t.sampled[l] += o.sampled[l]
		t.selfNs[l] += o.selfNs[l]
	}
	off := int32(len(t.spans))
	shift := int64(o.epoch.Sub(t.epoch))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
	if room := maxFreeStore - len(t.frees); room > 0 {
		if len(o.frees) > room {
			t.frees = append(t.frees, o.frees[:room]...)
		} else {
			t.frees = append(t.frees, o.frees...)
		}
	}
}

// printSelf prints each layer's self time: exact call count, mean self time
// of the timed calls, and the estimated total over all calls.
func (t *tracer) printSelf(title string) {
	fmt.Printf("%s (wall %.3f s, one unit in %d timed, %d ns clock read taken out)\n", title, t.elapsed.Seconds(), t.period, t.clock)
	fmt.Printf("  %-16s %12s %10s %12s %10s\n", "layer", "calls", "timed", "self ns", "est ms")
	for l := layer(0); l < nLayers; l++ {
		if t.calls[l] == 0 {
			continue
		}
		m := t.meanNs(l)
		fmt.Printf("  %-16s %12d %10d %12.1f %10.1f\n", layerNames[l], t.calls[l], t.sampled[l], m, m*float64(t.calls[l])/1e6)
	}
}

// writeSpans writes the spans as a Chrome trace (chrome://tracing,
// Perfetto), one thread per mutator.
func (t *tracer) writeSpans(name string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "spans-"+slug(name)+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	enc := json.NewEncoder(w)
	w.WriteString("[\n")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(event{Name: layerNames[s.L], Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"parent": s.Parent, "req": s.Req}}); err != nil {
			f.Close()
			return "", err
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// mut is one mutator: a thread and, in traced runs, its tracer. Untraced
// calls cost one nil check over calling the thread directly.
type mut struct {
	th  thread
	tr  *tracer
	req uint64
}

func (m *mut) malloc(size uint64) (uint64, error) {
	if m.tr == nil {
		return m.th.Malloc(size)
	}
	s := m.tr.call(lMalloc)
	a, err := m.th.Malloc(size)
	m.tr.done(lMalloc, s, m.req)
	return a, err
}

func (m *mut) free(addr, size uint64) error {
	if m.tr == nil {
		return m.th.Free(addr)
	}
	s := m.tr.call(lFree)
	err := m.th.Free(addr)
	m.tr.done(lFree, s, m.req)
	if len(m.tr.frees) < maxFreeStore {
		m.tr.frees = append(m.tr.frees, freeRec{addr, size})
	}
	return err
}

func (m *mut) load(addr uint64) (uint64, error) {
	if m.tr == nil {
		return m.th.Load(addr)
	}
	s := m.tr.call(lLoad)
	v, err := m.th.Load(addr)
	m.tr.done(lLoad, s, m.req)
	return v, err
}

func (m *mut) store(addr, val uint64) error {
	if m.tr == nil {
		return m.th.Store(addr, val)
	}
	s := m.tr.call(lStore)
	err := m.th.Store(addr, val)
	m.tr.done(lStore, s, m.req)
	return err
}
