package main

import (
	"encoding/json"
	"fmt"
	"syscall"
	"time"

	"minesweeper/internal/fleet"
)

// The fleet workload: a few dozen governed tenants in the cache, churn and
// burst classes under one host budget, stepped open-loop at a fixed tick
// rate.
const (
	fleetBudget  = 32 << 20
	fleetWorkers = 2
	// tickPeriod is the open loop's tick interval.
	tickPeriod = 5 * time.Millisecond
	// windowTicks is how many ticks each latency window holds: enough for
	// a p99 with ten beyond it.
	windowTicks = 1000
	// closingTicks run back to back through Host.Run at the end of the
	// timed phase; its report is the only view of host-wide RSS.
	closingTicks = 16
)

func fleetConfig(seed uint64) fleet.Config {
	floor := uint64(fleetBudget / 128)
	return fleet.Config{
		HostBudget: fleetBudget,
		Classes: []fleet.Class{
			{Name: "gold", Priority: 0, Weight: 4, Tenants: 8, Floor: floor, Workload: "cache", Lambda: 3},
			{Name: "silver", Priority: 1, Weight: 2, Tenants: 12, Floor: floor, Workload: "churn", Lambda: 4},
			{Name: "bronze", Priority: 2, Weight: 1, Tenants: 12, Floor: floor, Workload: "burst", Lambda: 4, Burst: 4},
		},
		Ticks:   closingTicks,
		Seed:    seed,
		Workers: fleetWorkers,
	}
}

// fleetInputs is the fleet's whole input: the host configuration, whose seed
// drives every tenant's arrivals and requests.
func fleetInputs(seed uint64) []byte {
	b, _ := json.Marshal(fleetConfig(seed)) // a plain struct of numbers and strings always marshals
	return b
}

// fleetRun is what one timed stretch of the fleet measured.
type fleetRun struct {
	ticks []float64 // tick latency from its due time, microseconds
	late  []float64 // how late the tick started, microseconds
	win   windows   // tick latencies, windowTicks to a window
	wall  time.Duration
	cpu   time.Duration
	rep   *fleet.Report
}

// stepFleet runs h open-loop for d, then the closing ticks, and tears it
// down. tr, when set, records one span per tick.
func stepFleet(h *fleet.Host, d time.Duration, tr *tracer) (fleetRun, error) {
	var fr fleetRun
	cpu0 := cpuTime()
	start := time.Now()
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k-1) * tickPeriod)
		if due.Sub(start) >= d {
			break
		}
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only starts the tick early
			now = time.Now()
		}
		fr.late = append(fr.late, float64(now.Sub(due))/1e3)
		var sp int64 = -1
		if tr != nil {
			sp = tr.begin(lTick, uint64(k))
		}
		h.Step()
		if tr != nil {
			tr.end(lTick, sp)
		}
		fr.ticks = append(fr.ticks, float64(time.Since(due))/1e3)
	}
	for i := 0; i < len(fr.ticks); i += windowTicks {
		fr.win.ws = append(fr.win.ws, window{lat: fr.ticks[i:min(i+windowTicks, len(fr.ticks))]})
	}
	rep, err := h.Run()
	fr.wall = time.Since(start)
	fr.cpu = cpuTime() - cpu0
	fr.rep = rep
	return fr, err
}

// checkFleet fails the run for every tenant that reported a serve error or
// was ever granted less than its floor, and returns the heap ops served.
func checkFleet(r *result, rep *fleet.Report) uint64 {
	var ops uint64
	for _, t := range rep.Tenants {
		ops += t.Mallocs + t.Frees
		if t.Err != "" {
			r.fail("tenant %d (%s): %s", t.ID, t.Class, t.Err)
		}
		if !t.FloorHonoured() {
			r.fail("tenant %d (%s): granted %d below its floor %d", t.ID, t.Class, t.MinGrant, t.Floor)
		}
	}
	return ops
}

func runFleet(r *result, seed uint64, seconds float64) {
	h, setup, err := timeSetup(func() (*fleet.Host, error) { return fleet.NewHost(fleetConfig(seed)) },
		func(h *fleet.Host) { h.Close() })
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	goHeap := goHeapMiB()
	fr, err := stepFleet(h, time.Duration(seconds*float64(time.Second)), nil)
	if err != nil {
		r.fail("fleet: %v", err)
	}
	if fr.rep == nil {
		return
	}
	ops := checkFleet(r, fr.rep)
	r.Attempted += ops
	rep := fr.rep
	r.set("setup_s", setup, "s")
	r.set("ops_per_s", float64(ops)/fr.wall.Seconds(), "1/s")
	r.set("cpu_ns_per_op", float64(fr.cpu)/float64(ops), "ns")
	r.set("peak_rss_mib", float64(rep.PeakRSS)/(1<<20), "MiB")
	r.set("avg_rss_mib", float64(rep.AvgRSS)/(1<<20), "MiB")
	r.set("lat_p50_us", fr.win.latency(0.5), "us")
	r.set("lat_p99_us", fr.win.latency(0.99), "us")
	r.set("go_heap_mib", goHeap, "MiB")
	r.note("windows", float64(len(fr.win.ws)), "count")
	r.note("tick_p50_ms", fr.win.latency(0.5)/1e3, "ms")
	r.note("tick_p99_ms", fr.win.latency(0.99)/1e3, "ms")
	r.note("tick_samples", float64(len(fr.ticks)), "count")
	r.note("gen_late_p99_us", quantile(fr.late, 0.99), "us")
	r.note("rss_over_budget", float64(rep.PeakRSS)/float64(rep.HostBudget), "x")
	r.note("breaches", float64(rep.Breaches), "count")
	r.note("level_changes", float64(rep.LevelChanges), "count")
	fmt.Printf("%d tenants, %d open-loop ticks every %v plus %d closing ticks, %d heap ops\n",
		rep.TenantCount, len(fr.ticks), tickPeriod, closingTicks, ops)
}
