package main

import (
	"time"

	"minesweeper/internal/metrics"
)

// window is one stretch of a timed phase. Figures over a phase are medians
// over its windows, so a burst of interference from outside the process
// (CPU steal on a shared host) moves a few windows rather than the figure.
type window struct {
	wall  time.Duration
	cpu   time.Duration // process user+system CPU
	units uint64        // ops, requests or ticks completed
	lat   []float64     // latencies completed in the window, microseconds
}

// windows is a timed phase cut into windows.
type windows struct {
	ws []window
}

func (w *windows) each(f func(x *window) float64) []float64 {
	var out []float64
	for i := range w.ws {
		out = append(out, f(&w.ws[i]))
	}
	return out
}

func (w *windows) rate() float64 {
	return median(w.each(func(x *window) float64 { return div(float64(x.units), x.wall.Seconds()) }))
}

func (w *windows) cpuPerUnit() float64 {
	return median(w.each(func(x *window) float64 { return div(float64(x.cpu), float64(x.units)) }))
}

func (w *windows) latency(q float64) float64 {
	return median(w.each(func(x *window) float64 { return quantile(x.lat, q) }))
}

// settle waits until the process has gone quiet, so that a sweep started
// (or queued) in one slice does not run into the next slice, which may
// belong to the other side. It returns the CPU the process spent while
// waiting: the slice just run owes it. The process counts as quiet after
// two ticks in a row in which it used under a fifth of a CPU.
func settle() (cpu time.Duration, timedOut bool) {
	const (
		tick  = 2 * time.Millisecond
		limit = 5 * time.Second
	)
	c0 := cpuTime()
	start := time.Now()
	for calm := 0; calm < 2; {
		if time.Since(start) > limit {
			return cpuTime() - c0, true
		}
		t, c := time.Now(), cpuTime()
		time.Sleep(tick)
		if 5*(cpuTime()-c) < time.Since(t) {
			calm++
		} else {
			calm = 0
		}
	}
	return cpuTime() - c0, false
}

// total sums the windows' wall time, CPU and units.
func (w *windows) total() (wall, cpu time.Duration, units uint64) {
	for _, x := range w.ws {
		wall += x.wall
		cpu += x.cpu
		units += x.units
	}
	return wall, cpu, units
}

// pooled is the q-quantile of every latency in the windows.
func (w *windows) pooled(q float64) float64 {
	var all []float64
	for _, x := range w.ws {
		all = append(all, x.lat...)
	}
	return quantile(all, q)
}

// interleaved is a protected run and an unprotected baseline run on the same
// inputs, alternated in slice pairs so that both see the same host. Each
// side's slice is followed by settle, whose CPU it is charged. Ratios are of
// totals over all slices: a sweep lands in few slices, and a median over
// slices would leave it out.
type interleaved struct {
	ms, base windows // one window per slice
	timeouts int     // settles that gave up waiting for quiet

	peak, avg, baseAvg float64 // footprints over the run, MiB
}

// add records one slice pair.
func (iv *interleaved) add(ms, base window) {
	iv.ms.ws = append(iv.ms.ws, ms)
	iv.base.ws = append(iv.base.ws, base)
}

// wallRatio is protected over baseline wall time per unit of work.
func (iv *interleaved) wallRatio() float64 {
	mw, _, mu := iv.ms.total()
	bw, _, bu := iv.base.total()
	return div(mw.Seconds()/float64(mu), bw.Seconds()/float64(bu))
}

// cpuRatio is protected over baseline process CPU per unit of work.
func (iv *interleaved) cpuRatio() float64 {
	_, mc, mu := iv.ms.total()
	_, bc, bu := iv.base.total()
	return div(mc.Seconds()/float64(mu), bc.Seconds()/float64(bu))
}

// latRatio is protected over baseline median latency.
func (iv *interleaved) latRatio() float64 {
	return div(iv.ms.pooled(0.5), iv.base.pooled(0.5))
}

// settle runs settle and counts a timeout.
func (iv *interleaved) settle() time.Duration {
	cpu, timedOut := settle()
	if timedOut {
		iv.timeouts++
	}
	return cpu
}

// watch samples the footprints of the protected and the baseline process
// every 2 ms, as workload.Run does, until the returned function is called.
func (iv *interleaved) watch(ms, base func() uint64) (stop func()) {
	sx := metrics.NewSampler(ms, 2*time.Millisecond)
	sb := metrics.NewSampler(base, 2*time.Millisecond)
	sx.Start()
	sb.Start()
	return func() {
		sx.Stop()
		sb.Stop()
		iv.peak = float64(sx.Peak()) / (1 << 20)
		iv.avg = float64(sx.Avg()) / (1 << 20)
		iv.baseAvg = float64(sb.Avg()) / (1 << 20)
	}
}

// set records the end-to-end metrics of the result line.
func (iv *interleaved) set(r *result, setup, goHeap, slowdown float64) {
	r.set("setup_s", setup, "s")
	r.set("slowdown", slowdown, "x")
	r.set("cpu_overhead", iv.cpuRatio(), "x")
	r.set("mem_overhead", div(iv.avg, iv.baseAvg), "x")
	r.set("peak_rss_mib", iv.peak, "MiB")
	r.set("avg_rss_mib", iv.avg, "MiB")
	r.set("go_heap_mib", goHeap, "MiB")
	r.note("slice_pairs", float64(len(iv.ms.ws)), "count")
	r.note("baseline_avg_rss_mib", iv.baseAvg, "MiB")
	r.note("settle_timeouts", float64(iv.timeouts), "count")
}
