// tracereplay records an allocation trace and replays it under every scheme,
// comparing peak memory and sweep behaviour — the "experiment customisation"
// workflow from the paper's artifact appendix (§A.7): the same allocation
// profile, different LD_PRELOADed allocator.
//
// Run with:
//
//	go run ./examples/tracereplay
package main

import (
	"fmt"
	"log"
	"time"

	"minesweeper/internal/mem"
	"minesweeper/internal/schemes"
	"minesweeper/internal/sim"
	"minesweeper/internal/trace"
)

func main() {
	// Record a mixed churn trace: 60k events over a 3000-object window.
	tr := trace.Record(60_000, 3000, 8192, 42)
	st := tr.Stats()
	fmt.Printf("trace: %d events, %d mallocs, peak live %.1f MiB\n\n",
		len(tr.Events), st.Mallocs, float64(st.PeakLiveBytes)/(1<<20))

	fmt.Printf("%-20s %10s %12s %8s %8s\n", "scheme", "wall", "peak rss", "sweeps", "failed")
	for _, kind := range schemes.All() {
		space := mem.NewAddressSpace()
		world := sim.NewWorld()
		heap, err := schemes.New(kind).Build(space, world)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := sim.NewProgram(space, heap, world)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := trace.Replay(tr, prog)
		wall := time.Since(start)
		heap.Shutdown()
		if err != nil {
			log.Fatal(err)
		}
		hst := heap.Stats()
		fmt.Printf("%-20s %10s %10.1fMiB %8d %8d\n",
			kind, wall.Round(time.Millisecond),
			float64(res.PeakRSS)/(1<<20), hst.Sweeps, hst.FailedFrees)
	}
	fmt.Println("\nSame trace, different allocator: quarantining schemes defer reuse")
	fmt.Println("(higher peak RSS, sweeps > 0); FFMalloc trades address-space growth instead.")
}
