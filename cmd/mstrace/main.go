// Command mstrace records, inspects and replays allocation traces, the
// simulated analogue of capturing an application's allocation profile and
// re-running it under a different LD_PRELOADed allocator (§A.7).
//
// Usage:
//
//	mstrace record -o trace.bin -events 100000 -live 2000 -maxsize 4096
//	mstrace info trace.bin
//	mstrace replay -scheme minesweeper trace.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"minesweeper/internal/mem"
	"minesweeper/internal/metrics"
	"minesweeper/internal/schemes"
	"minesweeper/internal/sim"
	"minesweeper/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mstrace {record|info|replay} ...")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "trace.bin", "output file")
	events := fs.Int("events", 100_000, "number of events")
	live := fs.Int("live", 2000, "live-object window")
	maxSize := fs.Uint64("maxsize", 4096, "maximum allocation size")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	_ = fs.Parse(args)

	t := trace.Record(*events, *live, *maxSize, *seed)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := t.Write(f); err != nil {
		fatal(err)
	}
	st := t.Stats()
	fmt.Printf("recorded %d events (%d mallocs, %d frees) to %s\n",
		len(t.Events), st.Mallocs, st.Frees, *out)
}

func info(args []string) {
	if len(args) != 1 {
		usage()
	}
	t := load(args[0])
	st := t.Stats()
	fmt.Printf("threads        %d\n", t.Threads)
	fmt.Printf("events         %d\n", len(t.Events))
	fmt.Printf("mallocs        %d\n", st.Mallocs)
	fmt.Printf("frees          %d\n", st.Frees)
	fmt.Printf("peak live      %d objects, %s\n", st.PeakLive, metrics.FmtMiB(st.PeakLiveBytes))
	fmt.Printf("total alloc'd  %s\n", metrics.FmtMiB(st.TotalBytes))
	if err := t.Validate(); err != nil {
		fmt.Printf("VALIDATION FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("trace valid")
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	scheme := fs.String("scheme", "minesweeper", fmt.Sprintf("scheme to replay under, one of %v", schemes.All()))
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	t := load(fs.Arg(0))

	kind, err := schemes.ByName(*scheme)
	if err != nil {
		fatal(err)
	}

	space := mem.NewAddressSpace()
	world := sim.NewWorld()
	heap, err := schemes.New(kind).Build(space, world)
	if err != nil {
		fatal(err)
	}
	prog, err := sim.NewProgram(space, heap, world)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := trace.Replay(t, prog)
	wall := time.Since(start)
	heap.Shutdown()
	if err != nil {
		fatal(err)
	}
	st := heap.Stats()
	fmt.Printf("replayed under %s\n", kind)
	fmt.Printf("  wall time    %v\n", wall.Round(time.Millisecond))
	fmt.Printf("  mallocs      %d\n", res.Mallocs)
	fmt.Printf("  frees        %d\n", res.Frees)
	fmt.Printf("  peak rss     %s\n", metrics.FmtMiB(res.PeakRSS))
	fmt.Printf("  sweeps       %d\n", st.Sweeps)
	fmt.Printf("  failed frees %d\n", st.FailedFrees)
}

func load(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	t, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	return t
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mstrace:", err)
	os.Exit(1)
}
