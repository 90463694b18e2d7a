package figures

import (
	"fmt"
	"io"

	"minesweeper/internal/core"
	"minesweeper/internal/metrics"
	"minesweeper/internal/schemes"
	"minesweeper/internal/workload"
)

// optimisationLadder is the Figure 15/16 configuration sequence: each level
// adds one optimisation in the paper's order (§5.4).
func optimisationLadder() []schemes.Factory {
	return []schemes.Factory{
		msVariant("unoptimised", func(c *core.Config) {
			c.Mode = core.Synchronous
			c.ZeroMode = core.ZeroOff
			c.Unmapping = false
			c.Purging = false
		}),
		msVariant("+zeroing", func(c *core.Config) {
			c.Mode = core.Synchronous
			c.Unmapping = false
			c.Purging = false
		}),
		msVariant("+unmapping", func(c *core.Config) {
			c.Mode = core.Synchronous
			c.Purging = false
		}),
		msVariant("+concurrency", func(c *core.Config) {
			c.Purging = false
		}),
		msVariant("+purging", func(c *core.Config) {}),
	}
}

// ablationGrid runs the SPEC suite across the ladder.
func (r *Runner) ablationGrid() (map[string]map[string]workload.Comparison, []string, error) {
	ladder := optimisationLadder()
	names := make([]string, len(ladder))
	for i, f := range ladder {
		names[i] = f.Name
	}
	grid := make(map[string]map[string]workload.Comparison)
	for _, prof := range workload.Spec2006() {
		grid[prof.Name] = make(map[string]workload.Comparison)
		for _, f := range ladder {
			c, err := r.ratios(prof, f)
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s: %w", prof.Name, f.Name, err)
			}
			grid[prof.Name][f.Name] = c
		}
	}
	return grid, names, nil
}

// Fig15OptTime renders Figure 15: run time by optimisation level.
func Fig15OptTime(w io.Writer, r *Runner) error {
	grid, levels, err := r.ablationGrid()
	if err != nil {
		return err
	}
	fprintf(w, "Figure 15: run-time overhead under incremental optimisation levels (§4)\n\n")
	header := append([]string{"benchmark"}, levels...)
	tb := metrics.NewTable(header...)
	for _, name := range workload.Spec2006Names() {
		row := []string{name}
		for _, l := range levels {
			row = append(row, metrics.FmtRatio(grid[name][l].Slowdown))
		}
		tb.AddRow(row...)
	}
	gm := []string{"geomean"}
	for _, l := range levels {
		gm = append(gm, metrics.FmtRatio(geomeanOf(grid, l, slow)))
	}
	tb.AddRow(gm...)
	fprintf(w, "%s\n", tb)
	fprintf(w, "Paper: the sequential (+unmapping) version costs 9.5%% time; concurrency cuts it\n")
	fprintf(w, "to 5.0%%; purging brings the final figure to 5.4%%.\n")
	return nil
}

// Fig16OptMemory renders Figure 16: memory by optimisation level.
func Fig16OptMemory(w io.Writer, r *Runner) error {
	grid, levels, err := r.ablationGrid()
	if err != nil {
		return err
	}
	fprintf(w, "Figure 16: average memory overhead under incremental optimisation levels (§4)\n\n")
	header := append([]string{"benchmark"}, levels...)
	tb := metrics.NewTable(header...)
	for _, name := range workload.Spec2006Names() {
		row := []string{name}
		for _, l := range levels {
			row = append(row, metrics.FmtRatio(grid[name][l].AvgMem))
		}
		tb.AddRow(row...)
	}
	gm := []string{"geomean"}
	for _, l := range levels {
		gm = append(gm, metrics.FmtRatio(geomeanOf(grid, l, avgMem)))
	}
	tb.AddRow(gm...)
	fprintf(w, "%s\n", tb)
	fprintf(w, "Paper: zeroing and unmapping cut catastrophic overheads (gcc exceeded 32 GiB\n")
	fprintf(w, "unoptimised); concurrency raises memory to 1.241; purging recovers it to 1.111.\n")
	return nil
}

// partialVersions is the Figure 17 sequence (§5.5): incremental features from
// bare interception to the full system.
func partialVersions() []schemes.Factory {
	return []schemes.Factory{
		msVariant("base", func(c *core.Config) {
			c.Quarantine = false
			c.ZeroMode = core.ZeroOff
			c.Unmapping = false
		}),
		msVariant("+unmap+zero", func(c *core.Config) {
			c.Quarantine = false
		}),
		msVariant("+quarantine", func(c *core.Config) {
			c.Mode = core.Synchronous
			c.Sweeping = false
			c.FailedFrees = false
		}),
		msVariant("+concurrency", func(c *core.Config) {
			c.Sweeping = false
			c.FailedFrees = false
		}),
		msVariant("+sweep", func(c *core.Config) {
			c.FailedFrees = false
		}),
		msVariant("+failed-frees", func(c *core.Config) {}),
	}
}

// fig17Benches are the five most-affected benchmarks the paper uses.
var fig17Benches = []string{"dealII", "gcc", "omnetpp", "perlbench", "xalancbmk"}

// Fig17OverheadSources renders Figure 17: where the overheads come from.
func Fig17OverheadSources(w io.Writer, r *Runner) error {
	versions := partialVersions()
	fprintf(w, "Figure 17: sources of overhead — partial versions on the five most affected benchmarks (§5.5)\n\n")

	renderGrid := func(get func(workload.Comparison) float64) (*metrics.Table, error) {
		header := []string{"benchmark"}
		for _, v := range versions {
			header = append(header, v.Name)
		}
		tb := metrics.NewTable(header...)
		sums := make(map[string][]float64)
		for _, bench := range fig17Benches {
			prof, ok := workload.FindProfile(bench)
			if !ok {
				return nil, fmt.Errorf("fig17: unknown bench %s", bench)
			}
			row := []string{bench}
			for _, v := range versions {
				c, err := r.ratios(prof, v)
				if err != nil {
					return nil, err
				}
				row = append(row, metrics.FmtRatio(get(c)))
				sums[v.Name] = append(sums[v.Name], get(c))
			}
			tb.AddRow(row...)
		}
		gm := []string{"geomean"}
		for _, v := range versions {
			gm = append(gm, metrics.FmtRatio(metrics.Geomean(sums[v.Name])))
		}
		tb.AddRow(gm...)
		return tb, nil
	}

	fprintf(w, "(a) time\n\n")
	tb, err := renderGrid(slow)
	if err != nil {
		return err
	}
	fprintf(w, "%s\n", tb)
	fprintf(w, "(b) memory\n\n")
	tb, err = renderGrid(avgMem)
	if err != nil {
		return err
	}
	fprintf(w, "%s\n", tb)
	fprintf(w, "Paper (these 5 benchmarks): base overheads are negligible (1.1%% time);\n")
	fprintf(w, "unmapping+zeroing costs time but saves memory; quarantining adds the bulk of\n")
	fprintf(w, "both (delay-of-reuse); the remaining features add memory up to 1.394.\n")
	return nil
}
