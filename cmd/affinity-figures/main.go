// Command affinity-figures regenerates every table and figure of the
// paper's evaluation from the simulator.
//
// Usage:
//
//	affinity-figures [flags]
//
//	-fig   3|4|5       regenerate one figure (0 = none)
//	-table 1|2|3|4|5   regenerate one table (0 = none)
//	-all               regenerate everything (default if no selection)
//	-quick             shorter measurement windows (faster, noisier)
//	-csv               also emit CSV for the sweep figures
//	-seed  n           simulation seed
//	-modes a,b,...     modes for the sweep figures (default the paper's four)
//	-workers n         parallel simulation workers (0 = GOMAXPROCS, 1 = serial)
//	-cache             reuse cached results across tables (in-memory)
//	-cache-dir path    persistent result cache (default $AFFINITY_CACHE_DIR)
//	-cache-bytes n     in-memory cache bound (default 256 MiB)
//	-version           print the build version and exit
//
// Independent simulation cells run concurrently across -workers
// goroutines; because every cell is a single-threaded seeded simulation,
// the output is byte-identical to a serial (-workers 1) run. With the
// cache enabled, cells shared between tables (and with previous runs,
// when -cache-dir is set) are simulated once and replayed bit-identically
// thereafter — the rendered output never changes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/affinity"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/profiling"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (3, 4 or 5)")
	table := flag.Int("table", 0, "table to regenerate (1-5)")
	all := flag.Bool("all", false, "regenerate everything")
	quick := flag.Bool("quick", false, "shorter measurement windows")
	csv := flag.Bool("csv", false, "emit CSV for sweeps")
	seed := flag.Uint64("seed", 1, "simulation seed")
	seeds := flag.Int("seeds", 1, "seeds per cell for the headline summary (mean ± stdev)")
	verify := flag.Bool("verify", false, "score every reproduction claim (executable EXPERIMENTS.md)")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	modesFlag := flag.String("modes", "", "comma-separated modes for the sweep figures (default the paper's four)")
	useCache := flag.Bool("cache", false, "reuse cached results across tables (in-memory)")
	cacheDir := flag.String("cache-dir", os.Getenv(affinity.CacheDirEnv), "persistent result cache directory (implies -cache)")
	cacheBytes := flag.Int64("cache-bytes", affinity.DefaultCacheBytes, "in-memory cache byte bound (<=0 = unbounded)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print("affinity-figures")
		return
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "affinity-figures:", err)
		os.Exit(2)
	}
	defer stopProf()

	modes, err := parseModes(*modesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "affinity-figures:", err)
		os.Exit(2)
	}

	runner := affinity.NewRunner(*workers)
	if *useCache || *cacheDir != "" {
		c := affinity.NewCache(*cacheBytes, *cacheDir)
		defer c.Close()
		affinity.UseCache(runner, c)
	}

	if *verify {
		cfgFor := func(m affinity.Mode, d affinity.Direction, size int) affinity.Config {
			c := affinity.DefaultConfig(m, d, size)
			c.Seed = *seed
			if *quick {
				c.SetQuickWindows()
			}
			return c
		}
		fmt.Print(core.FormatChecks(core.VerifyShapeWith(runner, cfgFor)))
		return
	}
	if *fig == 0 && *table == 0 {
		*all = true
	}
	g := generator{quick: *quick, seed: *seed, csv: *csv, runner: runner, modes: modes}

	if *seeds > 1 {
		g.headline(*seeds)
	}
	if *all || *fig == 3 || *fig == 4 {
		g.sweepFigures(*all || *fig == 3, *all || *fig == 4)
	}
	if *all || *table == 1 {
		g.table1()
	}
	if *all || *table == 2 {
		g.table2()
	}
	if *all || *table == 3 || *table == 5 {
		g.table3and5()
	}
	if *all || *table == 4 {
		g.table4()
	}
	if *all || *fig == 5 {
		g.fig5()
	}
}

type generator struct {
	quick  bool
	seed   uint64
	csv    bool
	runner *affinity.Runner
	modes  []affinity.Mode

	// memoized extreme-point runs shared by tables 1-5 and figure 5
	runs map[string]*affinity.Result
}

// parseModes resolves a comma-separated -modes list; empty selects the
// paper's four modes.
func parseModes(s string) ([]affinity.Mode, error) {
	if strings.TrimSpace(s) == "" {
		return affinity.Modes(), nil
	}
	var modes []affinity.Mode
	for _, name := range strings.Split(s, ",") {
		m, err := affinity.ParseMode(name)
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	return modes, nil
}

// cell identifies one memoized run.
type cell struct {
	mode affinity.Mode
	dir  affinity.Direction
	size int
}

func (g *generator) base(mode affinity.Mode, dir affinity.Direction, size int) affinity.Config {
	cfg := affinity.DefaultConfig(mode, dir, size)
	cfg.Seed = g.seed
	if g.quick {
		cfg.SetQuickWindows()
	}
	return cfg
}

// ensure runs every not-yet-memoized cell concurrently on the worker
// pool, so each table section's runs overlap instead of executing one
// after another. Memoized results are reused across sections.
func (g *generator) ensure(cells ...cell) {
	if g.runs == nil {
		g.runs = make(map[string]*affinity.Result)
	}
	var missing []cell
	for _, c := range cells {
		if _, ok := g.runs[cellKey(c)]; !ok {
			missing = append(missing, c)
		}
	}
	if len(missing) == 0 {
		return
	}
	var cfgs []affinity.Config
	for _, c := range missing {
		cfgs = append(cfgs, g.base(c.mode, c.dir, c.size))
	}
	results := g.runner.RunConfigs(cfgs)
	for i, c := range missing {
		g.runs[cellKey(c)] = results[i]
	}
}

func cellKey(c cell) string {
	return fmt.Sprintf("%v-%v-%d", c.mode, c.dir, c.size)
}

func (g *generator) run(mode affinity.Mode, dir affinity.Direction, size int) *affinity.Result {
	g.ensure(cell{mode, dir, size})
	return g.runs[cellKey(cell{mode, dir, size})]
}

// extremeCells lists the no-affinity/full-affinity runs at the §6
// extreme points — the cells tables 1-5 and figure 5 share.
func extremeCells() []cell {
	var cells []cell
	for _, pt := range core.ExtremePoints() {
		for _, mode := range []affinity.Mode{affinity.ModeNone, affinity.ModeFull} {
			cells = append(cells, cell{mode, pt.Dir, pt.Size})
		}
	}
	return cells
}

// headline prints the four 64 KB mode results aggregated over several
// seeds, quantifying run-to-run variance.
func (g *generator) headline(seeds int) {
	fmt.Printf("=== Headline (TX 64KB) over %d seeds ===\n", seeds)
	for _, mode := range g.modes {
		agg := g.runner.RunSeeds(g.base(mode, affinity.TX, 65536), seeds)
		fmt.Println(agg)
	}
	fmt.Println()
}

func (g *generator) sweepFigures(want3, want4 bool) {
	for _, dir := range []affinity.Direction{affinity.TX, affinity.RX} {
		sw := g.runner.RunSweep(g.base(affinity.ModeNone, dir, 128), dir, affinity.Sizes(), g.modes)
		if want3 {
			fmt.Println("=== Figure 3:", dir, "bandwidth and CPU utilization ===")
			fmt.Print(sw.FormatFig3())
			fmt.Println()
		}
		if want4 {
			fmt.Println("=== Figure 4:", dir, "cost in GHz/Gbps ===")
			fmt.Print(sw.FormatFig4())
			fmt.Println()
		}
		if g.csv {
			fmt.Print(sw.CSV())
			fmt.Println()
		}
	}
}

func (g *generator) table1() {
	g.ensure(extremeCells()...)
	fmt.Println("=== Table 1: baseline characterization (no affinity vs full affinity) ===")
	for _, pt := range core.ExtremePoints() {
		for _, mode := range []affinity.Mode{affinity.ModeNone, affinity.ModeFull} {
			r := g.run(mode, pt.Dir, pt.Size)
			fmt.Printf("--- %s %dB, %s ---\n", pt.Dir, pt.Size, mode)
			fmt.Print(affinity.BaselineTable(r).Format())
		}
	}
	fmt.Println()
}

func (g *generator) table2() {
	g.ensure(cell{affinity.ModeNone, affinity.TX, 65536}, cell{affinity.ModeFull, affinity.TX, 65536})
	fmt.Println("=== Table 2: spinlock behaviour (Locks bin, TX 64KB) ===")
	for _, mode := range []affinity.Mode{affinity.ModeNone, affinity.ModeFull} {
		r := g.run(mode, affinity.TX, 65536)
		lb := core.LockStats(r)
		fmt.Printf("%-9s instr=%-9d branches=%-9d mispredicts=%-6d ratio=%.3f%% spin=%d cycles\n",
			mode, lb.Instr, lb.Branches, lb.Mispredicts, 100*lb.MispredictRatio, lb.SpinCycles)
	}
	fmt.Println()
}

func (g *generator) table3and5() {
	g.ensure(extremeCells()...)
	fmt.Println("=== Table 3: relating improvements to events (and Table 5 correlations) ===")
	for _, pt := range core.ExtremePoints() {
		base := g.run(affinity.ModeNone, pt.Dir, pt.Size)
		full := g.run(affinity.ModeFull, pt.Dir, pt.Size)
		fmt.Print(affinity.Compare(base, full).Format())
		fmt.Println()
	}
}

func (g *generator) table4() {
	var cells []cell
	for _, dir := range []affinity.Direction{affinity.TX, affinity.RX} {
		for _, mode := range []affinity.Mode{affinity.ModeNone, affinity.ModeFull} {
			cells = append(cells, cell{mode, dir, 128})
		}
	}
	g.ensure(cells...)
	fmt.Println("=== Table 4: symbols with highest machine clears (TX/RX 128B) ===")
	for _, dir := range []affinity.Direction{affinity.TX, affinity.RX} {
		for _, mode := range []affinity.Mode{affinity.ModeNone, affinity.ModeFull} {
			r := g.run(mode, dir, 128)
			fmt.Printf("--- %s 128B, %s ---\n", dir, mode)
			fmt.Print(affinity.FormatTopSymbols(affinity.TopClearSymbols(r, 8)))
		}
	}
	fmt.Println()
}

func (g *generator) fig5() {
	g.ensure(extremeCells()...)
	fmt.Println("=== Figure 5: performance impact indicators ===")
	for _, pt := range core.ExtremePoints() {
		base := g.run(affinity.ModeNone, pt.Dir, pt.Size)
		full := g.run(affinity.ModeFull, pt.Dir, pt.Size)
		fmt.Print(core.FormatFig5Pair(base, full))
		fmt.Println()
	}
}
