// Command affinity-sim runs one configuration of the paper's experiment
// and prints the measured result, optionally with the profiling tables.
//
// Usage:
//
//	affinity-sim [flags]
//
//	-mode   none|proc|irq|full|partition   affinity mode (default none)
//	-dir    tx|rx                transfer direction (default tx)
//	-size   bytes                ttcp transaction size (default 65536)
//	-cpus   n                    processors (default 2, the paper's SUT)
//	-nics   n                    NICs/connections (default 8; no static cap)
//	-queues n                    receive (RSS) queues per NIC (default 1)
//	-conns  n                    connections/processes (0 = one per NIC)
//	-policy name                 placement policy override
//	                             (none|process|irq|full|partition|rotate|rss|
//	                             flowdirector). flowdirector stripes flows
//	                             like rss but re-programs a flow's queue to
//	                             follow its process across migrations,
//	                             which can reorder in-flight frames.
//	-coalesce spec               receive-interrupt coalescing model: a mode
//	                             (legacy|timer|frames|adaptive) followed by
//	                             ",key=value" fields, e.g.
//	                             "timer,usecs=100" or
//	                             "adaptive,min=5,max=250,frames=8", or
//	                             @config.json. Empty keeps the legacy
//	                             fixed inter-IRQ throttle.
//	-seed   n                    simulation seed (default 1)
//	-warmup cycles               warmup window (default 60e6)
//	-measure cycles              measured window (default 240e6; must be
//	                             positive)
//	-seeds   n                   run n consecutive seeds, print mean ± stdev
//	-workers n                   parallel workers for -seeds (0 = GOMAXPROCS, 1 = serial)
//	-plan                        print the computed placement plan and exit
//	-table1                      print the Table 1 bin characterization
//	-fig5                        print the Figure 5 impact indicators
//	-table4                      print the Table 4 per-CPU clear symbols
//	-trace file.json             record a timeline and write Chrome
//	                             trace-event JSON (open in Perfetto or
//	                             chrome://tracing)
//	-trace-text file.txt         record a timeline and write a plain-text
//	                             dump
//	-timeseries file.csv         sample gauges (util, runqueue, Mbps, IRQ
//	                             rate) over the measured window into a CSV
//	-gauge-cycles n              gauge sampling period (default 2e6 = 1 ms)
//	-faults spec                 deterministic fault schedule: semicolon-
//	                             separated events, each a kind
//	                             (loss|burst|flap|delay|stall|storm)
//	                             followed by ",key=value" fields, e.g.
//	                             "flap,nic=0,from=1e9,until=1.5e9;loss,rate=0.01",
//	                             or @file.json for a JSON schedule. The
//	                             run reports degradation metrics, checks
//	                             the post-run resource invariants, and
//	                             exits nonzero on a violation.
//	-rto-init cycles             initial TCP retransmission timeout
//	                             (0 = the 200 ms default; LAN-tune, e.g.
//	                             20000000, so post-fault recovery lands
//	                             inside short measured windows)
//	-rto-max cycles              retransmission backoff cap (0 = default)
//	-workload spec               workload selection: a kind
//	                             (bulk|rpc|openloop) followed by
//	                             ",key=value" fields, e.g.
//	                             "openloop,conns=100000,arrival=pareto",
//	                             or @spec.json. Empty runs the paper's
//	                             bulk ttcp workload. The rpc and openloop
//	                             workloads report request-latency
//	                             quantiles; openloop runs the
//	                             connection-churn cell to completion
//	                             (warmup/measure are ignored) and reports
//	                             churn accounting.
//
// The -faults, -workload and -coalesce specs share one grammar, which
// the README's "Spec grammar" section documents with its number rule,
// and resolve through core.Config.ApplySpecs like the HTTP API's.
//
// The machine shape flags compose with any mode or policy: e.g.
// "-cpus 4 -mode full" is the §5 4P scaling point, and
// "-cpus 2 -nics 2 -queues 4 -policy rss" is the §8 receive-side-scaling
// future work. The default shape is the paper's 2P × 8NIC machine.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/affinity"
	"repro/internal/buildinfo"
	"repro/internal/profiling"
	"repro/internal/topo"
)

func main() {
	modeFlag := flag.String("mode", "none", "affinity mode: none|proc|irq|full|partition")
	dirFlag := flag.String("dir", "tx", "direction: tx|rx")
	size := flag.Int("size", 65536, "transaction size in bytes")
	cpus := flag.Int("cpus", 2, "number of processors")
	nics := flag.Int("nics", 8, "number of NICs (one connection and process each)")
	queues := flag.Int("queues", 1, "receive (RSS) queues per NIC")
	conns := flag.Int("conns", 0, "connections/processes (0 = one per NIC)")
	policyFlag := flag.String("policy", "", "placement policy override: none|process|irq|full|partition|rotate|rss|flowdirector")
	coalesceFlag := flag.String("coalesce", "", `receive-interrupt coalescing: "mode,k=v,..." (modes legacy|timer|frames|adaptive, e.g. "timer,usecs=100") or @config.json; empty = the legacy fixed throttle`)
	planOnly := flag.Bool("plan", false, "print the computed placement plan and exit")
	seed := flag.Uint64("seed", 1, "simulation seed")
	warmup := flag.Uint64("warmup", 60_000_000, "warmup cycles")
	measure := flag.Uint64("measure", 240_000_000, "measured cycles")
	seeds := flag.Int("seeds", 1, "run n consecutive seeds and print the aggregate")
	workers := flag.Int("workers", 0, "parallel workers for -seeds (0 = GOMAXPROCS, 1 = serial)")
	table1 := flag.Bool("table1", false, "print Table 1 bin characterization")
	fig5 := flag.Bool("fig5", false, "print Figure 5 impact indicators")
	table4 := flag.Bool("table4", false, "print Table 4 per-CPU machine-clear symbols")
	jsonOut := flag.Bool("json", false, "print the result as JSON instead of text")
	perCPU := flag.Bool("percpu", false, "print per-CPU Table 1 characterizations")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
	traceText := flag.String("trace-text", "", "write a plain-text timeline dump to this file")
	timeseries := flag.String("timeseries", "", "write a gauge time-series CSV to this file")
	gaugeCycles := flag.Uint64("gauge-cycles", 2_000_000, "gauge sampling period in cycles (with -timeseries)")
	faultsFlag := flag.String("faults", "", `fault schedule: "kind,k=v,...;..." (kinds loss|burst|flap|delay|stall|storm) or @schedule.json`)
	workloadFlag := flag.String("workload", "", `workload spec: "kind,k=v,..." (kinds bulk|rpc|openloop, e.g. "openloop,conns=100000,arrival=pareto") or @spec.json; empty = the paper's bulk ttcp workload`)
	rtoInit := flag.Uint64("rto-init", 0, "initial TCP retransmission timeout in cycles (0 = 200 ms default; LAN-tune for short fault runs)")
	rtoMax := flag.Uint64("rto-max", 0, "retransmission backoff cap in cycles (0 = default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print("affinity-sim")
		return
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "affinity-sim:", err)
		os.Exit(2)
	}
	defer stopProf()

	mode, err := affinity.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "affinity-sim:", err)
		os.Exit(2)
	}
	dir, err := affinity.ParseDirection(*dirFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "affinity-sim:", err)
		os.Exit(2)
	}
	if err := checkRun(*size, *measure); err != nil {
		fmt.Fprintln(os.Stderr, "affinity-sim:", err)
		os.Exit(2)
	}

	cfg := affinity.DefaultConfig(mode, dir, *size)
	cfg.Seed = *seed
	cfg.WarmupCycles = *warmup
	cfg.MeasureCycles = *measure
	if *rtoInit != 0 {
		cfg.TCP.RTOInitCycles = *rtoInit
	}
	if *rtoMax != 0 {
		cfg.TCP.RTOMaxCycles = *rtoMax
	}
	if cfg.Topology, err = topology(*cpus, *nics, *queues, *conns); err != nil {
		fmt.Fprintln(os.Stderr, "affinity-sim:", err)
		os.Exit(2)
	}
	if *policyFlag != "" {
		pol, err := affinity.ParsePolicy(*policyFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "affinity-sim:", err)
			os.Exit(2)
		}
		cfg.Policy = pol
	}
	plan, err := affinity.PlanFor(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "affinity-sim: impossible shape:", err)
		os.Exit(2)
	}
	if err := cfg.ApplySpecs(*faultsFlag, *workloadFlag, *coalesceFlag); err != nil {
		// The parsers' errors already name their spec.
		fmt.Fprintln(os.Stderr, "affinity-sim:", errors.Unwrap(err))
		os.Exit(2)
	}
	if *planOnly {
		fmt.Println(plan)
		for n := range plan.QueueVectors {
			for q, vec := range plan.QueueVectors[n] {
				fmt.Printf("  nic%d q%d vec %#x mask %#x\n", n, q, int(vec), plan.IRQMasks[n][q])
			}
		}
		for i := range plan.ProcMasks {
			fmt.Printf("  conn%d -> nic%d queue %d, proc mask %#x start cpu%d\n",
				i, plan.NICOf(i), plan.FlowQueues[i], plan.ProcMasks[i], plan.StartCPUs[i])
		}
		return
	}

	if *traceOut != "" || *traceText != "" {
		cfg.Trace = &affinity.TraceConfig{}
	}
	if *timeseries != "" {
		cfg.GaugeCycles = *gaugeCycles
	}

	if *seeds > 1 {
		// Aggregate mode: fan the seeds across the worker pool and print
		// the mean ± stdev summary; the per-run tables don't apply.
		agg := affinity.NewRunner(*workers).RunSeeds(cfg, *seeds)
		fmt.Println(agg)
		return
	}

	r := affinity.Run(cfg)
	writeTrace := func(path string, write func(w *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "affinity-sim:", err)
			os.Exit(1)
		}
		if err := write(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "affinity-sim:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		writeTrace(*traceOut, func(f *os.File) error {
			return affinity.WriteChromeTrace(f, r.Trace, cfg.CPU.ClockHz)
		})
	}
	if *traceText != "" {
		writeTrace(*traceText, func(f *os.File) error {
			return affinity.WriteTextTrace(f, r.Trace, cfg.CPU.ClockHz)
		})
	}
	if *timeseries != "" {
		writeTrace(*timeseries, func(f *os.File) error {
			return r.Series.WriteCSV(f)
		})
	}
	if *jsonOut {
		js, err := r.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(js)
	} else {
		fmt.Println(r)
		if r.Requests > 0 {
			clk := float64(cfg.CPU.ClockHz)
			us := func(cyc uint64) float64 { return float64(cyc) / clk * 1e6 }
			fmt.Printf("latency: %d requests, p50=%.1fµs p99=%.1fµs p999=%.1fµs\n",
				r.Requests, us(r.LatencyP50Cycles), us(r.LatencyP99Cycles), us(r.LatencyP999Cycles))
		}
		if r.ConnsGenerated > 0 {
			fmt.Printf("churn: %d generated, %d completed, %d abandoned, %d SYN drops\n",
				r.ConnsGenerated, r.Transactions, r.ConnsAbandoned, r.SynDrops)
		}
		if r.OutOfOrder > 0 || r.FlowResteers > 0 {
			fmt.Printf("reorder: %d out-of-order drops, %d dup ACKs, %d fast retransmits, %d flow re-steers\n",
				r.OutOfOrder, r.DupAcks, r.FastRetransmits, r.FlowResteers)
		}
		if !cfg.Faults.Empty() {
			fmt.Printf("faults: %d wire drops, %d retransmits, goodput ratio %.4f",
				r.WireDrops, r.Retransmits, r.GoodputRatio)
			if n := len(r.FlapRecoveryCycles); n > 0 {
				fmt.Printf(", %d flap recoveries", n)
			}
			if r.InvariantViolation != "" {
				fmt.Printf("\ninvariants: VIOLATED — %s\n", r.InvariantViolation)
			} else {
				fmt.Println("\ninvariants: ok (buffers conserved, timers disarmed, sequences agree)")
			}
		}
	}
	if r.InvariantViolation != "" {
		fmt.Fprintln(os.Stderr, "affinity-sim: invariant violation:", r.InvariantViolation)
		os.Exit(1)
	}

	if *table1 {
		fmt.Println()
		fmt.Print(affinity.BaselineTable(r).Format())
	}
	if *fig5 {
		fmt.Println()
		for _, s := range affinity.Indicators(r) {
			fmt.Printf("%-14s %12d %7.1f%%\n", s.Event, s.Count, 100*s.Share)
		}
	}
	if *table4 {
		fmt.Println()
		fmt.Print(affinity.FormatTopSymbols(affinity.TopClearSymbols(r, 10)))
	}
	if *perCPU {
		for cpu, tab := range affinity.PerCPUBinTables(r) {
			fmt.Printf("\n--- CPU %d ---\n", cpu)
			fmt.Print(tab.Format())
		}
	}
}

// checkRun rejects a non-positive transaction size and an empty
// measured window, which has no rates to report.
func checkRun(size int, measure uint64) error {
	if size <= 0 || measure == 0 {
		return fmt.Errorf("-size %d -measure %d: each must be positive", size, measure)
	}
	return nil
}

// topology resolves the machine-shape flags, rejecting a non-positive
// CPU, NIC or queue count.
func topology(cpus, nics, queues, conns int) (affinity.Topology, error) {
	if cpus <= 0 || nics <= 0 || queues <= 0 {
		return affinity.Topology{}, fmt.Errorf("-cpus %d -nics %d -queues %d: each must be positive", cpus, nics, queues)
	}
	if err := topo.CheckNICs(nics); err != nil {
		return affinity.Topology{}, fmt.Errorf("-nics: %w", err)
	}
	t := affinity.Uniform(cpus, nics, queues)
	t.Conns = conns
	return t, nil
}
