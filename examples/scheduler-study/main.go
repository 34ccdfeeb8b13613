// Scheduler-study: sweep every affinity mode across the paper's
// transaction sizes in both directions and emit the results as CSV —
// the raw data behind Figures 3 and 4, ready for external plotting.
//
// The sweep also demonstrates the §7-discussed alternative: the Linux
// 2.6-style rotating interrupt distribution, reported as a fifth
// "mode" column for comparison.
//
// With -scaling the study instead sweeps the machine shape: the same
// workload on 2-, 4- and 8-processor topologies under every mode, the
// paper's §5 scaling observation ("the bottleneck that CPU0 imposes on
// a 4P system becomes even more pronounced") as one CSV.
//
// The cells of each sweep run concurrently across the host's cores
// (affinity.RunAll); rows print in the same deterministic order — and
// with the same values — as a serial sweep.
//
//	go run ./examples/scheduler-study > sweep.csv
//	go run ./examples/scheduler-study -scaling > scaling.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/affinity"
)

func main() {
	scaling := flag.Bool("scaling", false, "sweep CPU counts {2,4,8} instead of transaction sizes")
	flag.Parse()
	if *scaling {
		scalingSweep()
		return
	}
	sizeSweep()
}

// quick trims a config to sweep-friendly windows; bump for precision.
func quick(cfg affinity.Config) affinity.Config {
	cfg.WarmupCycles = 30_000_000
	cfg.MeasureCycles = 100_000_000
	return cfg
}

func sizeSweep() {
	sizes := affinity.Sizes()
	rotate, _ := affinity.PolicyByName("rotate")
	fmt.Println("dir,size,mode,mbps,util,cost_ghz_per_gbps")

	for _, dir := range []affinity.Direction{affinity.TX, affinity.RX} {
		var labels []string
		var cfgs []affinity.Config
		add := func(label string, cfg affinity.Config) {
			labels = append(labels, label)
			cfgs = append(cfgs, quick(cfg))
		}
		for _, size := range sizes {
			for _, mode := range affinity.Modes() {
				add(mode.String(), affinity.DefaultConfig(mode, dir, size))
			}
			// The 2.6-style rotating IRQ policy (paper §7): random-ish
			// redistribution fixes the CPU0 bottleneck but keeps cache
			// inefficiencies, and pays for TPR updates.
			cfg := affinity.DefaultConfig(affinity.ModeNone, dir, size)
			cfg.Policy = rotate
			add("Rotate IRQ", cfg)
		}
		for i, r := range affinity.RunAll(cfgs) {
			fmt.Printf("%s,%d,%s,%.2f,%.4f,%.4f\n",
				dir, cfgs[i].Size, labels[i], r.Mbps, r.AvgUtil, r.CostGHzPerGbps)
		}
		fmt.Fprintf(os.Stderr, "%s sweep done\n", dir)
	}
}

// scalingSweep holds the workload fixed (TX 64 KB over 8 NICs) and grows
// the processor count: on bigger machines no-affinity leaves ever more
// idle cycles stranded behind the CPU0 interrupt bottleneck, so the
// affinity gain widens with scale.
func scalingSweep() {
	cpuCounts := []int{2, 4, 8}
	fmt.Println("cpus,mode,mbps,util,cost_ghz_per_gbps,gain_vs_none")

	var labels []string
	var cfgs []affinity.Config
	for _, cpus := range cpuCounts {
		for _, mode := range affinity.Modes() {
			cfg := affinity.DefaultConfig(mode, affinity.TX, 65536)
			cfg.Topology = affinity.Uniform(cpus, 8, 1)
			labels = append(labels, mode.String())
			cfgs = append(cfgs, quick(cfg))
		}
	}
	results := affinity.RunAll(cfgs)
	for i, r := range results {
		cpus := cpuCounts[i/len(affinity.Modes())]
		// The no-affinity baseline of this CPU count is the first cell of
		// its group.
		base := results[i/len(affinity.Modes())*len(affinity.Modes())]
		fmt.Printf("%d,%s,%.2f,%.4f,%.4f,%.1f%%\n",
			cpus, labels[i], r.Mbps, r.AvgUtil, r.CostGHzPerGbps,
			100*(r.Mbps/base.Mbps-1))
	}
	fmt.Fprintln(os.Stderr, "scaling sweep done")
}
