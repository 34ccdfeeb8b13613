// Command perfbench is the repository's host-cost benchmark: it runs one
// workload against the simulator (or its fleet), checks every output
// byte against an oracle, and prints the end-to-end host metrics (timed
// run, --trace 0) or the per-layer attribution (traced run, --trace 1).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload bulk_copy --seed 1 --seconds 25 --trace 0
//
// Every layer is measured from outside: the benchmark times calls into
// each package's public functions and HTTP handlers and adds no
// instrumentation inside the program. See README.md for the metric →
// layer → workload table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the timed run's metrics, reported for every workload.
// Times are process CPU seconds scaled to a reference speed (see
// ref.go): on a shared virtual machine the wall clock also counts time
// the hypervisor gives to other guests, and the CPU's speed drifts. The
// traced run reports wall time as host_s.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. Every workload prints all of
// them; a metric that does not apply to the workload reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range shareBuckets {
		defs = append(defs, metricDef{b + ".cpu_share", "ratio"})
	}
	defs = append(defs,
		metricDef{"mem.dir_map_share", "ratio"},
		metricDef{"sim.coro_share", "ratio"},
		metricDef{"runtime.sched_share", "ratio"},
		metricDef{"runtime.gc_share", "ratio"},
		metricDef{"host_s", "s"},
	)
	for _, c := range spanCells {
		defs = append(defs, metricDef{"core.cell_s." + c, "s"})
	}
	defs = append(defs,
		metricDef{"core.build_s", "s"},
		metricDef{"serve.handle_ms_p50", "ms"},
		metricDef{"coord.overhead_ms_p50", "ms"},
		metricDef{"coord.self_s", "s"},
		metricDef{"mem.access_range_64k_ns", "ns"},
		metricDef{"mem.dir_has_copy_ns", "ns"},
		metricDef{"mem.tlb_access_ns", "ns"},
		metricDef{"sim.coro_handoff_ns", "ns"},
		metricDef{"sim.schedule_fire_ns", "ns"},
		metricDef{"cache.fingerprint_us", "us"},
		metricDef{"cache.hit_us", "us"},
		metricDef{"coord.journal_append_us", "us"},
		metricDef{"sim.events_fired", "count"},
		metricDef{"sim.band_share", "ratio"},
		metricDef{"cpu.instructions", "count"},
		metricDef{"mem.llc_misses", "count"},
		metricDef{"sim.host_ns_per_event", "ns"},
		metricDef{"cpu.host_ns_per_kinstr", "ns"},
		metricDef{"runtime.alloc_mb", "MiB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"coord.dispatches", "count"},
		metricDef{"coord.warm_dispatches", "count"},
		metricDef{"coord.memo_hit_ratio", "ratio"},
		metricDef{"coord.journal_appends", "count"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"warm_sweep_p50_ms", "ms"},
		metricDef{"warm_sweep_tail_ms", "ms"},
		metricDef{"trace_overhead_frac", "ratio"},
		metricDef{"failed_frac", "ratio"},
	)
	return defs
}()

// bench is one invocation's settings.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	pin      bool
}

// minPasses is the fewest timed passes a run makes, however short
// --seconds is: the reported figure is their median, and for seeds
// without pinned digests the passes are checked against each other.
const minPasses = 3

var workloads = map[string]func(*bench, *report) error{
	"bulk_copy":      func(b *bench, r *report) error { return runCells(b, r, bulkCells(b.seed, 65536)) },
	"bulk_small":     func(b *bench, r *report) error { return runCells(b, r, bulkCells(b.seed, 128)) },
	"openloop_churn": func(b *bench, r *report) error { return runCells(b, r, openLoopCells(b.seed)) },
	"fleet_sweep":    runFleet,
}

func main() {
	var b bench
	flag.StringVar(&b.workload, "workload", "", "workload to run: bulk_copy, bulk_small, openloop_churn or fleet_sweep")
	flag.Uint64Var(&b.seed, "seed", 1, "seed fed to every cell's Config.Seed")
	seconds := flag.Float64("seconds", 10, "how long the timed run measures")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&b.pin, "pin", false, "record this seed's output digests in perfbench/oracle.json instead of measuring")
	flag.Parse()

	run, ok := workloads[b.workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || b.seed == 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n≥1> --seconds <s> --trace <0|1>\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	b.seconds = time.Duration(*seconds * float64(time.Second))
	b.trace = *trace == 1

	// The benchmark runs on one P, whatever the host has. A workload runs
	// one simulation at a time, and every sim.Coro switch is a send on an
	// unbuffered channel. With a second P idle, each send also wakes a
	// thread that spins on another core, finds no work and sleeps again.
	// That spinning is process CPU time, and how long it lasts depends on
	// how fast the hypervisor wakes an idle vCPU, not on the program. On
	// one P a switch is a goroutine switch on one thread. The process is
	// also bound to one CPU, for the speed probe (see ref.go).
	runtime.GOMAXPROCS(1)
	cpu, err := pinToOneCPU()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	fmt.Println(hostFacts(), "bound to CPU", cpu)
	rep := newReport()
	if err := run(&b, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if b.pin {
		return
	}
	defs := endToEnd
	if b.trace {
		rep.set("failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)))
		defs = perLayer
	}
	if err := rep.print(defs, !b.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report collects one run's operations and metric values.
type report struct {
	attempted, failed int
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// check counts one operation, failed when err is non-nil.
func (r *report) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Printf("FAIL %s: %v\n", what, err)
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setEndToEnd records a timed run's metrics: the median set-up time over
// its passes, the pass CPU time (both at the reference speed, see ref.go)
// and the median resident-set peak. A cell workload's pass CPU time is
// the sum over its cells of each cell's median, the fleet's the median
// pass.
func (r *report) setEndToEnd(setups []float64, cpu float64, rss []float64) {
	r.set("setup_s", median(setups))
	r.set("cpu_s", cpu)
	r.set("peak_rss_mb", median(rss))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric of defs as a readable line, then the result
// object as the last line. A metric a workload does not measure reads 0;
// when required, a missing metric is an error instead.
func (r *report) print(defs []metricDef, required bool) error {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && required {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("%-32s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostFacts records where a result was measured, so figures from
// different hosts are never compared.
func hostFacts() string {
	model := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model, commit)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS collects garbage, returns the freed memory to the kernel
// and restarts the kernel's resident-set high-water mark, so each pass
// reports its own peak from the same starting point rather than one
// GC-timing outlier for the whole process. Without returning the memory,
// a pass starts with whatever the previous one left resident, which on
// one P, where the runtime's background scavenger gets little time,
// varied from 25 to 116 MiB between passes of one run. It fails where
// the kernel refuses the reset (before Linux 4.0), because the
// process-lifetime peak is a different quantity.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.Write([]byte("5")); err != nil { // 5: reset the peak RSS
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// peakRSSMB is the resident-set high-water mark since resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Before every timed pass, a workload repeats its set-up at least
// setupMinReps times and until the repetitions have taken setupMinCPU
// seconds of CPU, and reports their mean. A single set-up takes from one
// (fleet) to ten (bulk cells) milliseconds, too short to time alone: the
// speed probe samples only every 10 ms.
const (
	setupMinReps = 5
	setupMinCPU  = 0.2
)

// setupTime runs setup as set out above, with a speed probe beside it
// (see ref.go), and returns the CPU seconds of one repetition at the
// reference speed.
func setupTime(setup func() error) (float64, error) {
	runtime.GC()
	p := startProbe()
	c0 := cpuSeconds()
	reps := 0
	for ; reps < setupMinReps || cpuSeconds()-c0 < setupMinCPU; reps++ {
		if err := setup(); err != nil {
			p.scale(0)
			return 0, err
		}
	}
	cpu, err := p.scale(cpuSeconds() - c0)
	return cpu / float64(reps), err
}

// timedPasses calls pass until the run has measured for b.seconds and
// made at least minPasses passes.
func (b *bench) timedPasses(pass func(i int) error) error {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < b.seconds; i++ {
		if err := pass(i); err != nil {
			return err
		}
	}
	return nil
}
