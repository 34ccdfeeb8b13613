package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// The bulk workloads' simulated windows: no longer than
// affinity-figures -quick (30M warmup + 100M measured cycles), short
// enough that one pass of four cells takes a few seconds of host time
// and a timed run holds several passes.
const (
	cellWarmupCycles  = 10_000_000
	cellMeasureCycles = 40_000_000
)

// spanCells are the cells with a core.cell_s.<name> span, in report
// order.
var spanCells = []string{
	"tx64k_none", "tx64k_full", "rx64k_none", "rx64k_full",
	"tx128_none", "tx128_full", "rx128_none", "rx128_full",
	"openloop10k_full",
}

// cell is one simulation a cell workload runs per pass.
type cell struct {
	name string
	cfg  core.Config
	// conns is the open-loop cell's connection count; every one must
	// complete (0 for bulk cells).
	conns int
}

// bulkCells are the paper's canonical points of one transfer size, TX
// and RX, under no and full affinity.
func bulkCells(seed uint64, size int) []cell {
	var cells []cell
	for _, p := range core.ExtremePoints() {
		if p.Size != size {
			continue
		}
		for _, m := range []core.Mode{core.ModeNone, core.ModeFull} {
			cfg := core.DefaultConfig(m, p.Dir, p.Size)
			cfg.Seed = seed
			cfg.WarmupCycles, cfg.MeasureCycles = cellWarmupCycles, cellMeasureCycles
			cells = append(cells, cell{name: cellName(p.Dir, p.Size, m), cfg: cfg})
		}
	}
	return cells
}

func cellName(dir ttcp.Direction, size int, m core.Mode) string {
	s := fmt.Sprint(size)
	if size%1024 == 0 {
		s = fmt.Sprintf("%dk", size/1024)
	}
	return fmt.Sprintf("%s%s_%s", strings.ToLower(dir.String()), s, serve.ModeToken(m))
}

// openLoopCells is one open-loop churn cell at the workload layer's
// default connection count, under full affinity, run to completion.
func openLoopCells(seed uint64) []cell {
	spec, err := workload.Parse("openloop")
	if err != nil {
		panic(err) // a constant spec: only a bug can break it
	}
	cfg := core.DefaultConfig(core.ModeFull, ttcp.TX, 65536)
	cfg.Seed = seed
	cfg.Workload = spec
	return []cell{{name: fmt.Sprintf("openloop%dk_full", spec.Conns/1000), cfg: cfg, conns: spec.Conns}}
}

// cellRun is one cell's outcome within a pass.
type cellRun struct {
	wall, cpu float64
	scaled    float64 // CPU seconds at the reference speed, when probed (see ref.go)
	// digest covers the exported result bytes and the simulated counts
	// below, so a host-only change must reproduce it exactly.
	digest string
	engine struct{ fired, scheduled, band uint64 }
	instr  uint64
	llc    uint64
	err    error
}

// pass is one serial run of every cell of a workload.
type pass struct {
	wall, cpu float64 // summed over the cells
	rssMB     float64 // the pass's resident-set high-water mark
	cells     []cellRun
	allocMB   float64
	gcCycles  uint32
}

// runPass runs every cell once. When probed, a speed probe runs beside
// each cell; a traced pass has none, because the profile would charge it.
func runPass(cells []cell, probed bool) (pass, error) {
	if err := resetPeakRSS(); err != nil {
		return pass{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := pass{cells: make([]cellRun, len(cells))}
	for i, c := range cells {
		p.cells[i] = simulate(c, probed)
		p.wall += p.cells[i].wall
		p.cpu += p.cells[i].cpu
	}
	rss, err := peakRSSMB()
	if err != nil {
		return pass{}, err
	}
	p.rssMB = rss
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	p.gcCycles = m1.NumGC - m0.NumGC
	return p, nil
}

// simulate runs one cell through core.Run and digests its output.
func simulate(c cell, probed bool) (out cellRun) {
	var p *probe
	defer func() {
		if v := recover(); v != nil {
			out.err = fmt.Errorf("simulation panicked: %v", v)
			if p != nil {
				p.scale(0) // stop the probe; the cell has failed
			}
		}
	}()
	if probed {
		p = startProbe()
	}
	c0, t := cpuSeconds(), time.Now()
	r := core.Run(c.cfg)
	out.wall, out.cpu = time.Since(t).Seconds(), cpuSeconds()-c0
	if p != nil {
		out.scaled, out.err = p.scale(out.cpu)
		p = nil
		if out.err != nil {
			return out
		}
	}
	if r.Aborted {
		out.err = fmt.Errorf("aborted: %s", r.AbortReason)
		return out
	}
	if c.conns > 0 && r.Transactions != uint64(c.conns) {
		out.err = fmt.Errorf("open-loop cell completed %d of %d connections", r.Transactions, c.conns)
		return out
	}
	line, err := json.Marshal(r.Export())
	if err != nil {
		out.err = err
		return out
	}
	out.engine.fired, out.engine.scheduled, out.engine.band = r.Engine.Fired, r.Engine.Scheduled, r.Engine.BandScheduled
	out.instr = r.Ctr.Total(perf.Instructions)
	out.llc = r.Ctr.Total(perf.LLCMisses)
	out.digest = digest(line, fmt.Appendf(nil, "events_fired=%d events_scheduled=%d band_scheduled=%d instructions=%d\n",
		out.engine.fired, out.engine.scheduled, out.engine.band, out.instr))
	return out
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPass counts each cell of a pass as one operation: it fails on an
// error or on a digest that differs from want (the pinned digests, or
// the first pass's for a seed without pins). It returns the reference
// for the next pass.
func checkPass(rep *report, cells []cell, p pass, want map[string]string) map[string]string {
	if want == nil {
		want = map[string]string{}
		for i, c := range cells {
			want[c.name] = p.cells[i].digest
		}
	}
	for i, c := range cells {
		err := p.cells[i].err
		if err == nil && p.cells[i].digest != want[c.name] {
			err = fmt.Errorf("output digest %.12s differs from the oracle's %.12s", p.cells[i].digest, want[c.name])
		}
		rep.check(c.name, err)
	}
	return want
}

// buildCells is a cell workload's set-up: it builds and shuts down every
// cell's machine without running it.
func buildCells(cells []cell) func() error {
	return func() error {
		for _, c := range cells {
			core.NewMachine(c.cfg).Shutdown()
		}
		return nil
	}
}

// runCells is a cell workload: the cells run serially in this process,
// pass after pass.
func runCells(b *bench, rep *report, cells []cell) error {
	want, err := pinned(b)
	if err != nil {
		return err
	}
	if b.pin {
		p, err := runPass(cells, false)
		if err != nil {
			return err
		}
		digests := map[string]string{}
		for i, c := range cells {
			if err := p.cells[i].err; err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			digests[c.name] = p.cells[i].digest
		}
		return pin(b, digests)
	}
	if b.trace {
		build, err := setupTime(buildCells(cells))
		if err != nil {
			return err
		}
		return traceCells(rep, cells, want, build)
	}
	var setups, rss []float64
	scaled := make([][]float64, len(cells)) // each cell's CPU seconds at the reference speed, per pass
	err = b.timedPasses(func(i int) error {
		s, err := setupTime(buildCells(cells))
		if err != nil {
			return err
		}
		setups = append(setups, s)
		p, err := runPass(cells, true)
		if err != nil {
			return err
		}
		want = checkPass(rep, cells, p, want)
		var sum float64
		for j, c := range p.cells {
			scaled[j] = append(scaled[j], c.scaled)
			sum += c.scaled
		}
		rss = append(rss, p.rssMB)
		fmt.Printf("pass %d: setup %.5fs host %.3fs cpu %.3fs (with the probe; %.3fs at reference speed) peak rss %.1fMiB\n",
			i, s, p.wall, p.cpu, sum, p.rssMB)
		return nil
	})
	if err != nil {
		return err
	}
	var cpu float64
	for _, s := range scaled {
		cpu += median(s)
	}
	rep.setEndToEnd(setups, cpu, rss)
	return nil
}

// traceCells is a cell workload's traced run: one pass under the CPU
// profiler with a span per cell, between two untraced passes whose mean
// CPU time is the baseline for the tracing overhead.
func traceCells(rep *report, cells []cell, want map[string]string, build float64) error {
	base, err := runPass(cells, false)
	if err != nil {
		return err
	}
	want = checkPass(rep, cells, base, want)
	var prof bytes.Buffer
	if err := startProfile(&prof); err != nil {
		return err
	}
	traced, err := runPass(cells, false)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	checkPass(rep, cells, traced, want)
	after, err := runPass(cells, false)
	if err != nil {
		return err
	}
	checkPass(rep, cells, after, want)
	if err := setShares(rep, prof.Bytes()); err != nil {
		return err
	}

	rep.set("host_s", (base.wall+after.wall)/2)
	for i, c := range cells {
		rep.set("core.cell_s."+c.name, traced.cells[i].wall)
	}
	rep.set("core.build_s", build)
	var fired, scheduled, band, instr, llc uint64
	for _, c := range base.cells {
		fired += c.engine.fired
		scheduled += c.engine.scheduled
		band += c.engine.band
		instr += c.instr
		llc += c.llc
	}
	rep.set("sim.events_fired", float64(fired))
	if scheduled > 0 {
		rep.set("sim.band_share", float64(band)/float64(scheduled))
	}
	rep.set("cpu.instructions", float64(instr))
	rep.set("mem.llc_misses", float64(llc))
	if fired > 0 {
		rep.set("sim.host_ns_per_event", base.cpu*1e9/float64(fired))
	}
	if instr > 0 {
		rep.set("cpu.host_ns_per_kinstr", base.cpu*1e9/(float64(instr)/1000))
	}
	rep.set("runtime.alloc_mb", base.allocMB)
	rep.set("runtime.gc_cycles", float64(base.gcCycles))
	rep.set("trace_overhead_frac", 2*traced.cpu/(base.cpu+after.cpu)-1)
	fmt.Printf("untraced passes: cpu %.3fs, %.3fs; traced pass: host %.3fs cpu %.3fs\n", base.cpu, after.cpu, traced.wall, traced.cpu)
	return microTimings(rep)
}

// profileHz is the CPU profile's sampling rate: five times
// runtime/pprof's fixed 100 Hz, so a traced pass of a few seconds yields
// enough samples to resolve shares of a few percent.
const profileHz = 500

// startProfile starts the CPU profiler at profileHz. The runtime keeps
// the rate set before StartCPUProfile asks for 100 Hz, and says so on
// standard error.
func startProfile(w io.Writer) error {
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(w)
}

// setShares charges a CPU profile to layers and records every share.
func setShares(rep *report, profile []byte) error {
	stacks, err := parseProfile(profile)
	if err != nil {
		return err
	}
	a := attribute(stacks)
	for _, b := range shareBuckets {
		rep.set(b+".cpu_share", a.share(a.charged[b]))
	}
	rep.set("mem.dir_map_share", a.share(a.dirMap))
	rep.set("sim.coro_share", a.share(a.coro))
	rep.set("runtime.sched_share", a.share(a.sched))
	rep.set("runtime.gc_share", a.share(a.gc))
	fmt.Printf("profile: %d samples; %.1f%% left in runtime after charging\n", a.total, 100*a.share(a.charged["runtime"]))
	return nil
}
