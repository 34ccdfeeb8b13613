package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/ttcp"
)

// microRounds is how many rounds each public-function timing makes; the
// median round is reported.
const microRounds = 5

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink any

// nsPerOp runs op n times per round and returns the median round's
// nanoseconds per call.
func nsPerOp(n int, op func(i int)) float64 {
	per := make([]float64, microRounds)
	for r := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per[r] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// microTimings times the public functions each layer's hot path goes
// through, with inputs shaped like the workloads': 64 KB copies between
// two CPUs sharing one coherence directory, dense line and page ranges,
// one coroutine handoff per simulated context switch, a deep event
// queue, and the fleet's fingerprint, cache-hit and journal paths.
func microTimings(rep *report) error {
	runtime.GC()
	l1, l2, llc := mem.P4XeonMP()
	dir := mem.NewDirectory(2)
	h := [2]*mem.Hierarchy{mem.NewHierarchy(0, l1, l2, llc, dir), mem.NewHierarchy(1, l1, l2, llc, dir)}
	const buf = mem.Addr(1 << 24)
	rep.set("mem.access_range_64k_ns", nsPerOp(200, func(i int) {
		// One CPU writes the buffer, the other reads it back.
		sink = h[i&1].AccessRange(buf, 64<<10, i&1 == 0)
	}))

	d := mem.NewDirectory(2)
	const lines = 1 << 16
	rep.set("mem.dir_has_copy_ns", nsPerOp(1<<18, func(i int) {
		line := buf + mem.Addr(i%lines)*mem.LineSize
		cpu := i & 1
		d.OnRead(cpu, line)
		sink = d.HasCopy(1-cpu, line)
	}))

	tlb := mem.NewTLB(64)
	rep.set("mem.tlb_access_ns", nsPerOp(1<<18, func(i int) {
		sink = tlb.Access(buf + mem.Addr(i%48)*mem.PageSize)
	}))

	c := sim.NewCoro("perfbench", func(c *sim.Coro) {
		for {
			c.Park()
		}
	})
	c.Resume()
	rep.set("sim.coro_handoff_ns", nsPerOp(20_000, func(int) { c.Resume() }))
	c.Kill()

	rep.set("sim.schedule_fire_ns", scheduleFireNs())

	cfg := core.DefaultConfig(core.ModeFull, ttcp.TX, 65536)
	rep.set("cache.fingerprint_us", nsPerOp(2000, func(int) { sink = cache.Fingerprint(cfg) })/1e3)
	cc := cache.New(cache.DefaultMaxBytes, "")
	res := &core.Result{Cfg: cfg}
	resident := func(core.Config) *core.Result { return res }
	cc.GetOrRun(cfg, resident)
	rep.set("cache.hit_us", nsPerOp(2000, func(int) { sink = cc.GetOrRun(cfg, resident) })/1e3)

	us, err := journalAppendUs()
	if err != nil {
		return err
	}
	rep.set("coord.journal_append_us", us)
	return nil
}

// scheduleFireNs times the engine's schedule+fire round trip with 256
// events pending: every fired event schedules its successor.
func scheduleFireNs() float64 {
	const events = 200_000
	per := make([]float64, microRounds)
	for r := range per {
		e := sim.NewEngine(1)
		n := 0
		var step func()
		step = func() {
			n++
			if n < events {
				e.After(sim.Cycles(1+uint64(n%97)), step)
			}
		}
		for i := 0; i < 256; i++ {
			e.At(sim.Time(i), step)
		}
		t := time.Now()
		e.Run(sim.Forever - 1)
		per[r] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// journalAppendUs times coord.Journal.Append of distinct fingerprints
// with a 2 KiB line, about one exported cell.
func journalAppendUs() (float64, error) {
	dir, err := os.MkdirTemp("", "perfbench-journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := coord.OpenJournal(dir, 0)
	if err != nil {
		return 0, err
	}
	line := bytes.Repeat([]byte("x"), 2048)
	k := 0
	us := nsPerOp(500, func(int) {
		k++
		j.Append(fmt.Sprintf("fp-%d", k), line)
	}) / 1e3
	if err := j.Close(); err != nil {
		return 0, err
	}
	return us, nil
}
