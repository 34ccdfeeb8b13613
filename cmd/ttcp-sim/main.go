// Command ttcp-sim mimics the classic ttcp micro-benchmark's interface on
// top of the simulator: one invocation plays both the transmitter(s) and
// the ideal far end, reporting per-connection and aggregate goodput the
// way ttcp prints its summary.
//
// Usage:
//
//	ttcp-sim -t -l 65536            # transmit test, 64 KB writes
//	ttcp-sim -r -l 8192 -conns 4    # receive test, 4 connections
//	ttcp-sim -t -mode full          # pin processes and interrupts
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/affinity"
	"repro/internal/buildinfo"
	"repro/internal/sim"
)

func main() {
	transmit := flag.Bool("t", false, "transmit test (SUT sends)")
	receive := flag.Bool("r", false, "receive test (SUT receives)")
	length := flag.Int("l", 8192, "length of bufs written/read")
	conns := flag.Int("conns", 8, "number of connections (= NICs = processes)")
	modeFlag := flag.String("mode", "none", "affinity mode: none|proc|irq|full")
	seconds := flag.Float64("secs", 0.12, "measured virtual seconds")
	seed := flag.Uint64("seed", 1, "simulation seed")
	latency := flag.Bool("latency", false, "report per-call latency percentiles")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print("ttcp-sim")
		return
	}

	dir := affinity.TX
	switch {
	case *transmit && *receive:
		fmt.Fprintln(os.Stderr, "ttcp-sim: -t and -r are mutually exclusive")
		os.Exit(2)
	case *receive:
		dir = affinity.RX
	}

	mode, err := affinity.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcp-sim:", err)
		os.Exit(2)
	}

	if *conns <= 0 {
		fmt.Fprintln(os.Stderr, "ttcp-sim: -conns must be positive")
		os.Exit(2)
	}

	cfg := affinity.DefaultConfig(mode, dir, *length)
	cfg.Seed = *seed
	cfg.Topology = affinity.Uniform(cfg.Topology.NumCPUs, *conns, 1)
	cfg.MeasureCycles = uint64(*seconds * float64(cfg.CPU.ClockHz))

	m := affinity.NewMachine(cfg)
	defer m.Shutdown()
	for _, p := range m.Procs {
		p.RecordLatency = *latency
	}
	m.Eng.Run(sim.Time(cfg.WarmupCycles))
	r := m.Measure(cfg.MeasureCycles)

	what := "ttcp-t"
	if dir == affinity.RX {
		what = "ttcp-r"
	}
	fmt.Printf("%s: buflen=%d, conns=%d, mode=%s\n", what, *length, *conns, mode)
	for i, p := range m.Procs {
		bytes := p.Sock.AppBytesOut()
		if dir == affinity.RX {
			bytes = p.Sock.AppBytesIn()
		}
		fmt.Printf("  conn %d (nic %d): %d bytes total, %d calls\n",
			i, p.Sock.NIC.ID(), bytes, p.Transactions)
	}
	secs := float64(r.ElapsedCycles) / float64(cfg.CPU.ClockHz)
	fmt.Printf("%s: %d bytes in %.3f real seconds = %.2f Mbit/sec +++\n",
		what, r.Bytes, secs, r.Mbps)
	fmt.Printf("%s: cpu util %s, cost %.2f GHz/Gbps\n", what, fmtUtil(r.Util), r.CostGHzPerGbps)
	if *latency {
		toUs := 1e6 / float64(cfg.CPU.ClockHz)
		for i, p := range m.Procs {
			ls := p.Latency()
			if ls.Count == 0 {
				continue
			}
			fmt.Printf("  conn %d latency (us): min=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f (n=%d)\n",
				i, float64(ls.Min)*toUs, float64(ls.Median)*toUs, float64(ls.P90)*toUs,
				float64(ls.P99)*toUs, float64(ls.Max)*toUs, ls.Count)
		}
	}
}

func fmtUtil(us []float64) string {
	s := ""
	for i, u := range us {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprintf("%.0f%%", 100*u)
	}
	return s
}
