// Package ttcp implements the paper's micro-benchmark workload: bulk
// data transmits and receives between the SUT and its clients over
// long-lived connections, reusing one buffer for every transaction (§4).
// Eight ttcp processes serve eight connections over eight NICs.
package ttcp

import (
	"fmt"
	"sort"

	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/tcp"
)

// Direction selects the bulk-transfer direction of the test.
type Direction int

const (
	// TX: the SUT transmits to the clients.
	TX Direction = iota
	// RX: the clients transmit to the SUT.
	RX
)

// String names the direction as the paper's figures do.
func (d Direction) String() string {
	if d == TX {
		return "TX"
	}
	return "RX"
}

// Proc is one ttcp process: a task in an endless read or write loop over
// one connection.
type Proc struct {
	Task   *kern.Task
	Sock   *tcp.Socket
	Client *tcp.Client
	// Transactions counts completed read/write calls.
	Transactions uint64
	// RecordLatency keeps per-transaction durations for Latency. It is
	// host-side bookkeeping that never changes a simulated cycle; set it
	// before the engine first runs the process.
	RecordLatency bool
	userBuf       mem.Addr
	stop          bool
	stopped       bool

	// latencies records per-transaction durations (cycles) while
	// RecordLatency is set; see Latency.
	latencies []uint64
}

// LatencyStats summarizes recorded per-transaction durations in cycles.
type LatencyStats struct {
	Count            int
	Min, Median, Max uint64
	P90, P99         uint64
}

// Latency summarizes the recorded transaction durations. It returns a
// zero struct if latency recording was off or nothing completed.
func (p *Proc) Latency() LatencyStats {
	if len(p.latencies) == 0 {
		return LatencyStats{}
	}
	ls := append([]uint64(nil), p.latencies...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	pct := func(q float64) uint64 {
		i := int(q * float64(len(ls)-1))
		return ls[i]
	}
	return LatencyStats{
		Count:  len(ls),
		Min:    ls[0],
		Median: pct(0.5),
		P90:    pct(0.9),
		P99:    pct(0.99),
		Max:    ls[len(ls)-1],
	}
}

// Config describes one ttcp instance.
type Config struct {
	// Name is the process name (diagnostics).
	Name string
	// Dir is the transfer direction.
	Dir Direction
	// Size is the per-transaction buffer size (the paper sweeps 128 B
	// through 64 KB).
	Size int
	// StartCPU is where the process is first enqueued.
	StartCPU int
	// Affinity is the process CPU mask (0 = unrestricted). The full and
	// process-affinity modes pin here via sys_sched_setaffinity.
	Affinity uint32
	// ThinkCycles inserts virtual think time between transactions
	// (0 = back-to-back bulk transfer, the paper's workload).
	ThinkCycles uint64
}

// Launch spawns one ttcp process on st's kernel driving sock. The process
// loops forever; measurement windows sample its steady state.
func Launch(st *tcp.Stack, sock *tcp.Socket, client *tcp.Client, cfg Config) *Proc {
	if cfg.Size <= 0 {
		panic(fmt.Sprintf("ttcp: bad transaction size %d", cfg.Size))
	}
	k := st.K
	p := &Proc{
		Sock:   sock,
		Client: client,
		// The transaction buffer: reused every iteration, so it is served
		// from cache once warm — "we have set ttcp to serve data directly
		// from cache" (§6.1). Page-aligned like a real malloc of this size.
		userBuf: k.Space.AllocPage(roundUp(cfg.Size, mem.PageSize), "ttcp_buf:"+cfg.Name),
	}
	body := func(env *kern.Env) {
		for !p.stop {
			start := k.Eng.Now()
			switch cfg.Dir {
			case TX:
				sock.Write(env, p.userBuf, cfg.Size)
			case RX:
				sock.Read(env, p.userBuf, cfg.Size)
			}
			p.Transactions++
			if p.RecordLatency {
				p.latencies = append(p.latencies, uint64(k.Eng.Now()-start))
			}
			if cfg.ThinkCycles > 0 {
				env.Delay(env.Kernel().Eng.RNG().Jitter(cfg.ThinkCycles, 0.2))
			}
		}
		p.stopped = true
	}
	p.Task = k.Spawn(cfg.Name, cfg.StartCPU, cfg.Affinity, body)
	return p
}

// Stop asks the process to exit at its next transaction boundary (the
// invariant checker's quiesce phase). A process blocked forever — an
// RX reader with no more data coming — simply never observes the flag;
// it holds no buffers while blocked, so draining does not need it.
func (p *Proc) Stop() { p.stop = true }

// Stopped reports whether the loop has exited.
func (p *Proc) Stopped() bool { return p.stopped }

func roundUp(n, to int) int {
	return (n + to - 1) / to * to
}
