package workload

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/ttcp"
)

// Bulk is the paper's workload (§4): one ttcp process per pre-established
// connection in an endless bulk read or write loop, clients sourcing for
// RX connections. With Alternate set, odd connections run the opposite
// direction — the iSCSI mixed read/write target of §8.
type Bulk struct {
	Alternate bool
}

// Name implements Workload.
func (w *Bulk) Name() string {
	if w.Alternate {
		return "bulk-alt"
	}
	return "bulk"
}

// PreEstablish implements Workload: bulk runs over the paper's
// long-lived pre-established connections.
func (w *Bulk) PreEstablish() bool { return true }

// dirOf resolves connection i's direction under the Alternate split.
func (w *Bulk) dirOf(m *Machine, i int) ttcp.Direction {
	if w.Alternate && i%2 == 1 {
		if m.Dir == ttcp.TX {
			return ttcp.RX
		}
		return ttcp.TX
	}
	return m.Dir
}

// Launch implements Workload: spawn the ttcp processes in connection
// order, then register the client sources for RX connections — exactly
// the sequence the assembler ran before the workload layer existed, so
// bulk cells remain byte-identical.
func (w *Bulk) Launch(m *Machine) {
	for i := range m.Sockets {
		p := ttcp.Launch(m.St, m.Sockets[i], m.Clients[i], ttcp.Config{
			Name:     fmt.Sprintf("ttcp%d", i),
			Dir:      w.dirOf(m, i),
			Size:     m.Size,
			StartCPU: m.Plan.StartCPUs[i],
			Affinity: m.Plan.ProcMasks[i],
		})
		m.Procs = append(m.Procs, p)
		m.BindFlow(i, p.Task)
	}
	for i, c := range m.Clients {
		if w.dirOf(m, i) == ttcp.RX {
			c := c
			m.Eng.At(0, func() { c.StartSource() })
		}
	}
}

// Bytes implements Workload: application goodput in each connection's
// workload direction — bytes the clients received (TX) plus bytes the
// SUT's readers consumed (RX).
func (w *Bulk) Bytes(m *Machine) uint64 {
	var total uint64
	for i := range m.Clients {
		if w.dirOf(m, i) == ttcp.TX {
			total += m.Clients[i].BytesReceived
		} else {
			total += m.Sockets[i].AppBytesIn()
		}
	}
	return total
}

// Transactions implements Workload.
func (w *Bulk) Transactions(m *Machine) uint64 {
	var total uint64
	for _, p := range m.Procs {
		total += p.Transactions
	}
	return total
}

// Latency implements Workload: bulk keeps per-transaction latencies on
// its Procs (ttcp.Proc.Latency), not a request sketch.
func (w *Bulk) Latency() *stats.Sketch { return nil }

// OpenLoop implements Workload.
func (w *Bulk) OpenLoop() bool { return false }

// Quiescible implements Workload: ttcp loops honour the stop-and-drain
// protocol the invariant checker uses.
func (w *Bulk) Quiescible() bool { return true }
