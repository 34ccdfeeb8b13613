// Package topo separates what the simulated machine looks like from
// where work lands on it. A Topology describes the hardware shape —
// processors, optional NUMA-ish locality domains, adapters with one or
// more receive queues, and the connection population served over them.
// A Plan describes placement — which CPU each queue's interrupt vector
// is routed to, which CPUs each serving process may run on, and which
// receive queue each flow is steered to. PlacementPolicy implementations
// turn a Topology into a Plan; the paper's four affinity modes, the §7
// partition and rotate variants, and the §8 RSS future work are all
// policies over the same machine description.
//
// The paper's own SUT (two processors, eight single-queue NICs, one
// connection and process per NIC) is just the default Topology; the
// layer exists so 4P/8P scaling curves and multi-queue RSS sweeps are
// configuration, not special cases.
package topo

import "fmt"

// NICShape describes one adapter of a Topology.
type NICShape struct {
	// Queues is the number of receive (RSS) queues, each with its own
	// interrupt vector; 0 or 1 is a classic single-queue device.
	Queues int
	// LinkBps is the link speed; 0 selects the paper's 1 Gb/s.
	LinkBps uint64
}

// queues normalizes the zero value to a single-queue device.
func (s NICShape) queues() int {
	if s.Queues <= 0 {
		return 1
	}
	return s.Queues
}

// Topology is the machine shape. It says nothing about placement — the
// same Topology can run under any PlacementPolicy.
type Topology struct {
	// NumCPUs is the processor count (1..32, the APIC's addressing limit).
	NumCPUs int
	// Domains optionally groups CPUs into NUMA-ish locality domains.
	// nil means one domain holding every CPU. When set, the domains must
	// partition [0, NumCPUs) exactly. Domain-aware policies (Partition)
	// use them; the rest treat the machine as flat.
	Domains [][]int
	// NICs lists the adapters.
	NICs []NICShape
	// Conns is the number of TCP connections (and serving processes);
	// 0 means one per NIC, the paper's shape. Connection i is carried by
	// NIC i % len(NICs).
	Conns int
}

// Uniform builds a Topology of identical NICs: cpus processors and nics
// adapters with queues receive queues each. Uniform(2, 8, 1) is the
// paper's machine.
func Uniform(cpus, nics, queues int) Topology {
	t := Topology{NumCPUs: cpus, NICs: make([]NICShape, nics)}
	for i := range t.NICs {
		t.NICs[i].Queues = queues
	}
	return t
}

// Paper returns the paper's SUT shape: 2 processors × 8 single-queue NICs.
func Paper() Topology { return Uniform(2, 8, 1) }

// CheckNICs refuses a NIC count no machine can route, before a caller
// allocates a shape per NIC (Uniform): each NIC needs at least one
// interrupt vector.
func CheckNICs(nics int) error {
	if limit := NumAllocatableVectors(); nics > limit {
		return fmt.Errorf("%d NICs exceed the %d allocatable interrupt vectors", nics, limit)
	}
	return nil
}

// maxConns bounds the connection population, and with it the plan's
// per-connection tables, far above any shape the experiments use.
const maxConns = 1 << 20

// Validate rejects shapes the simulator cannot express: no CPUs or NICs,
// more CPUs than the APIC can address, a negative queue count, domains
// that fail to partition the CPU set, more total queues than allocatable
// interrupt vectors, or more than maxConns connections.
func (t Topology) Validate() error {
	if t.NumCPUs <= 0 {
		return fmt.Errorf("topo: need at least one CPU, got %d", t.NumCPUs)
	}
	if t.NumCPUs > 32 {
		return fmt.Errorf("topo: %d CPUs exceeds the APIC's 32-processor addressing", t.NumCPUs)
	}
	if len(t.NICs) == 0 {
		return fmt.Errorf("topo: need at least one NIC")
	}
	if t.Conns < 0 {
		return fmt.Errorf("topo: negative connection count %d", t.Conns)
	}
	if t.Conns > maxConns {
		return fmt.Errorf("topo: %d connections exceed the %d supported", t.Conns, maxConns)
	}
	// Per NIC first, so the total cannot overflow.
	for n, s := range t.NICs {
		if s.Queues < 0 || s.Queues > NumAllocatableVectors() {
			return fmt.Errorf("topo: NIC %d has %d queues, want 0..%d", n, s.Queues, NumAllocatableVectors())
		}
	}
	if total, max := t.TotalQueues(), NumAllocatableVectors(); total > max {
		return fmt.Errorf("topo: %d interrupt queues exceed the %d allocatable vectors", total, max)
	}
	if t.Domains != nil {
		seen := make([]bool, t.NumCPUs)
		for di, d := range t.Domains {
			if len(d) == 0 {
				return fmt.Errorf("topo: domain %d is empty", di)
			}
			for _, c := range d {
				if c < 0 || c >= t.NumCPUs {
					return fmt.Errorf("topo: domain %d names CPU %d outside [0,%d)", di, c, t.NumCPUs)
				}
				if seen[c] {
					return fmt.Errorf("topo: CPU %d appears in two domains", c)
				}
				seen[c] = true
			}
		}
		for c, ok := range seen {
			if !ok {
				return fmt.Errorf("topo: CPU %d belongs to no domain", c)
			}
		}
	}
	return nil
}

// NumConns resolves the connection count (Conns, or one per NIC).
func (t Topology) NumConns() int {
	if t.Conns > 0 {
		return t.Conns
	}
	return len(t.NICs)
}

// QueuesOf reports NIC n's receive-queue count (≥ 1).
func (t Topology) QueuesOf(n int) int { return t.NICs[n].queues() }

// TotalQueues sums receive queues — and therefore interrupt vectors —
// across every NIC.
func (t Topology) TotalQueues() int {
	total := 0
	for _, s := range t.NICs {
		total += s.queues()
	}
	return total
}

// NICOf maps a connection to the adapter that carries it.
func (t Topology) NICOf(conn int) int { return conn % len(t.NICs) }

// DomainOf reports the locality domain of a CPU (0 when Domains is nil).
func (t Topology) DomainOf(cpu int) int {
	for di, d := range t.Domains {
		for _, c := range d {
			if c == cpu {
				return di
			}
		}
	}
	return 0
}

// CPUMask is the all-processors affinity mask for this shape.
func (t Topology) CPUMask() uint32 {
	return uint32(1<<uint(t.NumCPUs)) - 1
}

func domainMask(cpus []int) uint32 {
	var m uint32
	for _, c := range cpus {
		m |= 1 << uint(c)
	}
	return m
}
