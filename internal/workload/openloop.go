package workload

import (
	"fmt"
	"math"

	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// OpenLoop is the connection-churn cell: Spec.Conns connections arrive
// open-loop — Poisson or bounded-Pareto inter-arrival gaps drawn from
// the engine's seeded RNG, in event order — and each one performs a
// full lifecycle against the SUT:
//
//	active open (SYN) → request → full response → client close (FIN)
//
// The SUT side is a listener plus a bounded pool of accepting worker
// processes (accept, read the request, write the response, wait for the
// close, release the socket) — flyweight connection state makes the
// hundred-thousand-socket population cheap. Per-connection latency
// (arrival to last response byte) lands in a quantile sketch for
// p50/p99/p999; connections whose SYN the overloaded SUT dropped are
// abandoned after TimeoutCycles and counted, never retried.
//
// The cell runs to completion: when every generated connection is
// terminal (completed or abandoned) the workload halts the engine, so
// elapsed time is the cell's true makespan rather than a fixed window.
type OpenLoop struct {
	spec Spec
	m    *Machine
	lst  *tcp.Listener
	lat  *stats.Sketch
	// arriveFn is arrive, bound once in Launch: the arrival chain keeps
	// one event pending.
	arriveFn func()

	// conns holds each connection's record by connection id, and done
	// whether it is terminal (completed or given up; a connection given
	// up while established may still complete afterwards). Both are
	// sized once in Launch; the accepting worker looks its connection's
	// response size up here.
	conns []olConn
	done  []bool

	generated uint64
	completed uint64
	abandoned uint64
	terminal  uint64
	goodBytes uint64
}

// olConn is one connection's workload state: its arrival time and
// response size, drawn at arrival, and the response bytes its client
// has received.
type olConn struct {
	arrivedAt sim.Time
	rsp, got  int32
}

func newOpenLoop(spec Spec) *OpenLoop {
	return &OpenLoop{spec: spec, lat: stats.NewSketch()}
}

// Name implements Workload.
func (w *OpenLoop) Name() string { return "openloop" }

// PreEstablish implements Workload: the cell opens every connection
// itself.
func (w *OpenLoop) PreEstablish() bool { return false }

// Launch implements Workload: start the server pool and the arrival
// chain.
func (w *OpenLoop) Launch(m *Machine) {
	w.m = m
	w.conns = make([]olConn, w.spec.Conns)
	w.done = make([]bool, w.spec.Conns)

	w.lst = m.St.Listen(w.spec.Backlog)
	servers := w.spec.Servers
	if servers == 0 {
		// Workers spend most of a connection's life parked (awaiting
		// the request, the close), so a worker is held for roughly one
		// client round-trip per connection — heavily oversubscribe the
		// processors so pool occupancy, not worker count, is the
		// admission bound at the default offered load.
		servers = 64 * m.NumCPUs()
	}
	reqBufBytes := pageRound(maxInt(w.spec.ReqBytes, 1))
	rspBufBytes := pageRound(w.spec.MaxResponseBytes())
	for i := 0; i < servers; i++ {
		reqBuf := m.K.Space.AllocPage(reqBufBytes, fmt.Sprintf("ol_reqbuf%d", i))
		rspBuf := m.K.Space.AllocPage(rspBufBytes, fmt.Sprintf("ol_rspbuf%d", i))
		// Workers inherit the plan's per-connection placement cyclically:
		// under full affinity a worker is pinned like the planned
		// connection it stands in for, though churned flows land on
		// whichever worker frees first — exactly the mismatch the
		// open-loop study measures.
		idx := i % len(m.Plan.StartCPUs)
		m.K.Spawn(fmt.Sprintf("olsrv%d", i), m.Plan.StartCPUs[idx], m.Plan.ProcMasks[idx],
			func(env *kern.Env) {
				for {
					s := w.lst.Accept(env)
					conn := s.Conn
					m.BindFlow(conn, env.Task())
					if req := w.spec.ReqBytes; req > 0 {
						s.Read(env, reqBuf, req)
					}
					s.Write(env, rspBuf, int(w.conns[conn].rsp))
					s.WaitClose(env)
					m.UnbindFlow(conn, env.Task())
					m.St.Release(env, s)
				}
			})
	}
	w.arriveFn = w.arrive
	m.Eng.At(sim.Time(1000), w.arriveFn)
}

// arrive generates one connection and schedules the next arrival. All
// randomness (response size, inter-arrival gap) is drawn here, in event
// order, from the run's seeded RNG.
func (w *OpenLoop) arrive() {
	m := w.m
	rng := m.Eng.RNG()
	conn := int(w.generated)
	w.generated++

	rsp := w.spec.RspBytes
	if table := w.spec.mixTable(); len(table) > 1 {
		rsp = table[rng.Intn(len(table))]
	}
	w.conns[conn] = olConn{arrivedAt: m.Eng.Now(), rsp: int32(rsp)}

	nic := m.NICs[conn%len(m.NICs)]
	if nic.Queues() > 1 {
		if q := m.Plan.QueueFor(conn); q >= 0 && q < nic.Queues() {
			nic.SteerFlow(conn, q)
		}
	}

	c := m.St.NewActiveClient(conn, nic)
	c.SetOwner(w)
	c.Open()
	m.Eng.After(w.spec.TimeoutCycles, func() { w.giveUp(conn) })

	if int(w.generated) < w.spec.Conns {
		m.Eng.After(w.nextGap(rng), w.arriveFn)
	}
}

// Established implements tcp.Owner: the request goes out.
func (w *OpenLoop) Established(c *tcp.Client) {
	if req := w.spec.ReqBytes; req > 0 {
		c.SendBytes(req)
	}
}

// Received implements tcp.Owner: the last response byte completes the
// connection, records its latency and closes it.
func (w *OpenLoop) Received(c *tcp.Client, n int) {
	conn := c.Conn()
	r := &w.conns[conn]
	before := r.got
	r.got += int32(n)
	// got only grows and rsp > 0, so the response is complete exactly
	// when got first reaches rsp.
	if before < r.rsp && r.got >= r.rsp {
		w.lat.Add(uint64(w.m.Eng.Now() - r.arrivedAt))
		w.goodBytes += uint64(r.rsp)
		w.completed++
		c.Close()
		w.finish(conn)
	}
}

// giveUp is the give-up timer: a dropped SYN (ring overflow, full
// accept queue) is never retried — the connection is abandoned, so the
// cell terminates even under overload. An abandoned connection that DID
// establish still sends its FIN: the accepting worker is parked in
// WaitClose and would otherwise be lost to the pool forever (worker
// attrition turns a transient overload into a permanent ceiling). A
// connection that is not done has not been released, so its client is
// still bound to its id, unless the listener refused its SYN and
// released it. Each timer's closure carries its connection id, so the
// timer knows its connection whatever order events fire in.
func (w *OpenLoop) giveUp(conn int) {
	if w.done[conn] {
		return
	}
	w.abandoned++
	if c := w.m.St.Client(conn); c != nil && !c.Opening() {
		c.Close()
	}
	w.finish(conn)
}

// finish marks a connection terminal; when the whole population is
// terminal the cell is over and the engine halts.
func (w *OpenLoop) finish(conn int) {
	if w.done[conn] {
		return
	}
	w.done[conn] = true
	w.terminal++
	if int(w.terminal) == w.spec.Conns {
		w.m.Eng.Halt()
	}
}

// nextGap draws one inter-arrival gap.
func (w *OpenLoop) nextGap(rng *sim.RNG) uint64 {
	mean := float64(w.spec.IntervalCycles)
	var g float64
	if w.spec.Arrival == ArrivalPareto {
		// Bounded Pareto with shape alpha and scale chosen so the
		// unbounded mean equals IntervalCycles; the bound clips the
		// heaviest gaps.
		alpha := w.spec.Alpha
		xm := mean * (alpha - 1) / alpha
		u := 1 - rng.Float64() // (0,1]
		g = xm / math.Pow(u, 1/alpha)
		if max := float64(w.spec.MaxIntervalCycles); g > max {
			g = max
		}
	} else {
		// Exponential gaps: a Poisson arrival process.
		g = -math.Log(1-rng.Float64()) * mean
	}
	if g < 1 {
		g = 1
	}
	return uint64(g)
}

// Bytes implements Workload: response bytes fully delivered to clients.
func (w *OpenLoop) Bytes(m *Machine) uint64 { return w.goodBytes }

// Transactions implements Workload: completed request/response
// lifecycles.
func (w *OpenLoop) Transactions(m *Machine) uint64 { return w.completed }

// Latency implements Workload.
func (w *OpenLoop) Latency() *stats.Sketch { return w.lat }

// OpenLoop implements Workload.
func (w *OpenLoop) OpenLoop() bool { return true }

// Quiescible implements Workload.
func (w *OpenLoop) Quiescible() bool { return false }

// Generated, Completed and Abandoned report the cell's connection
// accounting; SynDrops the SYNs the listener or ring refused.
func (w *OpenLoop) Generated() uint64 { return w.generated }
func (w *OpenLoop) Completed() uint64 { return w.completed }
func (w *OpenLoop) Abandoned() uint64 { return w.abandoned }
func (w *OpenLoop) SynDrops() uint64 {
	if w.lst == nil {
		return 0
	}
	return w.lst.SynDrops
}
