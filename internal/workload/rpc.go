package workload

import (
	"fmt"

	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// RPC is the closed-loop request/response workload over the
// pre-established connections: each connection runs a server process
// (read a request, write the next response from the mix) against a
// client that issues its next request the moment the previous full
// response arrives — a browser against a static-content server, the
// paper's §4 web projection. Per-request latency (issue → last response
// byte) is recorded into a quantile sketch.
type RPC struct {
	spec     Spec
	m        *Machine
	mix      []int
	lat      *stats.Sketch
	requests uint64

	// conns holds each connection's client-side state by index (the
	// pre-established connection ids are 0..n-1).
	conns []rpcConn
}

// rpcConn is one connection's client side: the requests it has
// completed, the size of the response it awaits, the bytes of that
// response received so far and when its request went out.
type rpcConn struct {
	seq, expected, got int
	issuedAt           sim.Time
}

func newRPC(spec Spec) *RPC {
	return &RPC{spec: spec, lat: stats.NewSketch()}
}

// Name implements Workload.
func (w *RPC) Name() string { return "rpc" }

// PreEstablish implements Workload.
func (w *RPC) PreEstablish() bool { return true }

// Launch implements Workload. The spawn and buffer-allocation sequence
// matches the original examples/webserver loop, so the web workload's
// trajectory is unchanged by running through this layer.
func (w *RPC) Launch(m *Machine) {
	mix := w.spec.mixTable()
	req := w.spec.ReqBytes
	rspBufBytes := pageRound(w.spec.MaxResponseBytes())
	w.m, w.mix = m, mix
	w.conns = make([]rpcConn, len(m.Sockets))
	for i := range m.Sockets {
		i := i
		sock := m.Sockets[i]
		client := m.Clients[i]
		reqBuf := m.K.Space.AllocPage(4096, fmt.Sprintf("reqbuf%d", i))
		rspBuf := m.K.Space.AllocPage(rspBufBytes, fmt.Sprintf("rspbuf%d", i))

		// The worker process: read a request, serve the next template.
		srv := m.K.Spawn(fmt.Sprintf("httpd%d", i), m.Plan.StartCPUs[i], m.Plan.ProcMasks[i],
			func(env *kern.Env) {
				for n := 0; ; n++ {
					sock.Read(env, reqBuf, req)
					sock.Write(env, rspBuf, mix[(i+n)%len(mix)])
				}
			})
		m.BindFlow(i, srv)

		// The client issues the next request once the full response for
		// the previous one has arrived (closed-loop, like a browser; see
		// Received).
		w.conns[i].expected = mix[i%len(mix)]
		client.SetOwner(w)
		// Staggered first requests so the connections do not start in
		// lockstep.
		m.Eng.At(sim.Time(1000+i*997), func() {
			w.conns[i].issuedAt = m.Eng.Now()
			client.SendBytes(req)
		})
	}
}

// Established implements tcp.Owner: the connections are pre-established,
// so there is nothing to do.
func (w *RPC) Established(c *tcp.Client) {}

// Received implements tcp.Owner: each full response completes a request
// and issues the next.
func (w *RPC) Received(c *tcp.Client, n int) {
	i := c.Conn()
	r := &w.conns[i]
	r.got += n
	for r.got >= r.expected {
		r.got -= r.expected
		w.requests++
		w.lat.Add(uint64(w.m.Eng.Now() - r.issuedAt))
		r.seq++
		r.expected = w.mix[(i+r.seq)%len(w.mix)]
		r.issuedAt = w.m.Eng.Now()
		c.SendBytes(w.spec.ReqBytes)
	}
}

// Bytes implements Workload: response bytes delivered to the clients.
func (w *RPC) Bytes(m *Machine) uint64 {
	var total uint64
	for _, c := range m.Clients {
		total += c.BytesReceived
	}
	return total
}

// Transactions implements Workload: completed requests.
func (w *RPC) Transactions(m *Machine) uint64 { return w.requests }

// Latency implements Workload.
func (w *RPC) Latency() *stats.Sketch { return w.lat }

// OpenLoop implements Workload.
func (w *RPC) OpenLoop() bool { return false }

// Quiescible implements Workload: the server loops never observe a stop
// flag, so the ttcp quiesce protocol does not apply.
func (w *RPC) Quiescible() bool { return false }
