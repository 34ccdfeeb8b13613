package tcp_test

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/tcp"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// runToCompletion is far past any open-loop cell's halt, as core.Run
// runs one.
const runToCompletion = 1 << 61

// reuseRun is one open-loop cell's observable output and how many
// client objects its stack made.
type reuseRun struct {
	export  []byte
	engine  any
	clients int
	conns   int
}

func runReuse(t *testing.T, spec string, reuse bool) reuseRun {
	t.Helper()
	defer tcp.SetClientReuse(reuse)()
	ws, err := workload.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ModeFull, ttcp.TX, 65536)
	cfg.Seed = 1
	cfg.Workload = ws
	m := core.NewMachine(cfg)
	defer m.Shutdown()
	r := m.Measure(runToCompletion)
	js, err := json.Marshal(r.Export())
	if err != nil {
		t.Fatal(err)
	}
	return reuseRun{export: js, engine: r.Engine, clients: m.St.ClientObjects(), conns: ws.Conns}
}

// TestClientReuseMovesNothing is the recycling oracle: each open-loop
// cell runs once with released clients reused LIFO and once with reuse
// off, and both runs must export the same bytes and the same engine
// statistics. The 10⁴-connection cell must also really reuse clients,
// or the comparison shows nothing.
func TestClientReuseMovesNothing(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		reuse bool // most clients must be reused
	}{
		{"openloop", true},
		// core's pinned give-up cell: every give-up path fires.
		{"openloop,conns=60,servers=1,backlog=1,interval=60000,timeout=700000", false},
	} {
		on, off := runReuse(t, tc.spec, true), runReuse(t, tc.spec, false)
		if string(on.export) != string(off.export) {
			t.Errorf("%s: reuse moved the exported result:\n on  %s\n off %s", tc.spec, on.export, off.export)
		}
		if on.engine != off.engine {
			t.Errorf("%s: reuse moved the engine statistics:\n on  %+v\n off %+v", tc.spec, on.engine, off.engine)
		}
		if off.clients != off.conns {
			t.Errorf("%s: %d client objects without reuse, want one per connection (%d)", tc.spec, off.clients, off.conns)
		}
		if tc.reuse && on.clients*10 > on.conns {
			t.Errorf("%s: %d client objects for %d connections: clients are not reused", tc.spec, on.clients, on.conns)
		}
	}
}
