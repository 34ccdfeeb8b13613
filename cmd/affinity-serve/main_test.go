package main

import (
	"testing"

	"repro/internal/netdev"
	"repro/internal/workload"
)

// A fleet worker refuses -workload and -coalesce defaults: the
// coordinator keys each cell from its request alone, so a worker-side
// default would file one config's result under another's key. A
// standalone server parses both once, at startup.
func TestOperatorDefaults(t *testing.T) {
	const coord = "http://127.0.0.1:9090"
	for _, c := range []struct{ wl, co string }{{"rpc", ""}, {"", "timer"}, {"rpc", "timer"}} {
		if _, err := operatorDefaults(c.wl, c.co, coord); err == nil {
			t.Errorf("-coord with -workload %q -coalesce %q accepted", c.wl, c.co)
		}
	}
	if def, err := operatorDefaults("", "", coord); err != nil || def.Workload != nil || def.Coalesce != nil {
		t.Errorf("-coord alone = %+v, %+v, %v; want no defaults", def.Workload, def.Coalesce, err)
	}
	def, err := operatorDefaults("rpc,mix=web", "timer,usecs=100", "")
	if err != nil {
		t.Fatal(err)
	}
	if wl, co := def.Workload, def.Coalesce; wl.Kind != workload.KindRPC || co.Mode != netdev.CoalesceTimer || co.Usecs != 100 {
		t.Errorf("parsed defaults %+v, %+v", wl, co)
	}
	for _, c := range []struct{ wl, co string }{{"warp", ""}, {"", "timer,usecs=-1"}} {
		if _, err := operatorDefaults(c.wl, c.co, ""); err == nil {
			t.Errorf("malformed -workload %q -coalesce %q accepted", c.wl, c.co)
		}
	}
}
