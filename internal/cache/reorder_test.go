package cache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netdev"
	"repro/internal/topo"
	"repro/internal/ttcp"
)

// TestReorderCellColdWarmCacheIdentity pins the reordering counters
// across the cache paths: the flow-director pathology cell must export
// byte-identical JSON — OutOfOrder, DupAcks, FastRetransmits and
// FlowResteers included — whether simulated cold (cache miss, writes
// the disk store) or replayed warm from the gob disk store by a fresh
// cache instance. A dropped field in storedResult would show up here
// as a warm replay reporting zero reordering.
func TestReorderCellColdWarmCacheIdentity(t *testing.T) {
	cfg := core.DefaultConfig(core.ModeNone, ttcp.RX, 65536)
	cfg.WarmupCycles = 30_000_000
	cfg.MeasureCycles = 100_000_000
	cfg.Topology = topo.Uniform(2, 1, 2)
	cfg.Topology.Conns = 2
	pol, err := core.ParsePolicy("flowdirector")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = pol
	co, err := netdev.ParseCoalesce("timer,usecs=100")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Coalesce = co
	if !Cacheable(cfg) {
		t.Fatal("reorder cell config is not cacheable")
	}

	dir := t.TempDir()

	// Cold path: miss, simulate, populate memory and disk.
	cacheA := New(DefaultMaxBytes, dir)
	cold := cacheA.GetOrRun(cfg, core.Run)
	if cold.OutOfOrder == 0 || cold.FlowResteers == 0 {
		t.Fatalf("cell is vacuous: ooo=%d resteers=%d", cold.OutOfOrder, cold.FlowResteers)
	}

	// Warm path: a fresh cache instance over the same store directory
	// must satisfy the request from disk without simulating.
	cacheB := New(DefaultMaxBytes, dir)
	resimulated := false
	warm := cacheB.GetOrRun(cfg, func(c core.Config) *core.Result {
		resimulated = true
		return core.Run(c)
	})
	if resimulated {
		t.Fatal("warm path re-simulated: disk store missed")
	}
	if cacheB.Stats().DiskHits != 1 {
		t.Fatalf("warm path took an unexpected route: %+v", cacheB.Stats())
	}

	if warm.OutOfOrder != cold.OutOfOrder || warm.DupAcks != cold.DupAcks ||
		warm.FastRetransmits != cold.FastRetransmits || warm.FlowResteers != cold.FlowResteers {
		t.Errorf("reordering counters did not survive the disk round-trip:\ncold: ooo=%d dupacks=%d fast=%d resteers=%d\nwarm: ooo=%d dupacks=%d fast=%d resteers=%d",
			cold.OutOfOrder, cold.DupAcks, cold.FastRetransmits, cold.FlowResteers,
			warm.OutOfOrder, warm.DupAcks, warm.FastRetransmits, warm.FlowResteers)
	}
	jc, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jw, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if jc != jw {
		t.Errorf("warm replay JSON diverged from cold run:\ncold: %s\nwarm: %s", jc, jw)
	}
}

// TestFingerprintCoalesceAndSteeringSensitivity pins the key's new
// corners: nil and an explicit legacy coalescing config simulate
// identically and share one entry, while every distinct coalescing
// model and the flow-director plan flag must never collide with the
// baseline.
func TestFingerprintCoalesceAndSteeringSensitivity(t *testing.T) {
	base := Fingerprint(fpCfg())

	legacy := fpCfg()
	co, err := netdev.ParseCoalesce("legacy")
	if err != nil {
		t.Fatal(err)
	}
	legacy.Coalesce = co
	if Fingerprint(legacy) != base {
		t.Error("an explicit legacy coalescing config simulates identically to nil and must share its fingerprint")
	}

	seen := map[string]string{"": base}
	for _, spec := range []string{"timer,usecs=100", "timer,usecs=50", "frames,frames=8", "adaptive"} {
		cfg := fpCfg()
		co, err := netdev.ParseCoalesce(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Coalesce = co
		fp := Fingerprint(cfg)
		for prev, pfp := range seen {
			if fp == pfp {
				t.Errorf("coalesce %q collides with %q", spec, prev)
			}
		}
		seen[spec] = fp
	}

	fd := fpCfg()
	pol, err := core.ParsePolicy("flowdirector")
	if err != nil {
		t.Fatal(err)
	}
	fd.Policy = pol
	rss := fpCfg()
	rss.Policy = topo.RSS{}
	if Fingerprint(fd) == Fingerprint(rss) {
		t.Error("flowdirector and rss place identically but steer differently; they must not share a fingerprint")
	}
}
