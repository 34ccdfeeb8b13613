// Package cache memoizes simulation results. Every cell is a pure,
// deterministic function of its core.Config, so a canonical fingerprint
// of it is a complete cache key. The package provides that fingerprint,
// the Result codec, the cell Store both serving tiers use (an LRU with
// singleflight, so N concurrent identical requests cost one simulation),
// and the Journal that makes a store durable across restarts (a worker's
// -cache-dir or AFFINITY_CACHE_DIR, a coordinator's -journal-dir).
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync"

	"repro/internal/core"
	"repro/internal/netdev"
	"repro/internal/topo"
)

// fingerprintVersion opens the text of every key. Bump it when the key
// scheme or the layout of core.Config changes, and on any simulator
// change that alters a Result for an unchanged Config, so that no record
// a journal holds from an earlier build answers under a current key.
const fingerprintVersion = "affinity-fp-v5"

// Cacheable reports whether cfg's Result can be served from a cache.
// Traced runs carry a live Recorder and gauge-sampled runs carry a
// Series on the Result — per-run artifacts a shared cache entry cannot
// represent — so those configurations always simulate.
func Cacheable(cfg core.Config) bool {
	return cfg.Trace == nil && cfg.GaugeCycles == 0
}

// Fingerprint is the SHA-256 of fingerprintVersion followed by the
// codec's walk (appendValue) over cfg's keyView. Configs with equal
// fingerprints produce bit-identical Results; configs that could render
// differently anywhere (figures, CSV, verify scorecard) never share one.
func Fingerprint(cfg core.Config) string {
	ks := keyPool.Get().(*keyBuf)
	ks.view.set(cfg)
	ks.text = appendValue(append(ks.text[:0], fingerprintVersion...), reflect.ValueOf(&ks.view).Elem())
	sum := sha256.Sum256(ks.text)
	clear(ks.view.NICs)
	ks.view = keyView{NICs: ks.view.NICs[:0]}
	keyPool.Put(ks)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// keyPool recycles the view and the text Fingerprint hashes, so a warm
// key costs no allocation beyond the plan it resolves.
var keyPool = sync.Pool{New: func() any { return &keyBuf{text: make([]byte, 0, 2048)} }}

type keyBuf struct {
	view keyView
	text []byte
}

// keyView is what a key encodes: cfg with Policy cleared and nil where a
// section simulates as its default, plus the placement cfg resolves to.
// A Mode and the explicit Policy that places work alike share a key
// through Plan and NICs; Mode stays in Cfg, as rendered output spells
// it. The walk keys every other Config field, a new one included.
type keyView struct {
	Cfg core.Config
	// Plan is core.PlanFor's placement, or nil with PlanErr its error
	// text (the run fails identically); NICs holds what NewMachine hands
	// each device, so device-model knobs never slip past the key.
	Plan    *topo.Plan
	PlanErr string
	NICs    []netdev.NICConfig
}

// set fills an empty view (NICs may keep its capacity) for cfg.
func (kv *keyView) set(cfg core.Config) {
	kv.Cfg = cfg
	kv.Cfg.Policy = nil
	// Legacy coalescing in any spelling, an empty fault schedule and a
	// workload that runs as the plain bulk one each simulate as nil.
	if cfg.Coalesce != nil && cfg.Coalesce.Legacy() {
		kv.Cfg.Coalesce = nil
	}
	if cfg.Faults.Empty() {
		kv.Cfg.Faults = nil
	}
	if cfg.Workload.IsDefaultBulk() {
		kv.Cfg.Workload = nil
	}
	plan, err := core.PlanFor(cfg)
	if err != nil {
		kv.PlanErr = err.Error()
		return
	}
	kv.Plan = plan
	for n := range plan.QueueVectors {
		kv.NICs = append(kv.NICs, core.NICConfigFor(plan, kv.Cfg.Coalesce, n))
	}
}
