package workload

import (
	"fmt"
	"strings"

	"repro/internal/spec"
)

// Kind names a built-in workload.
type Kind string

// The built-in workload kinds.
const (
	// KindBulk is the paper's workload: one long-lived connection and
	// one ttcp process per planned connection, bulk transfer in one
	// direction (§4).
	KindBulk Kind = "bulk"
	// KindRPC is a closed-loop request/response workload over the
	// pre-established connections: each client issues the next request
	// when the previous full response arrives (the §4 web-server
	// projection), with per-request latency recorded.
	KindRPC Kind = "rpc"
	// KindOpenLoop is the connection-churn cell: a bounded population
	// of connections arrives open-loop (Poisson or bounded-Pareto
	// inter-arrivals), each performing open → request → response →
	// close against an accepting server pool, with per-connection
	// response latency recorded. The cell runs to completion instead of
	// a steady-state window.
	KindOpenLoop Kind = "openloop"
)

func errUnknownKind(k Kind) error {
	return fmt.Errorf("workload: unknown kind %q (bulk|rpc|openloop)", string(k))
}

// Arrival processes for the open-loop generator.
const (
	// ArrivalPoisson draws exponential inter-arrival gaps (memoryless
	// offered load).
	ArrivalPoisson = "poisson"
	// ArrivalPareto draws bounded-Pareto gaps (heavy-tailed, bursty
	// offered load; shape Alpha, capped at MaxIntervalCycles).
	ArrivalPareto = "pareto"
)

// Response-size mixes for the request/response workloads.
const (
	// MixFixed serves RspBytes for every request.
	MixFixed = "fixed"
	// MixWeb serves the web template mix (small dynamic fragments plus
	// larger quasi-static bodies; see examples/webserver).
	MixWeb = "web"
	// MixShort serves short flows: 512 B – 4 KB responses.
	MixShort = "short"
	// MixMixed serves the short-flow sizes plus an occasional heavy
	// 64 KB body.
	MixMixed = "mixed"
)

// webMix is the response-size distribution of the web-server projection:
// small dynamic fragments plus larger quasi-static template bodies (the
// paper cites a characterization [24] where ~50% of requests are dynamic
// yet reuse 30-60% quasi-static templates).
var webMix = []int{512, 2048, 8192, 8192, 16384, 16384, 32768, 65536}

// shortMix is the short-flow response table; mixedMix adds the heavy
// tail.
var (
	shortMix = []int{512, 1024, 2048, 4096}
	mixedMix = []int{512, 1024, 2048, 4096, 65536}
)

// Spec declaratively describes a workload; core.Config carries one (nil
// = the paper's bulk default). Zero values select per-kind defaults —
// see ApplyDefaults. The spec is pure data: it gob/JSON-encodes, and the
// cache fingerprint hashes every field.
type Spec struct {
	Kind Kind `json:"kind"`

	// Alternate (bulk) alternates transfer direction per connection:
	// even connections follow Config.Dir, odd connections the opposite
	// (the iSCSI mixed read/write target).
	Alternate bool `json:"alternate,omitempty"`

	// Request/response shape (rpc, openloop).
	ReqBytes int    `json:"req_bytes,omitempty"` // request size (default 384, a GET with headers)
	RspBytes int    `json:"rsp_bytes,omitempty"` // MixFixed response size (default rpc 8192, openloop 2048)
	Mix      string `json:"mix,omitempty"`       // fixed|web|short|mixed (default rpc web, openloop fixed)

	// Open-loop cell shape.
	Conns             int     `json:"conns,omitempty"`               // connections the cell generates (default 10000)
	Arrival           string  `json:"arrival,omitempty"`             // poisson|pareto (default poisson)
	IntervalCycles    uint64  `json:"interval_cycles,omitempty"`     // mean inter-arrival gap (default 40000 = 20 µs)
	Alpha             float64 `json:"alpha,omitempty"`               // bounded-Pareto shape (default 1.5)
	MaxIntervalCycles uint64  `json:"max_interval_cycles,omitempty"` // Pareto gap cap (default 64× interval)
	Servers           int     `json:"servers,omitempty"`             // accepting worker pool (default 64× CPUs)
	Backlog           int     `json:"backlog,omitempty"`             // listener accept-queue bound (default 1024)
	TimeoutCycles     uint64  `json:"timeout_cycles,omitempty"`      // per-connection give-up (default 2e9 = 1 s)
}

// ApplyDefaults fills zero fields with the per-kind defaults. Servers
// stays zero here — its default (64× CPUs) depends on the machine and
// is resolved at Launch.
func (s *Spec) ApplyDefaults() {
	if s.Kind == "" {
		s.Kind = KindBulk
	}
	if s.ReqBytes == 0 {
		s.ReqBytes = 384
	}
	if s.RspBytes == 0 {
		if s.Kind == KindOpenLoop {
			s.RspBytes = 2048
		} else {
			s.RspBytes = 8192
		}
	}
	if s.Mix == "" {
		if s.Kind == KindRPC {
			s.Mix = MixWeb
		} else {
			s.Mix = MixFixed
		}
	}
	if s.Conns == 0 {
		s.Conns = 10_000
	}
	if s.Arrival == "" {
		s.Arrival = ArrivalPoisson
	}
	if s.IntervalCycles == 0 {
		s.IntervalCycles = 40_000
	}
	if s.Alpha == 0 {
		s.Alpha = 1.5
	}
	if s.MaxIntervalCycles == 0 {
		s.MaxIntervalCycles = 64 * s.IntervalCycles
	}
	if s.Backlog == 0 {
		s.Backlog = 1024
	}
	if s.TimeoutCycles == 0 {
		s.TimeoutCycles = 2_000_000_000
	}
}

// Validate checks a defaults-applied spec.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindBulk, KindRPC, KindOpenLoop:
	default:
		return errUnknownKind(s.Kind)
	}
	if s.ReqBytes < 0 || s.RspBytes <= 0 {
		return fmt.Errorf("workload: bad request/response sizes req=%d rsp=%d", s.ReqBytes, s.RspBytes)
	}
	switch s.Mix {
	case MixFixed, MixWeb, MixShort, MixMixed:
	default:
		return fmt.Errorf("workload: unknown mix %q (fixed|web|short|mixed)", s.Mix)
	}
	switch s.Arrival {
	case ArrivalPoisson, ArrivalPareto:
	default:
		return fmt.Errorf("workload: unknown arrival %q (poisson|pareto)", s.Arrival)
	}
	if s.Kind == KindOpenLoop {
		if s.Conns <= 0 {
			return fmt.Errorf("workload: openloop needs a positive connection count, got %d", s.Conns)
		}
		if s.Alpha <= 1 {
			return fmt.Errorf("workload: pareto shape alpha must exceed 1 for a finite mean, got %g", s.Alpha)
		}
		if s.MaxIntervalCycles < s.IntervalCycles {
			return fmt.Errorf("workload: max_interval_cycles %d below mean interval %d", s.MaxIntervalCycles, s.IntervalCycles)
		}
		if s.Servers < 0 || s.Backlog <= 0 || s.TimeoutCycles == 0 {
			return fmt.Errorf("workload: bad openloop pool shape servers=%d backlog=%d timeout=%d", s.Servers, s.Backlog, s.TimeoutCycles)
		}
	}
	return nil
}

// IsDefaultBulk reports whether the spec simulates identically to a nil
// spec: the plain bulk workload. (Request/response and cell fields are
// inert under bulk, so only Alternate distinguishes it.) The cache
// fingerprint merges this with the nil-spec baseline.
func (s *Spec) IsDefaultBulk() bool {
	if s == nil {
		return true
	}
	return (s.Kind == "" || s.Kind == KindBulk) && !s.Alternate
}

// Parse builds a Spec from a spec in the internal/spec grammar: a kind
// followed by ",key=value" fields, e.g.
//
//	"openloop,conns=100000,interval=40000,arrival=pareto,mix=short"
//	"bulk,alternate=true"
//	"rpc,req=384,mix=web"
//
// or, with a leading "@", a JSON spec file (the Spec JSON schema).
// Defaults are applied, the result validated and the fields its kind
// does not read reset to their defaults; keys accept the JSON
// field names and short aliases (req, rsp, interval, maxinterval,
// timeout, alt).
func Parse(s string) (*Spec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("workload: empty spec")
	}
	var w Spec
	if spec.IsFile(s) {
		if err := spec.ReadFile(s, &w); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
	} else {
		kind, err := spec.Inline(s, spec.Keys{
			"alternate": &w.Alternate, "alt": &w.Alternate,
			"req": &w.ReqBytes, "req_bytes": &w.ReqBytes,
			"rsp": &w.RspBytes, "rsp_bytes": &w.RspBytes,
			"mix": &w.Mix, "conns": &w.Conns, "arrival": &w.Arrival, "alpha": &w.Alpha,
			"interval": &w.IntervalCycles, "interval_cycles": &w.IntervalCycles,
			"maxinterval": &w.MaxIntervalCycles, "max_interval_cycles": &w.MaxIntervalCycles,
			"servers": &w.Servers, "backlog": &w.Backlog,
			"timeout": &w.TimeoutCycles, "timeout_cycles": &w.TimeoutCycles,
		})
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		w.Kind = Kind(kind)
	}
	w.ApplyDefaults()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	w.normalize()
	return &w, nil
}

// normalize resets every field the spec's kind does not read to its
// default, so spellings that simulate identically parse to one Spec and
// share one cache key: bulk reads only Alternate, rpc only ReqBytes,
// RspBytes and Mix, openloop every field but Alternate. It runs on a
// validated spec, so it accepts nothing Validate refused.
func (s *Spec) normalize() {
	d := Spec{Kind: s.Kind}
	switch s.Kind {
	case KindBulk:
		d.Alternate = s.Alternate
	case KindRPC:
		d.ReqBytes, d.RspBytes, d.Mix = s.ReqBytes, s.RspBytes, s.Mix
	case KindOpenLoop:
		d = *s
		d.Alternate = false
	}
	d.ApplyDefaults()
	*s = d
}

// mixTable returns the response-size table for the spec's mix. The
// closed-loop rpc workload cycles it deterministically; the open-loop
// generator draws from it uniformly via the engine RNG.
func (s *Spec) mixTable() []int {
	switch s.Mix {
	case MixWeb:
		return webMix
	case MixShort:
		return shortMix
	case MixMixed:
		return mixedMix
	default:
		return []int{s.RspBytes}
	}
}

// MaxResponseBytes bounds the response size the mix can draw (server
// buffer sizing).
func (s *Spec) MaxResponseBytes() int {
	max := s.RspBytes
	for _, v := range s.mixTable() {
		if v > max {
			max = v
		}
	}
	return max
}
