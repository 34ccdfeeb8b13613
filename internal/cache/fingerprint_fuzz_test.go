package cache

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netdev"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// goldenAxes are the golden product's coordinates in goldenConfig's
// argument order; a corner takes the first or the last value of each.
var goldenAxes = [8][2]string{
	{"paper", "uniform-4-4-2"},
	{"none", "full"},
	{"tx", "rx"},
	{"128", "65536"},
	{"default", "rotate"},
	{"bulk", "openloop,conns=300"},
	{"legacy", "timer,usecs=100"},
	{"none", "stall"},
}

// goldenCorner builds corner c of the golden product: bit k of c picks
// the last value of axis k.
func goldenCorner(t *testing.T, c byte) core.Config {
	var v [8]string
	for k, axis := range goldenAxes {
		v[k] = axis[c>>k&1]
	}
	return goldenConfig(t, v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
}

// fuzzReader hands out decoded values from fuzz bytes; past the end
// every value is zero.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// n returns a value in [0, n).
func (r *fuzzReader) n(n int) int { return int(r.byte()) % n }

// u64 reads a small value, or a 2-, 4- or 8-byte one, chosen by the top
// two bits of the first byte, so short inputs reach small fields.
func (r *fuzzReader) u64() uint64 {
	b := r.byte()
	width := [4]int{0, 2, 4, 8}[b>>6]
	if width == 0 {
		return uint64(b & 63)
	}
	var v uint64
	for i := 0; i < width; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

func (r *fuzzReader) int() int { return int(int64(r.u64())) }

// float draws a special value — signed zero, decimal exponent
// thresholds, non-finite values, subnormals — or any bits.
func (r *fuzzReader) float() float64 {
	special := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 0.1, 1.5, 1e-5, 1e20, 123456789,
		math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64}
	if i := r.n(len(special) + 1); i < len(special) {
		return special[i]
	}
	return math.Float64frombits(r.u64())
}

func (r *fuzzReader) str(choices ...string) string { return choices[r.n(len(choices))] }

// fill sets every field of the struct v from r. A field kind it does not
// know fails the test, so a new parameter type cannot slip past the fuzz.
func (r *fuzzReader) fill(t *testing.T, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(r.byte()&1 == 1)
		case reflect.Int:
			f.SetInt(int64(r.int()))
		case reflect.Uint64:
			f.SetUint(r.u64())
		case reflect.Float64:
			f.SetFloat(r.float())
		case reflect.Struct:
			r.fill(t, f)
		default:
			t.Fatalf("fill: field %s.%s has kind %s", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// fuzzTopology decodes a machine shape. Most are valid; some are not
// (no CPUs or NICs, negative queues, broken domains), so the key's
// plan.err branch is exercised too.
func (r *fuzzReader) fuzzTopology() topo.Topology {
	t := topo.Topology{NumCPUs: r.n(34), Conns: []int{0, 1, 3, 64, -1}[r.n(5)]}
	t.NICs = make([]topo.NICShape, r.n(10))
	for i := range t.NICs {
		t.NICs[i].Queues = int(int8(r.byte())) % 6
		t.NICs[i].LinkBps = []uint64{0, 1e9, 1e10, r.u64()}[r.n(4)]
	}
	switch r.n(3) {
	case 1: // a round-robin partition into k domains
		if k := 1 + r.n(4); t.NumCPUs >= k {
			t.Domains = make([][]int, k)
			for c := 0; c < t.NumCPUs; c++ {
				t.Domains[c%k] = append(t.Domains[c%k], c)
			}
		}
	case 2: // arbitrary CPU lists, usually not a partition
		t.Domains = make([][]int, r.n(4))
		for d := range t.Domains {
			for j := r.n(4); j > 0; j-- {
				t.Domains[d] = append(t.Domains[d], int(int8(r.byte())))
			}
		}
	}
	return t
}

// fuzzConfig starts from a golden corner and applies the mutations the
// bytes in data encode, one per op byte, until data runs out.
func fuzzConfig(t *testing.T, corner byte, data []byte) core.Config {
	cfg := goldenCorner(t, corner)
	r := &fuzzReader{b: data}
	for len(r.b) > 0 {
		switch r.n(12) {
		case 0:
			cfg.Topology = r.fuzzTopology()
		case 1:
			cfg.Mode = core.Mode(r.n(7))
			cfg.Dir = ttcp.Direction(r.n(3))
			cfg.Size = r.int()
			cfg.Seed = r.u64()
			cfg.WarmupCycles, cfg.MeasureCycles = r.u64(), r.u64()
		case 2:
			cfg.Policy = nil
			if pols := topo.Policies(); r.byte()&1 == 1 {
				cfg.Policy = pols[r.n(len(pols))]
			}
		case 3:
			cfg.Coalesce = nil
			if r.byte()&1 == 1 {
				cfg.Coalesce = &netdev.CoalesceConfig{
					Mode:  r.str("", netdev.CoalesceLegacy, netdev.CoalesceTimer, netdev.CoalesceFrames, netdev.CoalesceAdaptive, "bogus"),
					Usecs: r.u64(), Frames: r.int(), MinUsecs: r.u64(), MaxUsecs: r.u64(),
				}
			}
		case 4:
			switch r.n(3) {
			case 0:
				cfg.Faults = nil
			case 1:
				cfg.Faults = &fault.Schedule{}
			case 2:
				if cfg.Faults == nil {
					cfg.Faults = &fault.Schedule{}
				}
				cfg.Faults.Events = append(cfg.Faults.Events, fault.Event{
					Kind: fault.Kind(r.str("loss", "burst", "flap", "delay", "stall", "storm", "")),
					NIC:  r.int(), CPU: r.int(), From: r.u64(), Until: r.u64(),
					Rate: r.float(), BadRate: r.float(), PEnterBad: r.float(), PExitBad: r.float(),
					DelayCycles: r.u64(), JitterCycles: r.u64(), PeriodCycles: r.u64(),
				})
			}
		case 5:
			cfg.Workload = nil
			if r.byte()&1 == 1 {
				cfg.Workload = &workload.Spec{
					Kind:      workload.Kind(r.str("", "bulk", "rpc", "openloop")),
					Alternate: r.byte()&1 == 1,
					ReqBytes:  r.int(), RspBytes: r.int(),
					Mix:   r.str("", "fixed", "web", "short", "mixed"),
					Conns: r.int(), Arrival: r.str("", "poisson", "pareto"),
					IntervalCycles: r.u64(), Alpha: r.float(), MaxIntervalCycles: r.u64(),
					Servers: r.int(), Backlog: r.int(), TimeoutCycles: r.u64(),
				}
			}
		case 6:
			cfg.Trace = nil
			if r.byte()&1 == 1 {
				cfg.Trace = &trace.Config{Capacity: r.int()}
			}
			cfg.GaugeCycles = r.u64()
		case 7, 8:
			r.fill(t, reflect.ValueOf(&cfg.CPU).Elem())
		case 9:
			r.fill(t, reflect.ValueOf(&cfg.Tune).Elem())
		case 10, 11:
			r.fill(t, reflect.ValueOf(&cfg.TCP).Elem())
		}
	}
	return cfg
}

// fuzzSeeds adds the golden product's corners, then a loss event whose
// rates are 123456789, 5e-324, -0 and NaN, and mixed topology, policy,
// coalescing, workload and artifact mutations.
func fuzzSeeds(add func(corner byte, data []byte)) {
	for c := 0; c < 1<<len(goldenAxes); c++ {
		add(byte(c), []byte{})
	}
	add(0, []byte{4, 2, 0, 0, 0, 0, 0, 8, 12, 1, 9, 1, 2, 3})
	add(3, []byte{0, 4, 3, 1, 130, 1, 2, 2, 9, 1, 3, 1, 4, 5, 6, 7})
	add(255, []byte{5, 1, 3, 0, 1, 2, 3, 4, 2, 5, 2, 9, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6, 1, 7})
	add(9, []byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 9, 255, 255, 1, 10, 3, 4, 0, 1})
}

// FuzzFingerprintText requires the key text to decode back to exactly
// the view it was written from, so two views that differ anywhere write
// different texts: decoding consumes every byte, and the decoded view
// equals the original leaf by leaf.
func FuzzFingerprintText(f *testing.F) {
	fuzzSeeds(func(c byte, data []byte) { f.Add(c, data) })
	f.Fuzz(func(t *testing.T, corner byte, data []byte) {
		var view, back keyView
		view.set(fuzzConfig(t, corner, data))
		text := appendValue(nil, reflect.ValueOf(&view).Elem())
		d := decoder{b: text}
		d.value(reflect.ValueOf(&back).Elem())
		if d.bad || len(d.b) != 0 {
			t.Fatalf("the key text of %+v does not decode (bad=%t, %d bytes left)", view.Cfg, d.bad, len(d.b))
		}
		if path := firstDifference(reflect.ValueOf(view), reflect.ValueOf(back), "view"); path != "" {
			t.Fatalf("the key text decodes to a view that differs at %s", path)
		}
	})
}

// firstDifference returns the path of the first leaf where a and b
// differ, or "". Floats compare by their bits, so a NaN equals itself.
func firstDifference(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) == math.Float64bits(b.Float()) {
			return ""
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() == b.IsNil() {
				return ""
			}
			break
		}
		return firstDifference(a.Elem(), b.Elem(), path)
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			break
		}
		for i := range a.Len() {
			if p := firstDifference(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
		return ""
	case reflect.Struct:
		for i := range a.NumField() {
			if p := firstDifference(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	default:
		if a.Equal(b) {
			return ""
		}
	}
	return path
}

// leaf is one settable scalar of a config, named by its field path.
type leaf struct {
	path string
	v    reflect.Value
}

// leaves lists every scalar field reachable from v through structs,
// non-nil pointers and slice elements. It does not enter interfaces:
// Policy is keyed through the plan it resolves to.
func leaves(v reflect.Value, path string, out []leaf) []leaf {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			out = leaves(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			out = leaves(v.Elem(), path, out)
		}
	case reflect.Slice:
		for i := range v.Len() {
			out = leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Interface:
	default:
		out = append(out, leaf{path, v})
	}
	return out
}

// perturb changes the scalar v by a step that never leaves it equal:
// integers move by an odd amount, a float flips low bits, a bool flips,
// and a string grows.
func perturb(t *testing.T, v reflect.Value, step byte) {
	switch d := uint64(step) | 1; v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int:
		v.SetInt(v.Int() + int64(d))
	case reflect.Uint64:
		v.SetUint(v.Uint() + d)
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ d))
	case reflect.String:
		v.SetString(v.String() + "~")
	default:
		t.Fatalf("perturb: no step for a %s", v.Type())
	}
}

// FuzzFingerprintSensitivity perturbs one leaf of a config built from a
// golden corner plus fuzzConfig's mutations: the key must change unless
// the leaf lies inside a documented normalization, a legacy Coalesce or
// a Workload that runs as the plain bulk one (before or after the
// step). Policy is not a leaf, and an empty fault schedule has none.
func FuzzFingerprintSensitivity(f *testing.F) {
	fuzzSeeds(func(c byte, data []byte) { f.Add(c, uint16(c), byte(c), data) })
	f.Fuzz(func(t *testing.T, corner byte, pick uint16, step byte, data []byte) {
		cfg := fuzzConfig(t, corner, data)
		all := leaves(reflect.ValueOf(&cfg).Elem(), "Config", nil)
		l := all[int(pick)%len(all)]
		normalized := func() bool {
			return strings.HasPrefix(l.path, "Config.Coalesce.") && cfg.Coalesce.Legacy() ||
				strings.HasPrefix(l.path, "Config.Workload.") && cfg.Workload.IsDefaultBulk()
		}
		before, exempt := Fingerprint(cfg), normalized()
		perturb(t, l.v, step)
		if Fingerprint(cfg) == before && !exempt && !normalized() {
			t.Fatalf("perturbing %s left the key unchanged", l.path)
		}
	})
}
