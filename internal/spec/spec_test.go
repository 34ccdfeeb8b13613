package spec_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netdev"
	"repro/internal/spec"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// parsers are the three spec parsers, each returning its parsed value.
var parsers = map[string]func(string) (any, error){
	"fault":    func(s string) (any, error) { return fault.Parse(s) },
	"coalesce": func(s string) (any, error) { return netdev.ParseCoalesce(s) },
	"workload": func(s string) (any, error) { return workload.Parse(s) },
}

// TestGrammarAcrossParsers holds the fault, coalescing and workload
// parsers to the one grammar where they used to disagree: float
// notation, a trailing comma and upper-case kinds and keys are accepted
// everywhere, and a number outside its field's type is refused with an
// error that names the key, instead of converting to a host-dependent
// value.
func TestGrammarAcrossParsers(t *testing.T) {
	for _, c := range []struct {
		parser, in string
		same       string // a spelling in.parser must parse to the same value
		key        string // the key a refusal names; "" if in is accepted
	}{
		{parser: "coalesce", in: "timer,usecs=1e2", same: "timer,usecs=100"},
		{parser: "fault", in: "loss,rate=0.01,", same: "loss,rate=0.01"},
		{parser: "fault", in: "LOSS,RATE=0.01", same: "loss,rate=0.01"},
		{parser: "coalesce", in: "Timer,USECS=100", same: "timer,usecs=100"},
		{parser: "fault", in: "delay,delay=-3", key: "delay"},
		{parser: "fault", in: "delay,jitter=-3", key: "jitter"},
		{parser: "fault", in: "flap,nic=0,from=1e6,until=1e20", key: "until"},
		{parser: "workload", in: "openloop,conns=1e19", key: "conns"},
	} {
		parse := parsers[c.parser]
		got, err := parse(c.in)
		if c.key != "" {
			if err == nil || !strings.Contains(err.Error(), ": "+c.key+"=") {
				t.Errorf("%s %q: got %+v, %v; want an error naming %q", c.parser, c.in, got, err, c.key)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s %q: %v", c.parser, c.in, err)
			continue
		}
		want, err := parse(c.same)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s %q = %+v; %q = %+v, %v", c.parser, c.in, got, c.same, want, err)
		}
	}
}

// TestNumberRule pins the grammar's one number rule on each field type.
func TestNumberRule(t *testing.T) {
	var (
		i int
		u uint64
		f float64
	)
	keys := spec.Keys{"i": &i, "u": &u, "f": &f}
	for _, c := range []struct {
		in      string
		i       int
		u       uint64
		f       float64
		refused bool
	}{
		{in: "k,i=-7,u=18446744073709551615,f=0.25", i: -7, u: 1<<64 - 1, f: 0.25},
		{in: "k,i=9007199254740993,u=9007199254740993", i: 9007199254740993, u: 9007199254740993},
		{in: "k,i=-2.9e0,u=2.9,f=1e9", i: -2, u: 2, f: 1e9},
		{in: "k,i=-9.223372036854775808e18,u=1.8446744073709550e19", i: -1 << 63, u: 18446744073709549568},
		{in: "k,u=-0", u: 0},
		{in: "k,u=-1", refused: true},
		{in: "k,u=-0.5", refused: true},
		{in: "k,u=1.8446744073709552e19", refused: true},
		{in: "k,u=18446744073709551616", refused: true},
		{in: "k,i=9.223372036854775808e18", refused: true},
		{in: "k,i=9223372036854775808", refused: true},
		{in: "k,f=nan", refused: true},
		{in: "k,f=-inf", refused: true},
		{in: "k,f=1e400", refused: true},
		{in: "k,i=1e400", refused: true},
		{in: "k,u=ten", refused: true},
	} {
		i, u, f = 0, 0, 0
		_, err := spec.Inline(c.in, keys)
		if c.refused {
			if err == nil {
				t.Errorf("%q accepted as i=%d u=%d f=%g", c.in, i, u, f)
			}
			continue
		}
		if err != nil || i != c.i || u != c.u || f != c.f {
			t.Errorf("%q = i=%d u=%d f=%g, %v; want i=%d u=%d f=%g", c.in, i, u, f, err, c.i, c.u, c.f)
		}
	}
}

// FuzzSpecGrammar feeds arbitrary strings to each of the three
// parsers, through the resolver the CLI and the HTTP API share
// (core.Config.ApplySpecs). Nothing may panic; an accepted spec must
// parse to an equal value a second time; and its JSON form, read back
// as an "@file" spec, must give the same cache key.
func FuzzSpecGrammar(f *testing.F) {
	for _, s := range []string{
		"loss,rate=0.01",
		"flap,nic=0,from=1e7,until=1.5e7; loss,rate=0.01 ;storm,cpu=1,period=250000,until=2e8",
		"stall,nic=0,from=2e6,until=2.5e6",
		"burst,nic=1,penter=0.02,pexit=0.25,bad=0.8",
		"delay,delay=500,jitter=100",
		"bulk,alternate=true",
		"rpc,req=512,rsp=16384,mix=fixed",
		"openloop,conns=100000,interval=20000,arrival=pareto,alpha=1.3,mix=short,timeout=1e9",
		"OPENLOOP, Conns=10, Servers=2, Backlog=4",
		"legacy",
		"timer,usecs=1e2",
		"frames,frames=16,usecs=200,",
		"adaptive,min=5,max=250,frames=8",
		"delay,delay=-3",
		"flap,nic=0,from=1e6,until=1e20",
		"openloop,conns=1e19",
	} {
		f.Add(s)
	}
	base := core.DefaultConfig(core.ModeFull, ttcp.TX, 65536)
	f.Fuzz(func(t *testing.T, s string) {
		if spec.IsFile(s) {
			return // names a file on this host, which may be a device
		}
		for i := 0; i < 3; i++ {
			var in [3]string
			in[i] = s
			first, second := base, base
			if first.ApplySpecs(in[0], in[1], in[2]) != nil {
				continue
			}
			if err := second.ApplySpecs(in[0], in[1], in[2]); err != nil {
				t.Fatalf("%q accepted once, then refused: %v", s, err)
			}
			v := []any{first.Faults, first.Workload, first.Coalesce}[i]
			if again := []any{second.Faults, second.Workload, second.Coalesce}[i]; !reflect.DeepEqual(v, again) {
				t.Fatalf("%q parsed to %+v, then to %+v", s, v, again)
			}
			if reflect.ValueOf(v).IsNil() {
				continue // an empty schedule or the legacy throttle
			}
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%q: %v", s, err)
			}
			path := filepath.Join(t.TempDir(), "spec.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			in[i] = "@" + path
			file := base
			if err := file.ApplySpecs(in[0], in[1], in[2]); err != nil {
				t.Fatalf("%q's JSON form %s is refused: %v", s, data, err)
			}
			if cache.Fingerprint(first) != cache.Fingerprint(file) {
				t.Fatalf("%q and its JSON form %s key differently", s, data)
			}
		}
	})
}
