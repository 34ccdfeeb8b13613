// Package metrics writes the Prometheus text exposition format for the
// worker and coordinator binaries, with no client library. It owns the
// # HELP/# TYPE lines, label quoting, sorted label sets and histogram
// bucket rendering; a caller declares its series on a Registry in the
// order they should appear and serves the Registry at /metrics.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are histogram upper bounds in seconds for request and
// dispatch latency. A request spans milliseconds (cached) to minutes
// (full paper windows), so the buckets stretch accordingly.
var LatencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 60, 120}

// Registry is an ordered list of series. Declare every series before
// the first scrape; declaration is not safe for concurrent use.
type Registry struct {
	series   []func(*strings.Builder)
	onScrape func()
	mu       sync.Mutex // one render at a time
}

// OnScrape sets fn to run at the start of every scrape, before any series
// renders. Renders run one at a time, so series may read what fn stored:
// values taken from one snapshot agree with each other.
func (r *Registry) OnScrape(fn func()) { r.onScrape = fn }

// ServeHTTP renders every series, in declaration order.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	r.mu.Lock()
	if r.onScrape != nil {
		r.onScrape()
	}
	for _, write := range r.series {
		write(&b)
	}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// add declares one series: its HELP and TYPE lines, then its samples.
func (r *Registry) add(name, help, kind string, samples func(*strings.Builder)) {
	r.series = append(r.series, func(b *strings.Builder) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		samples(b)
	})
}

// labelSet renders name/value pairs as {n1="v1",...}, or "" for none.
func labelSet(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	parts := make([]string, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", pairs[i], pairs[i+1]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Counter is a count that only goes up.
type Counter struct{ atomic.Uint64 }

// Counter declares a counter the caller increments.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.CounterFunc(name, help, c.Load)
	return c
}

// CounterFunc declares a counter whose value is read at scrape time.
func (r *Registry) CounterFunc(name, help string, read func() uint64) {
	r.add(name, help, "counter", func(b *strings.Builder) { fmt.Fprintf(b, "%s %d\n", name, read()) })
}

// Gauge declares a gauge whose value is read at scrape time. An
// integral value renders as an integer, never in exponent form, so
// shell arithmetic can consume it.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.add(name, help, "gauge", func(b *strings.Builder) {
		if v := read(); v == math.Trunc(v) && math.Abs(v) < 1<<53 {
			fmt.Fprintf(b, "%s %d\n", name, int64(v))
		} else {
			fmt.Fprintf(b, "%s %g\n", name, v)
		}
	})
}

// Info declares a constant gauge of 1 whose labels (name/value pairs)
// carry an identity, such as a build version.
func (r *Registry) Info(name, help string, pairs ...string) {
	r.add(name, help, "gauge", func(b *strings.Builder) { fmt.Fprintf(b, "%s%s 1\n", name, labelSet(pairs...)) })
}

// Vec is a counter or a histogram partitioned by label values; its
// label sets render sorted by value.
type Vec struct {
	labels []string
	bounds []float64 // histogram bucket upper bounds; nil for a counter
	mu     sync.Mutex
	sets   map[string]*labelled
}

type labelled struct {
	pairs   []string // label name/value pairs
	buckets []uint64 // cumulative: buckets[i] counts observations <= bounds[i]
	count   uint64
	sum     float64
}

// vec declares a Vec whose sets render through samples, sorted; empty
// is written instead while no set exists.
func (r *Registry) vec(name, help, kind string, bounds []float64, labels []string, empty string, samples func(*strings.Builder, *labelled)) *Vec {
	v := &Vec{labels: labels, bounds: bounds, sets: make(map[string]*labelled)}
	r.add(name, help, kind, func(b *strings.Builder) {
		v.mu.Lock()
		defer v.mu.Unlock()
		keys := make([]string, 0, len(v.sets))
		for k := range v.sets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) == 0 {
			b.WriteString(empty)
		}
		for _, k := range keys {
			samples(b, v.sets[k])
		}
	})
	return v
}

// CounterVec declares a counter partitioned by the named labels. A set
// appears once it is first counted. With zeroWhenEmpty, an unlabelled
// 0 sample stands in until then, so the series shows from the first
// scrape.
func (r *Registry) CounterVec(name, help string, zeroWhenEmpty bool, labels ...string) *Vec {
	empty := ""
	if zeroWhenEmpty {
		empty = name + " 0\n"
	}
	return r.vec(name, help, "counter", nil, labels, empty, func(b *strings.Builder, s *labelled) {
		fmt.Fprintf(b, "%s%s %d\n", name, labelSet(s.pairs...), s.count)
	})
}

// HistogramVec declares a histogram with the given bucket upper bounds,
// partitioned by the named labels. Without labels its one set renders
// from the first scrape; otherwise a set appears once first observed.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *Vec {
	v := r.vec(name, help, "histogram", bounds, labels, "", func(b *strings.Builder, s *labelled) {
		for i, le := range bounds {
			fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelSet(append(s.pairs, "le", fmt.Sprintf("%g", le))...), s.buckets[i])
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelSet(append(s.pairs, "le", "+Inf")...), s.count)
		fmt.Fprintf(b, "%s_sum%s %g\n", name, labelSet(s.pairs...), s.sum)
		fmt.Fprintf(b, "%s_count%s %d\n", name, labelSet(s.pairs...), s.count)
	})
	if len(labels) == 0 {
		v.with(nil)
	}
	return v
}

// with returns the set for values, creating it; the caller holds mu
// unless it has the Vec to itself.
func (v *Vec) with(values []string) *labelled {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %d label values for labels %v", len(values), v.labels))
	}
	key := strings.Join(values, "\x00")
	s, ok := v.sets[key]
	if !ok {
		s = &labelled{buckets: make([]uint64, len(v.bounds))}
		for i, val := range values {
			s.pairs = append(s.pairs, v.labels[i], val)
		}
		v.sets[key] = s
	}
	return s
}

// Inc counts one event under the given label values, in label order.
func (v *Vec) Inc(values ...string) { v.Observe(0, values...) }

// Observe records one value under the given label values, in label
// order.
func (v *Vec) Observe(x float64, values ...string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := v.with(values)
	for i, le := range v.bounds {
		if x <= le {
			s.buckets[i]++
		}
	}
	s.count++
	s.sum += x
}
