package metrics

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestExposition pins the rendering of every series kind: declaration
// order, sorted label sets, %q label quoting, cumulative buckets, and
// integral gauges printed as integers even where %g would use an
// exponent.
func TestExposition(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "A counter.")
	c.Add(3)
	r.Gauge("g_bytes", "A large integral gauge.", func() float64 { return 262144000 })
	r.Gauge("g_ratio", "A fractional gauge.", func() float64 { return 0.25 })
	r.CounterVec("empty_total", "Shows 0 until counted.", true, "path")
	v := r.CounterVec("req_total", "By path and code.", false, "path", "code")
	v.Inc("/b", "200")
	v.Inc("/a", "500")
	v.Inc("/a", "200")
	v.Inc("/a", "200")
	plain := r.HistogramVec("lat_seconds", "Unlabelled.", []float64{0.5, 1})
	plain.Observe(0.25)
	plain.Observe(0.75)
	byWorker := r.HistogramVec("w_seconds", "Labelled.", []float64{1}, "worker")
	byWorker.Observe(2, `http://"q"`)
	r.Info("build_info", "Identity.", "version", "v1")

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, nil)
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 3
# HELP g_bytes A large integral gauge.
# TYPE g_bytes gauge
g_bytes 262144000
# HELP g_ratio A fractional gauge.
# TYPE g_ratio gauge
g_ratio 0.25
# HELP empty_total Shows 0 until counted.
# TYPE empty_total counter
empty_total 0
# HELP req_total By path and code.
# TYPE req_total counter
req_total{path="/a",code="200"} 2
req_total{path="/a",code="500"} 1
req_total{path="/b",code="200"} 1
# HELP lat_seconds Unlabelled.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 2
lat_seconds_sum 1
lat_seconds_count 2
# HELP w_seconds Labelled.
# TYPE w_seconds histogram
w_seconds_bucket{worker="http://\"q\"",le="1"} 0
w_seconds_bucket{worker="http://\"q\"",le="+Inf"} 1
w_seconds_sum{worker="http://\"q\""} 2
w_seconds_count{worker="http://\"q\""} 1
# HELP build_info Identity.
# TYPE build_info gauge
build_info{version="v1"} 1
`
	if got := rec.Body.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type %q", ct)
	}
}

// TestOnScrapeSnapshot checks that series read one snapshot per scrape:
// the hook runs once before any series renders, and concurrent scrapes
// do not overwrite each other's snapshot mid-render.
func TestOnScrapeSnapshot(t *testing.T) {
	var r Registry
	var scrapes, snap uint64
	r.OnScrape(func() { scrapes++; snap = scrapes })
	r.CounterFunc("a_total", "First read.", func() uint64 { v := snap; runtime.Gosched(); return v })
	r.CounterFunc("b_total", "Second read.", func() uint64 { return snap })

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				r.ServeHTTP(rec, nil)
				var a, b uint64
				body := rec.Body.String()
				for _, line := range strings.Split(body, "\n") {
					fmt.Sscanf(line, "a_total %d", &a)
					fmt.Sscanf(line, "b_total %d", &b)
				}
				if a == 0 || a != b {
					t.Errorf("one scrape rendered snapshots %d and %d:\n%s", a, b, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if scrapes != 400 {
		t.Errorf("hook ran %d times for 400 scrapes", scrapes)
	}
}
