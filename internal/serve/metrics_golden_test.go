package serve

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false, "rewrite testdata/metrics_golden.txt from this build")

const metricsGolden = "testdata/metrics_golden.txt"

// floatSeries are the only samples whose value may be a float; every
// other value must parse as an unsigned integer, because the smoke
// scripts do shell arithmetic on them.
func floatSeries(name string) bool {
	return name == "affinity_cache_hit_ratio" || strings.HasSuffix(name, "_sum")
}

// maskExposition keeps every # HELP/# TYPE line and every sample's name
// and labels in emitted order, drops the sample values, and checks that
// each value has its series' number format.
func maskExposition(t *testing.T, body string) string {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			b.WriteString(line + "\n")
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("sample without a value: %q", line)
		}
		series, value := line[:i], line[i+1:]
		name, _, _ := strings.Cut(series, "{")
		var err error
		if floatSeries(name) {
			_, err = strconv.ParseFloat(value, 64)
		} else {
			_, err = strconv.ParseUint(value, 10, 64)
		}
		if err != nil {
			t.Errorf("sample %q: value %q has the wrong number format", series, value)
		}
		b.WriteString(series + "\n")
	}
	return b.String()
}

// TestMetricsGolden pins the worker's /metrics exposition after a fixed
// request script (a run, a sweep, a 400 and a recovered panic): every
// HELP/TYPE line and every sample's name and labels, in order.
func TestMetricsGolden(t *testing.T) {
	stub := func(_ context.Context, cfg core.Config) *core.Result {
		if cfg.Seed == 99 {
			panic("injected test panic")
		}
		cfg.WarmupCycles, cfg.MeasureCycles = tinyWarmup, tinyMeasure
		return core.Run(cfg)
	}
	ts := newTestServer(t, Options{Runner: core.NewRunner(1), Run: stub, Version: "golden"})
	for _, step := range []struct {
		path, body string
		code       int
	}{
		{"/v1/run", tinyBody(""), http.StatusOK},
		{"/v1/sweep", fmt.Sprintf(`{"warmup_cycles":%d,"measure_cycles":%d,"sizes":[1024],"modes":["none","full"]}`, tinyWarmup, tinyMeasure), http.StatusOK},
		{"/v1/run", `{"mode":"sideways"}`, http.StatusBadRequest},
		{"/v1/run", `{"seed":99}`, http.StatusInternalServerError},
	} {
		if code, resp := post(t, ts.URL+step.path, step.body); code != step.code {
			t.Fatalf("POST %s: status %d (%s), want %d", step.path, code, resp, step.code)
		}
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	got := maskExposition(t, body)
	if *updateMetricsGolden {
		if err := os.WriteFile(metricsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics exposition differs from %s:\n--- got ---\n%s--- want ---\n%s", metricsGolden, got, want)
	}
}
