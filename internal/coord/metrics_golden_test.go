package coord

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false, "rewrite testdata/metrics_golden.txt from this build")

const metricsGolden = "testdata/metrics_golden.txt"

// workerLabel matches the per-worker label, whose value is an
// ephemeral test-server URL.
var workerLabel = regexp.MustCompile(`worker="[^"]*"`)

// maskExposition keeps every # HELP/# TYPE line and every sample's name
// and labels in emitted order, drops the sample values, and checks that
// each value is an unsigned integer (the smoke scripts do shell
// arithmetic on them) unless its series is a _sum.
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
		if strings.HasSuffix(name, "_sum") {
			_, err = strconv.ParseFloat(value, 64)
		} else {
			_, err = strconv.ParseUint(value, 10, 64)
		}
		if err != nil {
			t.Errorf("sample %q: value %q has the wrong number format", series, value)
		}
		b.WriteString(workerLabel.ReplaceAllString(series, `worker="W"`) + "\n")
	}
	return b.String()
}

// TestMetricsGolden pins the coordinator's /metrics exposition after a
// fixed request script (register one worker, a cold sweep, a warm
// repeat): every HELP/TYPE line and every sample's name and labels, in
// order.
func TestMetricsGolden(t *testing.T) {
	wts, _ := newWorker(t)
	cts, _ := newCoord(t, Options{Heartbeat: time.Hour, Version: "golden"})
	register(t, cts.URL, wts.URL, 2)
	body := fmt.Sprintf(`{"warmup_cycles":%d,"measure_cycles":%d,"sizes":[1024],"modes":["none","full"]}`, tinyWarmup, tinyMeasure)
	for _, pass := range []string{"cold", "warm"} {
		if code, resp := post(t, cts.URL+"/v1/sweep", body); code != http.StatusOK {
			t.Fatalf("%s sweep: status %d (%s)", pass, code, resp)
		}
	}
	code, exposition := get(t, cts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	got := maskExposition(t, exposition)
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
