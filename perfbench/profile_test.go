package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// pbWriter is a tiny protobuf encoder for building fixture profiles.
type pbWriter struct{ b []byte }

func (p *pbWriter) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pbWriter) uint(field int, x uint64) {
	p.varint(uint64(field) << 3)
	p.varint(x)
}

func (p *pbWriter) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbWriter) packed(field int, xs ...uint64) {
	var inner pbWriter
	for _, x := range xs {
		inner.varint(x)
	}
	p.bytes(field, inner.b)
}

// fixtureProfile encodes a profile in the shape runtime/pprof writes:
// one function and location per name (location 2 carries an inlined
// frame), samples with packed location lists, and one sample with an
// unpacked single location as the runtime emits for short stacks.
func fixtureProfile(t *testing.T) []byte {
	t.Helper()
	names := []string{
		"",
		"runtime.mapaccess1_fast64",            // 1
		"repro/internal/mem.(*Directory).line", // 2 (inlined into 3)
		"repro/internal/mem.(*Directory).HasCopy",    // 3
		"repro/internal/core.Run",                    // 4
		"runtime.chansend1",                          // 5
		"repro/internal/sim.(*Coro).Resume",          // 6
		"net/http.(*conn).serve",                     // 7
		"runtime.gcBgMarkWorker",                     // 8
		"main.main",                                  // 9
		"repro/internal/apic.(*APIC).Deliver",        // 10
		"repro/internal/workload.(*OpenLoop).arrive", // 11
	}
	var p pbWriter
	for id := uint64(1); id < uint64(len(names)); id++ {
		var fn pbWriter
		fn.uint(1, id)
		fn.uint(2, id)
		p.bytes(5, fn.b)
	}
	// Locations: id = function id, except location 2 holds the inlined
	// pair line (innermost) + HasCopy, and function 3 has no location
	// of its own.
	for id := uint64(1); id < uint64(len(names)); id++ {
		if id == 3 {
			continue
		}
		var loc pbWriter
		loc.uint(1, id)
		var line pbWriter
		line.uint(1, id)
		loc.bytes(4, line.b)
		if id == 2 {
			var outer pbWriter
			outer.uint(1, 3)
			loc.bytes(4, outer.b)
		}
		p.bytes(4, loc.b)
	}
	sample := func(count uint64, locs ...uint64) {
		var s pbWriter
		s.packed(1, locs...)
		s.packed(2, count, count*10_000_000)
		p.bytes(2, s.b)
	}
	sample(5, 1, 2, 4)  // map lookup under the directory: mem + dirMap
	sample(3, 5, 6, 4)  // channel send under Coro.Resume: sim + coro + sched
	sample(2, 7)        // HTTP plumbing with no repo frame
	sample(4, 8)        // background GC: runtime + gc
	sample(1, 10, 4)    // repo package without a named layer
	sample(2, 5, 11, 4) // channel send under the workload layer: sched
	{
		var s pbWriter
		s.uint(1, 9) // unpacked location list
		s.packed(2, 1, 10_000_000)
		p.bytes(2, s.b)
	}
	for _, n := range names {
		p.bytes(6, []byte(n))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseProfileFixture(t *testing.T) {
	stacks, err := parseProfile(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 7 {
		t.Fatalf("got %d samples, want 7", len(stacks))
	}
	first := stacks[0]
	want := []string{"runtime.mapaccess1_fast64", "repro/internal/mem.(*Directory).line", "repro/internal/mem.(*Directory).HasCopy", "repro/internal/core.Run"}
	if first.count != 5 || len(first.frames) != len(want) {
		t.Fatalf("first sample = %+v, want count 5 frames %v", first, want)
	}
	for i := range want {
		if first.frames[i] != want[i] {
			t.Fatalf("frame %d = %q, want %q (innermost first, inlined frames expanded)", i, first.frames[i], want[i])
		}
	}
	if last := stacks[6]; last.count != 1 || len(last.frames) != 1 || last.frames[0] != "main.main" {
		t.Fatalf("unpacked sample = %+v", last)
	}
}

func TestAttributeInnermostRepoFrame(t *testing.T) {
	stacks, err := parseProfile(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(stacks)
	if a.total != 18 {
		t.Fatalf("total = %d, want 18", a.total)
	}
	wantCharged := map[string]int64{"mem": 5, "sim": 3, "http": 2, "runtime": 4, "other": 1, "workload": 2, "bench": 1}
	for _, b := range shareBuckets {
		if a.charged[b] != wantCharged[b] {
			t.Errorf("charged[%s] = %d, want %d", b, a.charged[b], wantCharged[b])
		}
	}
	var sum int64
	for _, n := range a.charged {
		sum += n
	}
	if sum != a.total {
		t.Errorf("buckets sum to %d, want the total %d (charging must partition samples)", sum, a.total)
	}
	if a.dirMap != 5 || a.coro != 3 || a.sched != 5 || a.gc != 4 {
		t.Errorf("dirMap=%d coro=%d sched=%d gc=%d, want 5 3 5 4", a.dirMap, a.coro, a.sched, a.gc)
	}
	if got := a.share(a.charged["mem"]); got != 5.0/18 {
		t.Errorf("mem share = %v", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/mem.(*Hierarchy).AccessRange": "mem",
		"repro/internal/sim.(*Coro).Resume.func1":     "sim",
		"repro/internal/perf.(*Counters).Add":         "other",
		"repro/internal/coord.(*Coordinator).cell":    "coord",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a gzip stream")); err == nil {
		t.Fatal("want an error for a non-gzip profile")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x7f}) // bytes field claiming 127 bytes, none present
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Fatal("want an error for a truncated message")
	}
}
