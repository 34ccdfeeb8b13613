package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stack is one sample of a CPU profile: the function names on its call
// stack, innermost first (inlined frames expanded), and how many times
// the profiler hit it.
type stack struct {
	frames []string
	count  int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: every sample's stack of
// function names and its sample count (the first sample value). It is a
// minimal protobuf reader, so the benchmark needs no pprof dependency.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Profile.sample
			var s sample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Location.line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	name := func(fn uint64) string {
		if i, ok := funcName[fn]; ok && i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				st.frames = append(st.frames, name(fn))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped; profile.proto uses none that matter
// here.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("profile: truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errors.New("profile: truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning it and its length (0 if
// b ends mid-varint).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated integer field's values: one value
// when it arrived unpacked, every varint in data when packed.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// repoPrefix marks the program's own packages; a sample is charged to
// the innermost frame under it.
const repoPrefix = "repro/internal/"

// namedLayers are the repository's modules that get a share of their
// own; samples charged to any other repo package go to "other".
var namedLayers = []string{"sim", "kern", "mem", "cpu", "tcp", "netdev", "workload", "stats", "core", "cache", "serve", "coord"}

// shareBuckets are every bucket a sample can be charged to, in report
// order: the named layers, the remaining repo packages, HTTP and JSON
// plumbing with no repo frame, the benchmark's own code, and the Go
// runtime for the rest.
var shareBuckets = append(append([]string{}, namedLayers...), "other", "http", "bench", "runtime")

// attribution is a CPU profile charged to layers. Charged holds the
// partition (each sample in exactly one bucket); the remaining counts
// are overlapping views for the layer metrics that name a mechanism.
type attribution struct {
	total   int64
	charged map[string]int64
	// dirMap counts samples in runtime map code called from the memory
	// model's coherence directory or TLB.
	dirMap int64
	// coro counts samples whose innermost repo frame is the coroutine
	// handoff itself (sim.(*Coro).Resume or Park).
	coro int64
	// sched and gc count samples with Go scheduler/channel/futex or
	// garbage-collector frames below the innermost repo frame.
	sched, gc int64
}

func (a attribution) share(n int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(n) / float64(a.total)
}

// attribute charges every sample to the innermost repro/internal/<pkg>
// frame on its stack. A sample with no repo frame is charged to "http"
// when net or encoding/json code is on the stack, to "bench" when only
// the benchmark's own code is, and to "runtime" otherwise.
func attribute(stacks []stack) attribution {
	a := attribution{charged: map[string]int64{}}
	for _, s := range stacks {
		a.total += s.count
		repo := -1
		for i, f := range s.frames {
			if strings.HasPrefix(f, repoPrefix) {
				repo = i
				break
			}
		}
		below := s.frames
		if repo >= 0 {
			below = s.frames[:repo]
			fn := s.frames[repo]
			a.charged[layerOf(fn)] += s.count
			if hasAnyPrefix(fn, "repro/internal/mem.(*Directory)", "repro/internal/mem.(*TLB)") && anyFrame(below, isMapFrame) {
				a.dirMap += s.count
			}
			if hasAnyPrefix(fn, "repro/internal/sim.(*Coro).Resume", "repro/internal/sim.(*Coro).Park") {
				a.coro += s.count
			}
		} else {
			switch {
			case anyFrame(s.frames, isHTTPFrame):
				a.charged["http"] += s.count
			case anyFrame(s.frames, isBenchFrame):
				a.charged["bench"] += s.count
			default:
				a.charged["runtime"] += s.count
			}
		}
		if anyFrame(below, isSchedFrame) {
			a.sched += s.count
		}
		if anyFrame(below, isGCFrame) {
			a.gc += s.count
		}
	}
	return a
}

// layerOf maps a repo function name to its layer bucket.
func layerOf(fn string) string {
	pkg := strings.TrimPrefix(fn, repoPrefix)
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range namedLayers {
		if pkg == l {
			return l
		}
	}
	return "other"
}

func anyFrame(frames []string, pred func(string) bool) bool {
	for _, f := range frames {
		if pred(f) {
			return true
		}
	}
	return false
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func isMapFrame(f string) bool {
	return hasAnyPrefix(f, "runtime.map", "internal/runtime/maps.")
}

func isHTTPFrame(f string) bool {
	return hasAnyPrefix(f, "net/", "net.", "encoding/json.")
}

func isBenchFrame(f string) bool { return strings.HasPrefix(f, "main.") }

func isSchedFrame(f string) bool {
	return hasAnyPrefix(f,
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.chansend",
		"runtime.chanrecv", "runtime.selectgo", "runtime.lock2", "runtime.unlock2",
		"runtime.casgstatus", "runtime.futex", "runtime.notesleep", "runtime.notewakeup",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.runqgrab")
}

func isGCFrame(f string) bool {
	return hasAnyPrefix(f,
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
		"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
		"runtime.greyobject", "runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
		"runtime.wbBufFlush", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination")
}
