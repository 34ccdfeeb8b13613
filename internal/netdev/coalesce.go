// Interrupt-coalescing models. The paper's PRO/1000s throttle with a
// single fixed minimum gap between interrupts (NICConfig.CoalesceCycles,
// the legacy mode and still the default); modern devices expose the
// richer ethtool vocabulary this file models — an absolute timer that
// delays the first interrupt after idle, a frame-count threshold that
// fires early under load, and an adaptive window that widens under burst
// and narrows when traffic thins (the cure of "Sorting Reordered Packets
// with Interrupt Coalescing", PAPERS.md: a wide-enough window lets a
// re-steered flow's old queue drain before the new queue interrupts).
//
// Like fault and workload specs, a coalescing setting is declarative
// construction-time configuration parsed from a text spec in the
// internal/spec grammar ("mode,usecs=..,frames=.." or @file.json), so
// the result-cache fingerprint always sees exactly the behaviour a run
// was given.
package netdev

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/spec"
)

// Coalescing mode names. The zero value selects legacy.
const (
	// CoalesceLegacy is the paper-era throttle: raise immediately unless
	// the previous interrupt was less than CoalesceCycles ago.
	CoalesceLegacy = "legacy"
	// CoalesceTimer delays every first-interrupt-after-idle by a fixed
	// absolute window (ethtool rx-usecs): one interrupt per window under
	// load, added latency when idle.
	CoalesceTimer = "timer"
	// CoalesceFrames arms the timer window but fires early once a frame
	// count accumulates (ethtool rx-frames over rx-usecs).
	CoalesceFrames = "frames"
	// CoalesceAdaptive starts from the minimum window and doubles it
	// whenever a window fills with a burst (≥ Frames events), halving
	// back when a window closes nearly empty — adaptive-rx moderation.
	CoalesceAdaptive = "adaptive"
)

// CoalesceConfig selects and parameterizes a device's coalescing model.
// The zero value (Mode "") is the legacy fixed-gap throttle, byte-
// identical to the behaviour before this knob existed.
type CoalesceConfig struct {
	// Mode is one of "", legacy, timer, frames, adaptive.
	Mode string `json:"mode"`
	// Usecs is the timer window in microseconds (timer and frames
	// modes).
	Usecs uint64 `json:"usecs,omitempty"`
	// Frames is the early-fire threshold (frames mode) or the burst
	// threshold that widens the adaptive window.
	Frames int `json:"frames,omitempty"`
	// MinUsecs and MaxUsecs bound the adaptive window.
	MinUsecs uint64 `json:"min_usecs,omitempty"`
	MaxUsecs uint64 `json:"max_usecs,omitempty"`
}

// Legacy reports whether the config is the paper-era fixed-gap throttle.
func (c CoalesceConfig) Legacy() bool {
	return c.Mode == "" || c.Mode == CoalesceLegacy
}

// ApplyDefaults fills unset parameters with ethtool-flavoured defaults.
func (c *CoalesceConfig) ApplyDefaults() {
	switch c.Mode {
	case CoalesceTimer:
		if c.Usecs == 0 {
			c.Usecs = 50
		}
	case CoalesceFrames:
		if c.Usecs == 0 {
			c.Usecs = 200
		}
		if c.Frames == 0 {
			c.Frames = 8
		}
	case CoalesceAdaptive:
		if c.MinUsecs == 0 {
			c.MinUsecs = 5
		}
		if c.MaxUsecs == 0 {
			c.MaxUsecs = 250
		}
		if c.Frames == 0 {
			c.Frames = 8
		}
	}
}

// Validate rejects configs the device cannot honour.
func (c CoalesceConfig) Validate() error {
	if c.Frames < 0 {
		return fmt.Errorf("coalesce: negative frames %d", c.Frames)
	}
	switch c.Mode {
	case "", CoalesceLegacy:
		return nil
	case CoalesceTimer:
		if c.Usecs == 0 {
			return fmt.Errorf("coalesce: timer mode needs usecs > 0")
		}
	case CoalesceFrames:
		if c.Usecs == 0 || c.Frames < 1 {
			return fmt.Errorf("coalesce: frames mode needs usecs > 0 and frames >= 1")
		}
	case CoalesceAdaptive:
		if c.MinUsecs == 0 || c.MaxUsecs < c.MinUsecs || c.Frames < 1 {
			return fmt.Errorf("coalesce: adaptive mode needs 0 < min <= max and frames >= 1")
		}
	default:
		return fmt.Errorf("coalesce: unknown mode %q (legacy|timer|frames|adaptive)", c.Mode)
	}
	return nil
}

// String renders the config in spec form (diagnostics, fingerprints).
func (c CoalesceConfig) String() string {
	return string(c.AppendSpec(make([]byte, 0, 64)))
}

// AppendSpec appends the String form to b: the mode, then each non-zero
// parameter as ",key=value" ("adaptive,frames=8,min=5,max=250"), or
// "legacy" for the paper-era throttle.
func (c CoalesceConfig) AppendSpec(b []byte) []byte {
	if c.Legacy() {
		return append(b, CoalesceLegacy...)
	}
	b = append(b, c.Mode...)
	if c.Usecs != 0 {
		b = strconv.AppendUint(append(b, ",usecs="...), c.Usecs, 10)
	}
	if c.Frames != 0 {
		b = strconv.AppendInt(append(b, ",frames="...), int64(c.Frames), 10)
	}
	if c.MinUsecs != 0 {
		b = strconv.AppendUint(append(b, ",min="...), c.MinUsecs, 10)
	}
	if c.MaxUsecs != 0 {
		b = strconv.AppendUint(append(b, ",max="...), c.MaxUsecs, 10)
	}
	return b
}

// ParseCoalesce resolves a coalescing spec in the internal/spec
// grammar, shared with fault and workload specs: "" for legacy,
// "@file.json" for a JSON CoalesceConfig, or an inline mode followed by
// ",key=value" fields, e.g.
//
//	timer,usecs=100
//	frames,frames=16,usecs=200
//	adaptive,min=5,max=250,frames=8
//
// Defaults are applied and the result validated; a nil return with nil
// error means the legacy throttle.
func ParseCoalesce(s string) (*CoalesceConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var c CoalesceConfig
	if spec.IsFile(s) {
		if err := spec.ReadFile(s, &c); err != nil {
			return nil, fmt.Errorf("coalesce: %w", err)
		}
	} else {
		mode, err := spec.Inline(s, spec.Keys{
			"usecs": &c.Usecs, "frames": &c.Frames,
			"min": &c.MinUsecs, "min_usecs": &c.MinUsecs,
			"max": &c.MaxUsecs, "max_usecs": &c.MaxUsecs,
		})
		if err != nil {
			return nil, fmt.Errorf("coalesce: %w", err)
		}
		c.Mode = mode
	}
	c.ApplyDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.normalize()
	return &c, nil
}

// normalize resets every parameter the mode does not read, so spellings
// that simulate identically parse to one config and share one cache
// key: legacy reads none, timer only Usecs, frames Usecs and Frames,
// adaptive MinUsecs, MaxUsecs and Frames. It runs on a validated config,
// so it accepts nothing Validate refused.
func (c *CoalesceConfig) normalize() {
	switch c.Mode {
	case CoalesceTimer:
		*c = CoalesceConfig{Mode: c.Mode, Usecs: c.Usecs}
	case CoalesceFrames:
		*c = CoalesceConfig{Mode: c.Mode, Usecs: c.Usecs, Frames: c.Frames}
	case CoalesceAdaptive:
		*c = CoalesceConfig{Mode: c.Mode, Frames: c.Frames, MinUsecs: c.MinUsecs, MaxUsecs: c.MaxUsecs}
	default:
		*c = CoalesceConfig{Mode: CoalesceLegacy}
	}
}
