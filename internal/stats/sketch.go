package stats

import "math/bits"

// sketchSubBuckets is the per-octave resolution of the Sketch: each
// power-of-two range of values is split into this many linear sub-
// buckets, bounding the relative quantile error at 1/sketchSubBuckets
// (~3%) — ample for p50/p99/p999 over latencies spanning six decades.
const sketchSubBuckets = 32

// Sketch is a deterministic log-linear histogram for latency quantiles.
// Values (cycles) are binned by octave and linear sub-bucket, so Add is
// a few integer ops, memory is fixed (64 octaves × 32 sub-buckets), and
// two runs that observe the same value sequence produce bit-identical
// sketches — the property the result cache and the parallel runner
// depend on. All fields are exported for the result cache's codec.
type Sketch struct {
	// Buckets[o*sketchSubBuckets+s] counts values whose highest set bit
	// is o and whose next five bits are s.
	Buckets []uint64
	// N is the total count; Sum the total of all added values (for
	// means); MaxVal the largest value observed.
	N      uint64
	Sum    uint64
	MaxVal uint64
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{Buckets: make([]uint64, 64*sketchSubBuckets)}
}

func sketchIndex(v uint64) int {
	if v < sketchSubBuckets {
		// Values below one sub-bucket's resolution are exact.
		return int(v)
	}
	o := bits.Len64(v) - 1
	// The five bits below the leading bit select the sub-bucket.
	s := (v >> (uint(o) - 5)) & (sketchSubBuckets - 1)
	return o*sketchSubBuckets + int(s)
}

// sketchValue returns the representative (upper-edge) value of bucket i,
// the inverse of sketchIndex up to the bucket's resolution.
func sketchValue(i int) uint64 {
	if i < sketchSubBuckets {
		return uint64(i)
	}
	o := i / sketchSubBuckets
	s := i % sketchSubBuckets
	base := uint64(1) << uint(o)
	step := base / sketchSubBuckets
	return base + uint64(s)*step + step - 1
}

// Add records one value.
func (k *Sketch) Add(v uint64) {
	k.Buckets[sketchIndex(v)]++
	k.N++
	k.Sum += v
	if v > k.MaxVal {
		k.MaxVal = v
	}
}

// Count reports how many values were recorded.
func (k *Sketch) Count() uint64 { return k.N }

// Mean reports the arithmetic mean of recorded values (0 when empty).
func (k *Sketch) Mean() float64 {
	if k.N == 0 {
		return 0
	}
	return float64(k.Sum) / float64(k.N)
}

// Quantile returns the value at quantile q in [0,1], as the upper edge
// of the bucket holding the q·N-th observation (0 when empty). The
// maximum quantile is clamped to the true observed maximum.
func (k *Sketch) Quantile(q float64) uint64 {
	if k.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(k.N-1))
	var seen uint64
	for i, c := range k.Buckets {
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			v := sketchValue(i)
			if v > k.MaxVal {
				v = k.MaxVal
			}
			return v
		}
	}
	return k.MaxVal
}

// Clone returns a deep copy (snapshotting a measurement window start).
func (k *Sketch) Clone() *Sketch {
	c := &Sketch{
		Buckets: append([]uint64(nil), k.Buckets...),
		N:       k.N,
		Sum:     k.Sum,
		MaxVal:  k.MaxVal,
	}
	return c
}

// Diff returns the windowed delta k − start: the histogram of values
// added after the start snapshot was taken. MaxVal is the cumulative
// maximum (per-window maxima are not recoverable from counts alone).
func (k *Sketch) Diff(start *Sketch) *Sketch {
	if start == nil {
		return k.Clone()
	}
	d := &Sketch{
		Buckets: make([]uint64, len(k.Buckets)),
		N:       k.N - start.N,
		Sum:     k.Sum - start.Sum,
		MaxVal:  k.MaxVal,
	}
	for i := range k.Buckets {
		d.Buckets[i] = k.Buckets[i] - start.Buckets[i]
	}
	return d
}
