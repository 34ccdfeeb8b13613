package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"

	"repro/internal/core"
	"repro/internal/perf"
)

// resultMagic opens every encoded Result. Bump it whenever the stored
// layout changes (TestResultCodecLayout pins it), so a record written
// under another layout never decodes: it reads as corrupt, and the cell
// recomputes.
const resultMagic = "arc2"

// resultExcluded are the Result fields the codec does not store. Cfg:
// the fingerprint proves the reader's Config agrees on every
// result-affecting field, so the caller's own is attached on a hit.
// Trace and Series: configs carrying them are uncacheable. Aborted and
// AbortReason: an aborted Result is never stored.
var resultExcluded = map[string]bool{"Cfg": true, "Trace": true, "Series": true, "Aborted": true, "AbortReason": true}

var (
	resultType   = reflect.TypeFor[core.Result]()
	countersType = reflect.TypeFor[*perf.Counters]()
)

var errResultCorrupt = errors.New("cache: corrupt Result encoding")

// EncodeResult returns r's durable encoding: every Result field but
// resultExcluded, in declaration order, walked by reflection so a new
// field needs no copy list. Floats keep their bits, integers, bools and
// a pointer's presence are uvarints, a slice leads with its length plus
// one (zero is nil), a string with its length, an interface must be nil
// and is a zero, and the counter file is stored as its
// perf.CountersDump. A field type the walk cannot store panics, which
// TestResultCodecCoversResult catches. Fingerprint hashes the same walk
// over its key view.
func EncodeResult(r *core.Result) []byte {
	return appendValue([]byte(resultMagic), reflect.ValueOf(r).Elem())
}

// DecodeResult rebuilds a Result, without its Cfg, from EncodeResult's
// bytes; anything else is an error.
func DecodeResult(b []byte) (*core.Result, error) {
	if !bytes.HasPrefix(b, []byte(resultMagic)) {
		return nil, errResultCorrupt
	}
	d := decoder{b: b[len(resultMagic):]}
	r := new(core.Result)
	d.value(reflect.ValueOf(r).Elem())
	// The reads are lenient; re-encoding refuses whatever EncodeResult
	// would not have written (a non-minimal varint, a bool of 2, trailing
	// bytes, a counter dump that rebuilds differently), so one Result has
	// exactly one encoding.
	if d.bad || !bytes.Equal(EncodeResult(r), b) {
		return nil, errResultCorrupt
	}
	return r, nil
}

func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int64:
		return binary.AppendUvarint(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint64, reflect.Uint32:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		for i := range v.Len() {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		if v.Type() == countersType {
			dump := v.Interface().(*perf.Counters).Dump()
			v = reflect.ValueOf(&dump)
		}
		return appendValue(append(b, 1), v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return append(b, 0)
		}
	case reflect.Struct:
		result := v.Type() == resultType
		for i := range v.NumField() {
			if !result || !resultExcluded[resultType.Field(i).Name] {
				b = appendValue(b, v.Field(i))
			}
		}
		return b
	}
	panic("cache: the codec cannot store a " + v.Type().String())
}

// decoder reads appendValue's encoding; the first short or impossible
// read sets bad, after which every read yields zero.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.b, d.bad = nil, true
		return 0
	}
	d.b = d.b[n:]
	return x
}

// take consumes n bytes, or fails if fewer are left.
func (d *decoder) take(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.b, d.bad = nil, true
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

func (d *decoder) value(v reflect.Value) {
	if d.bad {
		return
	}
	if v.Type() == countersType {
		var dump *perf.CountersDump
		d.value(reflect.ValueOf(&dump).Elem())
		if dump != nil && !d.bad {
			ctr, err := perf.CountersFromDump(*dump)
			d.bad = err != nil
			v.Set(reflect.ValueOf(ctr))
		}
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(d.uvarint() != 0)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(d.uvarint()))
	case reflect.Uint, reflect.Uint64, reflect.Uint32:
		v.SetUint(d.uvarint())
	case reflect.Float64:
		if b := d.take(8); b != nil {
			v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
	case reflect.String:
		v.SetString(string(d.take(d.uvarint())))
	case reflect.Slice:
		n := d.uvarint()
		if n == 0 {
			return // nil
		}
		// Every element takes at least one byte, so a corrupt length
		// fails here instead of allocating past the input.
		if n-1 > uint64(len(d.b)) {
			d.b, d.bad = nil, true
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), int(n-1), int(n-1)))
		for i := range v.Len() {
			d.value(v.Index(i))
		}
	case reflect.Pointer:
		if d.uvarint() != 0 {
			v.Set(reflect.New(v.Type().Elem()))
			d.value(v.Elem())
		}
	case reflect.Interface:
		if d.uvarint() != 0 {
			d.b, d.bad = nil, true // only a nil interface is stored
		}
	case reflect.Struct:
		result := v.Type() == resultType
		for i := range v.NumField() {
			if !result || !resultExcluded[resultType.Field(i).Name] {
				d.value(v.Field(i))
			}
		}
	}
}
