package cache

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

// fillValue sets v to a non-zero value derived from *seed, recursively.
// It fails on a kind it cannot fill, so a Result field of a new kind is
// taught here — and to the codec — before it can be stored.
func fillValue(t testing.TB, v reflect.Value, seed *uint64) {
	t.Helper()
	*seed++
	if v.Type() == countersType {
		tab := perf.NewSymbolTable()
		tx := tab.Register("tcp_sendmsg", perf.BinInterface)
		tab.Register("IRQ0x19_interrupt", perf.BinEngine)
		ctr := perf.NewCounters(tab, 2)
		ctr.Add(1, tx, perf.Event(0), *seed)
		v.Set(reflect.ValueOf(ctr))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-int64(*seed))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(*seed)
	case reflect.Float64:
		v.SetFloat(float64(*seed) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("value %d", *seed))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			fillValue(t, v.Index(i), seed)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(t, v.Elem(), seed)
	case reflect.Struct:
		for i := range v.NumField() {
			fillValue(t, v.Field(i), seed)
		}
	default:
		t.Fatalf("fillValue cannot fill a %s; teach it (and the Result codec) the new kind", v.Type())
	}
}

// filledResult is a Result with every stored field non-zero.
func filledResult(t testing.TB) *core.Result {
	r := new(core.Result)
	v := reflect.ValueOf(r).Elem()
	var seed uint64
	for i := range v.NumField() {
		if !resultExcluded[resultType.Field(i).Name] {
			fillValue(t, v.Field(i), &seed)
		}
	}
	return r
}

// TestResultCodecCoversResult fails when core.Result grows a field the
// codec does not round-trip. Every field is either stored — filled with
// a non-zero value, it must come back equal — or listed in
// resultExcluded, and that list is pinned here: excluding a field
// REQUIRES deciding that no cached Result ever needs it.
func TestResultCodecCoversResult(t *testing.T) {
	var excluded []string
	for name := range resultExcluded {
		excluded = append(excluded, name)
		if _, ok := resultType.FieldByName(name); !ok {
			t.Errorf("resultExcluded lists %s, which core.Result no longer has", name)
		}
	}
	sort.Strings(excluded)
	if want := []string{"AbortReason", "Aborted", "Cfg", "Series", "Trace"}; !reflect.DeepEqual(excluded, want) {
		t.Errorf("resultExcluded = %v, want %v", excluded, want)
	}

	in := filledResult(t)
	out, err := DecodeResult(EncodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	vin, vout := reflect.ValueOf(in).Elem(), reflect.ValueOf(out).Elem()
	for i := range vin.NumField() {
		name := resultType.Field(i).Name
		if resultExcluded[name] {
			if !vout.Field(i).IsZero() {
				t.Errorf("excluded field %s was decoded as %v", name, vout.Field(i))
			}
			continue
		}
		a, b := vin.Field(i).Interface(), vout.Field(i).Interface()
		if name == "Ctr" {
			a, b = in.Ctr.Dump(), out.Ctr.Dump()
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("field %s did not round-trip: %v became %v", name, a, b)
		}
	}
}

// edgeResult holds the values a text codec would lose: NaN with a
// payload, both infinities, negative zero, the largest integers, nil
// against empty slices, and a string with every byte the journal frames
// with.
func edgeResult() *core.Result {
	return &core.Result{
		Mbps:               math.Float64frombits(0x7ff8_0000_dead_beef),
		AvgUtil:            math.Inf(1),
		CostGHzPerGbps:     math.Inf(-1),
		GoodputRatio:       math.Copysign(0, -1),
		Bytes:              math.MaxUint64,
		Util:               []float64{},
		IdleCycles:         nil,
		FlapRecoveryCycles: []uint64{0, 1 << 63},
		InvariantViolation: "a b\nc\x00",
	}
}

func TestResultCodecKeepsEveryBit(t *testing.T) {
	in := edgeResult()
	b := EncodeResult(in)
	out, err := DecodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]float64{
		"Mbps":           {in.Mbps, out.Mbps},
		"AvgUtil":        {in.AvgUtil, out.AvgUtil},
		"CostGHzPerGbps": {in.CostGHzPerGbps, out.CostGHzPerGbps},
		"GoodputRatio":   {in.GoodputRatio, out.GoodputRatio},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("%s: bits %#x became %#x", name, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
		}
	}
	if out.Util == nil || len(out.Util) != 0 || out.IdleCycles != nil {
		t.Errorf("nil and empty slices not kept apart: Util %#v, IdleCycles %#v", out.Util, out.IdleCycles)
	}
	if out.Bytes != in.Bytes || !reflect.DeepEqual(out.FlapRecoveryCycles, in.FlapRecoveryCycles) || out.InvariantViolation != in.InvariantViolation {
		t.Errorf("integers or string changed: %+v", out)
	}
	if !bytes.Equal(EncodeResult(out), b) {
		t.Error("decoded Result re-encodes differently")
	}
}

// FuzzResultDecode feeds arbitrary bytes to DecodeResult: it must never
// panic, and any Result it accepts must re-encode to exactly those
// bytes, so one Result has one durable encoding.
func FuzzResultDecode(f *testing.F) {
	filled := EncodeResult(filledResult(f))
	f.Add([]byte(nil))
	f.Add(EncodeResult(&core.Result{}))
	f.Add(EncodeResult(edgeResult()))
	f.Add(filled)
	f.Add(filled[:len(filled)/2])
	f.Add(append(append([]byte(nil), filled...), 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResult(b)
		if err != nil {
			return
		}
		if got := EncodeResult(r); !bytes.Equal(got, b) {
			t.Fatalf("decoded Result re-encodes to %x, want %x", got, b)
		}
	})
}

// appendLayout describes type t as the Result codec walks it.
func appendLayout(b []byte, t reflect.Type) []byte {
	if t == countersType {
		t = reflect.TypeFor[*perf.CountersDump]()
	}
	b = append(b, t.Kind().String()...)
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		b = appendLayout(append(b, ' '), t.Elem())
	case reflect.Struct:
		b = append(b, '{')
		for i := range t.NumField() {
			if f := t.Field(i); t != resultType || !resultExcluded[f.Name] {
				b = append(appendLayout(append(append(b, f.Name...), ' '), f.Type), ';')
			}
		}
		b = append(b, '}')
	}
	return b
}

// TestResultCodecLayout pins the stored layout — the names, kinds and
// order of every field the codec walks, nested types included — to
// resultMagic. When it fails, the layout changed: bump resultMagic, so
// records of the old layout read as corrupt instead of misdecoding, and
// re-pin both values here.
func TestResultCodecLayout(t *testing.T) {
	const wantMagic, wantLayout = "arc2", 0xf96777bc
	got := crc32.ChecksumIEEE(appendLayout(nil, resultType))
	if resultMagic != wantMagic || got != wantLayout {
		t.Errorf("Result codec layout %#08x under magic %q; pinned %#08x under %q.\nBump resultMagic if the layout changed, then re-pin both.\nlayout: %s",
			got, resultMagic, wantLayout, wantMagic, appendLayout(nil, resultType))
	}
}
