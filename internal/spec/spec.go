// Package spec is the one text grammar of the simulator's run specs:
// the fault schedule, the workload and the interrupt-coalescing model.
// A spec is either "@path", a JSON file decoded into the caller's type,
// or inline: a kind, then ",key=value" fields. Whitespace around the
// kind, keys, values and fields is trimmed, empty fields are skipped,
// and kinds, keys and word values are case-insensitive.
//
// Numbers follow one rule on every host. An integer literal parses
// exactly. Float notation (1e9, 2.5e6) is accepted and truncated toward
// zero. NaN, ±Inf, a negative value for an unsigned field and any value
// outside the field's type are errors that name the key. Go leaves a
// float-to-integer conversion outside the target type
// implementation-defined, so without the range check two hosts could
// key one spec differently.
package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// IsFile reports whether s is an "@path" spec, which reads a file on
// this host.
func IsFile(s string) bool { return strings.HasPrefix(strings.TrimSpace(s), "@") }

// ReadFile decodes the JSON file an "@path" spec names into v.
func ReadFile(s string, v any) error {
	path := strings.TrimPrefix(strings.TrimSpace(s), "@")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// Keys maps each key of an inline spec to the field it sets: an *int,
// *uint64, *float64, *bool or *string. An alias maps to the same field
// as its key. Keys are lower case.
type Keys map[string]any

// Kind returns an inline spec's kind: its first field, trimmed and in
// lower case.
func Kind(s string) string {
	kind, _, _ := strings.Cut(s, ",")
	return strings.ToLower(strings.TrimSpace(kind))
}

// Inline parses an inline spec, storing each field's value through
// keys, and returns the spec's kind (see Kind). A key given twice keeps
// its last value.
func Inline(s string, keys Keys) (kind string, err error) {
	fields := strings.Split(s, ",")
	for _, f := range fields[1:] {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return "", fmt.Errorf("%q is not key=value", f)
		}
		key, val = strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(val)
		dst, ok := keys[key]
		if !ok {
			return "", fmt.Errorf("unknown key %q", key)
		}
		if err := set(dst, val); err != nil {
			var ne *strconv.NumError
			if errors.As(err, &ne) {
				err = ne.Err
			}
			return "", fmt.Errorf("%s=%s: %v", key, val, err)
		}
	}
	return Kind(s), nil
}

// set parses val into the field dst points at.
func set(dst any, val string) (err error) {
	switch p := dst.(type) {
	case *string:
		*p = strings.ToLower(val)
	case *bool:
		*p, err = strconv.ParseBool(val)
	case *float64:
		*p, err = finite(val)
	case *int:
		var n int64
		if n, err = strconv.ParseInt(val, 10, strconv.IntSize); errors.Is(err, strconv.ErrSyntax) {
			var f float64
			f, err = whole(val, math.MinInt, -math.MinInt)
			n = int64(f)
		}
		*p = int(n)
	case *uint64:
		if *p, err = strconv.ParseUint(val, 10, 64); errors.Is(err, strconv.ErrSyntax) {
			var f float64
			f, err = whole(val, 0, 1<<64)
			*p = uint64(f)
		}
	default:
		panic(fmt.Sprintf("spec: key table field of type %T", dst))
	}
	return err
}

// whole parses val in float notation for an integer field holding
// [lo, hi); the caller's conversion truncates it toward zero.
func whole(val string, lo, hi float64) (float64, error) {
	f, err := finite(val)
	switch {
	case err != nil:
		return 0, err
	case f < 0 && lo == 0:
		return 0, errors.New("negative for an unsigned field")
	case f < lo || f >= hi:
		return 0, strconv.ErrRange
	}
	return f, nil
}

// finite parses val as a float64, refusing NaN and ±Inf.
func finite(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = errors.New("not a finite number")
	}
	return f, err
}
