package main

import (
	"reflect"
	"testing"
)

// TestWorkerFlag: -worker takes what coord.WorkerURL takes, without
// trailing slashes, and refuses the rest, which makes flag.Parse exit 2
// with a usage error.
func TestWorkerFlag(t *testing.T) {
	var l urlList
	for _, bad := range []string{"localhost:8080", "127.0.0.1:8080", "ftp://host"} {
		if err := l.Set(bad); err == nil {
			t.Errorf("-worker %q accepted", bad)
		}
	}
	for _, good := range []string{"http://127.0.0.1:8080/", "https://worker.test"} {
		if err := l.Set(good); err != nil {
			t.Errorf("-worker %q: %v", good, err)
		}
	}
	if want := (urlList{"http://127.0.0.1:8080", "https://worker.test"}); !reflect.DeepEqual(l, want) {
		t.Errorf("-worker list %q, want %q", l, want)
	}
}
