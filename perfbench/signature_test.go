package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestDiffSignatures(t *testing.T) {
	stored := map[string]string{"a": "ok", "b": "budget", "c": "false"}
	current := map[string]string{"a": "ok", "b": "incomplete", "d": "ok"}
	want := []string{
		"b: incomplete, was budget",
		"c: missing (was false)",
		"d: new item with outcome ok",
	}
	if got := diffSignatures(stored, current); !reflect.DeepEqual(got, want) {
		t.Fatalf("diffSignatures = %q, want %q", got, want)
	}
	if got := diffSignatures(stored, stored); len(got) != 0 {
		t.Fatalf("a signature differs from itself: %q", got)
	}
}

// The first run stores its signature; a later equal run matches it and a
// later different run reports exactly what changed.
func TestCheckSignatureStoresThenCompares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "signatures", "w-seed1-s20.sig")
	first := map[string]string{"manthan3/equiv-000-h1": "ok", "manthan3/equiv-001-h2": "budget"}
	diffs, stored, err := checkSignature(path, first)
	if err != nil || !stored || len(diffs) != 0 {
		t.Fatalf("first run: diffs %q, stored %v, err %v; want a stored signature", diffs, stored, err)
	}
	diffs, stored, err = checkSignature(path, first)
	if err != nil || stored || len(diffs) != 0 {
		t.Fatalf("equal run: diffs %q, stored %v, err %v; want a clean match", diffs, stored, err)
	}
	changed := map[string]string{"manthan3/equiv-000-h1": "ok", "manthan3/equiv-001-h2": "ok"}
	diffs, _, err = checkSignature(path, changed)
	if err != nil || !reflect.DeepEqual(diffs, []string{"manthan3/equiv-001-h2: ok, was budget"}) {
		t.Fatalf("changed run: diffs %q, err %v", diffs, err)
	}
}

func TestSignatureRoundTrip(t *testing.T) {
	sig := map[string]string{"x/y": "ok", "p q": "too-large"}
	got, err := parseSignature(formatSignature(sig))
	if err != nil || !reflect.DeepEqual(got, sig) {
		t.Fatalf("round trip = %v, %v; want %v", got, err, sig)
	}
}
