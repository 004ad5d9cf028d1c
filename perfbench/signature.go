package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// An outcome signature maps each item of a run to its verdict class. The
// engines are deterministic and no verdict is left to the wall clock, so two
// runs of one workload with one seed and length must have equal signatures;
// the first run in a checkout stores its signature and every later run is
// compared with it.

// diffSignatures lists, in item order, every item whose outcome differs
// between the stored and the current signature, including items only one of
// them has.
func diffSignatures(stored, current map[string]string) []string {
	keys := make(map[string]bool, len(stored)+len(current))
	for k := range stored {
		keys[k] = true
	}
	for k := range current {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var diffs []string
	for _, k := range sorted {
		a, okA := stored[k]
		b, okB := current[k]
		switch {
		case !okA:
			diffs = append(diffs, fmt.Sprintf("%s: new item with outcome %s", k, b))
		case !okB:
			diffs = append(diffs, fmt.Sprintf("%s: missing (was %s)", k, a))
		case a != b:
			diffs = append(diffs, fmt.Sprintf("%s: %s, was %s", k, b, a))
		}
	}
	return diffs
}

// formatSignature renders a signature as sorted "item<TAB>outcome" lines.
func formatSignature(sig map[string]string) string {
	lines := make([]string, 0, len(sig))
	for k, v := range sig {
		lines = append(lines, k+"\t"+v)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// parseSignature reads formatSignature's output.
func parseSignature(text string) (map[string]string, error) {
	sig := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("signature line %q has no tab", line)
		}
		sig[k] = v
	}
	return sig, sc.Err()
}

// checkSignature compares sig with the signature stored at path, or stores
// sig there when there is none yet (stored reports which). It returns the
// differences.
func checkSignature(path string, sig map[string]string) (diffs []string, stored bool, err error) {
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		prev, perr := parseSignature(string(raw))
		if perr != nil {
			return nil, false, fmt.Errorf("reading %s: %w", path, perr)
		}
		return diffSignatures(prev, sig), false, nil
	case !errors.Is(err, fs.ErrNotExist):
		return nil, false, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, false, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(formatSignature(sig)), 0o644); err != nil {
		return nil, false, err
	}
	return nil, true, os.Rename(tmp, path)
}
