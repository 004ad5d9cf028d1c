package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/bench"
)

// TestResultsCSVRoundTripHostileDetails: the raw results CSV used to be
// written by hand with fmt.Fprintf %q (Go escaping) while the replay path
// parses with encoding/csv — a Detail containing a quote, backslash,
// newline, or comma corrupted the round-trip. Writer and reader now both
// speak encoding/csv; every hostile detail must survive verbatim.
func TestResultsCSVRoundTripHostileDetails(t *testing.T) {
	details := []string{
		`plain detail`,
		`contains "double quotes" inside`,
		`backslash \ and \" escaped-quote lookalike`,
		"embedded\nnewline line2",
		`comma, separated, detail`,
		`trailing backslash \`,
		"tab\tand unicode ∀∃ and quote\" mix",
		``,
	}
	outcomes := []bench.Outcome{
		bench.Synthesized, bench.ProvedFalse, bench.TimedOut, bench.GaveUp,
		bench.Failed, bench.Failed, bench.Synthesized, bench.TimedOut,
	}
	in := make([]bench.RunResult, len(details))
	for i, d := range details {
		in[i] = bench.RunResult{
			Instance: "inst_" + strings.Repeat("x", i+1),
			Family:   "family",
			Engine:   "manthan3",
			Outcome:  outcomes[i],
			Duration: time.Duration(i+1) * 125 * time.Millisecond,
			Detail:   d,
		}
	}
	// Rows that synthesized carry phase telemetry; the others carry none —
	// the round-trip must preserve both shapes.
	in[0].Phases = []backend.PhaseStat{
		{Name: "preprocess", Duration: 1234 * time.Microsecond, OracleCalls: 17},
		{Name: "verify-repair", Duration: 98 * time.Millisecond, OracleCalls: 3},
	}
	in[6].Phases = []backend.PhaseStat{
		{Name: "solve", Duration: 2 * time.Second, OracleCalls: 1},
	}
	var buf bytes.Buffer
	if err := writeResultsCSV(&buf, in); err != nil {
		t.Fatalf("writeResultsCSV: %v", err)
	}
	got, err := readResults(bytes.NewReader(buf.Bytes()), "buf")
	if err != nil {
		t.Fatalf("readResults: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("round-trip row count: got %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i].Instance != in[i].Instance || got[i].Family != in[i].Family ||
			got[i].Engine != in[i].Engine || got[i].Outcome != in[i].Outcome {
			t.Fatalf("row %d metadata mismatch: got %+v want %+v", i, got[i], in[i])
		}
		if got[i].Detail != in[i].Detail {
			t.Fatalf("row %d detail corrupted:\n got %q\nwant %q", i, got[i].Detail, in[i].Detail)
		}
		if d := got[i].Duration - in[i].Duration; d < -time.Millisecond || d > time.Millisecond {
			t.Fatalf("row %d duration drifted: got %v want %v", i, got[i].Duration, in[i].Duration)
		}
		if len(got[i].Phases) != len(in[i].Phases) {
			t.Fatalf("row %d phase count: got %d want %d", i, len(got[i].Phases), len(in[i].Phases))
		}
		for j, p := range in[i].Phases {
			g := got[i].Phases[j]
			if g.Name != p.Name || g.OracleCalls != p.OracleCalls {
				t.Fatalf("row %d phase %d corrupted: got %+v want %+v", i, j, g, p)
			}
			if d := g.Duration - p.Duration; d < -time.Microsecond || d > time.Microsecond {
				t.Fatalf("row %d phase %d duration drifted: got %v want %v", i, j, g.Duration, p.Duration)
			}
		}
	}
	// Re-writing the replayed results must reproduce the CSV byte for byte —
	// the stability -replay relies on.
	var buf2 bytes.Buffer
	if err := writeResultsCSV(&buf2, got); err != nil {
		t.Fatalf("writeResultsCSV (second pass): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("CSV not stable across replay:\n--- first ---\n%s\n--- second ---\n%s", buf.String(), buf2.String())
	}
}

// TestResultsCSVRoundTripHostilePhases: phase names land in CSV header
// cells and "<seconds>/<calls>" cells; names containing commas, quotes, or
// the cell separator itself must survive the replay round-trip, and
// malformed phase cells must fail loudly rather than replay as zeros.
func TestResultsCSVRoundTripHostilePhases(t *testing.T) {
	hostile := []backend.PhaseStat{
		{Name: `comma, phase`, Duration: time.Millisecond, OracleCalls: 2},
		{Name: `quoted "phase"`, Duration: 2 * time.Millisecond, OracleCalls: 0},
		{Name: `slash/phase`, Duration: 3 * time.Millisecond, OracleCalls: 9},
		{Name: "phase:prefixed", Duration: 4 * time.Millisecond, OracleCalls: 1},
	}
	in := []bench.RunResult{{
		Instance: "inst", Family: "fam", Engine: "manthan3",
		Outcome: bench.Synthesized, Duration: time.Second, Phases: hostile,
	}}
	var buf bytes.Buffer
	if err := writeResultsCSV(&buf, in); err != nil {
		t.Fatalf("writeResultsCSV: %v", err)
	}
	got, err := readResults(bytes.NewReader(buf.Bytes()), "buf")
	if err != nil {
		t.Fatalf("readResults: %v", err)
	}
	if len(got) != 1 || len(got[0].Phases) != len(hostile) {
		t.Fatalf("round-trip shape: %+v", got)
	}
	for j, p := range hostile {
		g := got[0].Phases[j]
		if g.Name != p.Name || g.OracleCalls != p.OracleCalls {
			t.Fatalf("phase %d corrupted: got %+v want %+v", j, g, p)
		}
	}

	corrupt := strings.Replace(buf.String(), "0.001000/2", "not-a-cell", 1)
	if _, err := readResults(strings.NewReader(corrupt), "buf"); err == nil {
		t.Fatal("malformed phase cell replayed without error")
	}
}

// TestResultsCSVRoundTripAttempts: the dispatch-telemetry "attempts" column
// must survive the replay round-trip — composed engine specs (with '@', ':',
// parens) and retry rounds included — and rows without attempts must stay
// empty. Malformed cells fail loudly.
func TestResultsCSVRoundTripAttempts(t *testing.T) {
	attempts := []backend.AttemptStat{
		{Engine: "retry(2):manthan3", Outcome: "budget", Duration: 125 * time.Millisecond, Retries: 0},
		{Engine: "manthan3@1", Outcome: "ok", Duration: 250 * time.Millisecond, Retries: 1},
		{Engine: "portfolio(expand+cegar)", Outcome: "canceled", Duration: time.Millisecond},
	}
	in := []bench.RunResult{
		{
			Instance: "inst_a", Family: "fam", Engine: "retry(2):manthan3",
			Outcome: bench.Synthesized, Duration: time.Second, Attempts: attempts,
		},
		{
			Instance: "inst_b", Family: "fam", Engine: "manthan3",
			Outcome: bench.TimedOut, Duration: 2 * time.Second,
		},
	}
	var buf bytes.Buffer
	if err := writeResultsCSV(&buf, in); err != nil {
		t.Fatalf("writeResultsCSV: %v", err)
	}
	got, err := readResults(bytes.NewReader(buf.Bytes()), "buf")
	if err != nil {
		t.Fatalf("readResults: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("round-trip row count: %d", len(got))
	}
	if len(got[0].Attempts) != len(attempts) {
		t.Fatalf("attempts lost: %+v", got[0].Attempts)
	}
	for i, want := range attempts {
		g := got[0].Attempts[i]
		if g.Engine != want.Engine || g.Outcome != want.Outcome || g.Retries != want.Retries {
			t.Fatalf("attempt %d corrupted: got %+v want %+v", i, g, want)
		}
		if d := g.Duration - want.Duration; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("attempt %d duration drifted: got %v want %v", i, g.Duration, want.Duration)
		}
	}
	if len(got[1].Attempts) != 0 {
		t.Fatalf("bare run grew attempts: %+v", got[1].Attempts)
	}
	// Stability: re-writing the replayed results reproduces the bytes.
	var buf2 bytes.Buffer
	if err := writeResultsCSV(&buf2, got); err != nil {
		t.Fatalf("writeResultsCSV (second pass): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("CSV not stable across replay:\n--- first ---\n%s\n--- second ---\n%s", buf.String(), buf2.String())
	}

	corrupt := strings.Replace(buf.String(), "budget", "", 1)
	if _, err := readResults(strings.NewReader(corrupt), "buf"); err == nil {
		t.Fatal("malformed attempts cell replayed without error")
	}
}

// TestOutputWriteFailureExitsNonZero: an output file that cannot be
// written must fail the run with exit status 1, after the other outputs
// are written. A directory squatting on results_raw.csv makes its create
// fail.
func TestOutputWriteFailureExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := writeResultsCSV(&buf, []bench.RunResult{{
		Instance: "inst", Family: "fam", Engine: "manthan3",
		Outcome: bench.Synthesized, Duration: time.Second,
	}}); err != nil {
		t.Fatal(err)
	}
	replay := filepath.Join(dir, "replay.csv")
	if err := os.WriteFile(replay, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(filepath.Join(out, "results_raw.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-replay", replay, "-out", out}); code != 1 {
		t.Fatalf("exit status %d with an unwritable results_raw.csv, want 1", code)
	}
	if _, err := os.Stat(filepath.Join(out, "table1_summary.txt")); err != nil {
		t.Fatalf("summary not written: %v", err)
	}
}
