package backend

import "time"

// Canonical phase names. Engines are free to report any phase vocabulary,
// but the registered backends stick to these names so benchrunner's
// per-phase CSV columns and the markdown phase-breakdown table line up
// across engines:
//
//   - manthan3: preprocess → sample → learn → verify-repair
//   - expand:   expand → solve → extract
//   - cegar:    refine → extract
//   - pedant:   refine
//
// The portfolio reports the winning member's phases unchanged.
const (
	PhasePreprocess   = "preprocess"
	PhaseSample       = "sample"
	PhaseLearn        = "learn"
	PhaseVerifyRepair = "verify-repair"
	PhaseExpand       = "expand"
	PhaseSolve        = "solve"
	PhaseExtract      = "extract"
	PhaseRefine       = "refine"
)

// PhaseStat is one entry of a backend's per-phase telemetry: where the
// engine spent its time and how many SAT-oracle queries the phase issued.
// Every registered backend returns one PhaseStat per executed phase, in
// execution order, with a non-zero Duration (see Result.Phases).
type PhaseStat struct {
	// Name identifies the phase (see the Phase* constants).
	Name string
	// Duration is the wall-clock time spent in the phase (always > 0 for an
	// executed phase).
	Duration time.Duration
	// OracleCalls counts the SAT/MaxSAT oracle queries the phase issued
	// (0 for purely combinational phases such as decision-tree learning).
	OracleCalls int64
}

// A PhaseRecorder accumulates PhaseStats for one engine run. Engines call
// Begin at each phase boundary (which closes the previous phase), AddOracle
// for oracle queries the recorder cannot observe itself, and Finish once at
// the end. The recorder clamps every recorded duration to at least 1ns so
// an executed phase is always distinguishable from an absent one.
//
// A PhaseRecorder is not safe for concurrent use; engines running phases on
// worker pools merge their workers' counts and call AddOracle from the
// coordinating goroutine.
type PhaseRecorder struct {
	phases []PhaseStat
	cur    int // index of the open phase, -1 when none
	start  time.Time
}

// NewPhaseRecorder returns an empty recorder with no open phase.
func NewPhaseRecorder() *PhaseRecorder {
	return &PhaseRecorder{cur: -1}
}

// Begin closes the open phase (if any) and starts a new one.
func (r *PhaseRecorder) Begin(name string) {
	r.closeOpen()
	r.phases = append(r.phases, PhaseStat{Name: name})
	r.cur = len(r.phases) - 1
	r.start = time.Now()
}

// AddOracle adds n oracle calls to the open phase; it is a no-op when no
// phase is open.
func (r *PhaseRecorder) AddOracle(n int64) {
	if r.cur >= 0 {
		r.phases[r.cur].OracleCalls += n
	}
}

// Finish closes the open phase. Calling it with no open phase is a no-op,
// so deferred Finish composes with early returns that already closed.
func (r *PhaseRecorder) Finish() { r.closeOpen() }

func (r *PhaseRecorder) closeOpen() {
	if r.cur < 0 {
		return
	}
	d := time.Since(r.start)
	if d <= 0 {
		d = 1 // a zero duration would read as "phase did not run"
	}
	r.phases[r.cur].Duration += d
	r.cur = -1
}

// Phases returns the recorded stats in execution order. The returned slice
// is the recorder's backing store; record nothing after reading it.
func (r *PhaseRecorder) Phases() []PhaseStat {
	r.closeOpen()
	return r.phases
}
