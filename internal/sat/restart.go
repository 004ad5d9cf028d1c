package sat

// The restart policy. It is a pure function of conflict counts and conflict
// LBDs — never of wall-clock time — so search results are deterministic.
//
// The policy follows the Glucose insight: restart when the short-term
// average glue of learnt clauses drifts above the long-term average (the
// current descent is producing worse clauses than the search historically
// can), and postpone a pending restart while the trail is much deeper than
// its own running average (the search is plausibly about to complete a
// model). The averages are exponential moving averages, seeded on the first
// conflict.

const (
	emaFastAlpha        = 1.0 / 32   // short-term LBD average: ~last 32 conflicts
	emaSlowAlpha        = 1.0 / 8192 // long-term LBD average
	emaTrailAlpha       = 1.0 / 4096 // long-term trail-size average
	restartMargin       = 1.02       // restart when fast > margin × slow
	blockMargin         = 1.4        // block when trail > margin × trail average
	restartMinConflicts = 50         // minimum conflicts between two restarts
)

// noteConflict feeds one conflict's LBD and (pre-backtrack) trail size into
// the restart state.
func (s *Solver) noteConflict(lbd, trailLen int) {
	if !s.emaSeeded {
		s.emaFastLBD = float64(lbd)
		s.emaSlowLBD = float64(lbd)
		s.emaTrail = float64(trailLen)
		s.emaSeeded = true
		return
	}
	s.emaFastLBD += (float64(lbd) - s.emaFastLBD) * emaFastAlpha
	s.emaSlowLBD += (float64(lbd) - s.emaSlowLBD) * emaSlowAlpha
	s.emaTrail += (float64(trailLen) - s.emaTrail) * emaTrailAlpha
	// Trail blocking: a restart that is about to fire while the trail is
	// much deeper than average is postponed by resetting the fast average.
	if s.restartDue() && float64(trailLen) > blockMargin*s.emaTrail {
		s.emaFastLBD = s.emaSlowLBD
		s.blockedRestarts++
	}
}

// restartDue reports whether the policy calls for a restart now.
func (s *Solver) restartDue() bool {
	return s.conflictsSinceRestart >= restartMinConflicts &&
		s.emaFastLBD > restartMargin*s.emaSlowLBD
}

// didRestart updates policy state after a restart was performed.
func (s *Solver) didRestart() {
	s.restarts++
	s.conflictsSinceRestart = 0
	s.emaFastLBD = s.emaSlowLBD
}
