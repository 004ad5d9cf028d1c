package sat

import (
	"cmp"
	"slices"
)

// The three-tier learnt-clause database and top-level simplification.
//
// Every learnt clause carries a meta word (arena[c+2]): its best observed
// LBD, its tier, and a used-since-last-reduce bit. The tiers are:
//
//	core  (LBD ≤ coreLBD)   never deleted; these low-glue clauses are the
//	                        distilled structure of the instance.
//	mid   (LBD ≤ midLBD)    protected while they keep participating in
//	                        conflicts; a clause whose used bit is still
//	                        clear at the next reduceDB is demoted to local
//	                        (with one grace round).
//	local (everything else) aggressively reduced: the less active half is
//	                        deleted on every reduceDB.
//
// A clause is in exactly the list matching its meta tier bits; all list
// moves happen inside reduceDB, which re-reads the LBD recorded by
// bumpClauseUse during conflict analysis and promotes clauses whose glue
// improved. Locked (reason) clauses and binary clauses are never deleted,
// and group clauses never enter any tier (AddClauseGroup keeps its own cref
// list), so reduceDB can never free a live group's clauses.

// Tier codes stored in the meta word (higher = more protected).
const (
	tierLocal = 0
	tierMid   = 1
	tierCore  = 2
)

// Glue cuts of the tiers: learnt clauses with LBD ≤ coreLBD are kept
// forever, those with LBD ≤ midLBD while they stay in use.
const (
	coreLBD = 3
	midLBD  = 6
)

// Meta word layout (learnt clauses, arena[c+2]).
const (
	metaLBDBits          = 26
	metaLBDMask   uint32 = 1<<metaLBDBits - 1
	metaTierShift        = 26
	metaUsed      uint32 = 1 << 28
)

func (s *Solver) claLBD(c cref) int   { return int(s.arena[c+2] & metaLBDMask) }
func (s *Solver) claTier(c cref) int  { return int(s.arena[c+2] >> metaTierShift & 3) }
func (s *Solver) claUsed(c cref) bool { return s.arena[c+2]&metaUsed != 0 }
func (s *Solver) claSetUsed(c cref)   { s.arena[c+2] |= metaUsed }
func (s *Solver) claClearUsed(c cref) { s.arena[c+2] &^= metaUsed }
func (s *Solver) claSetTier(c cref, t int) {
	s.arena[c+2] = s.arena[c+2]&^(uint32(3)<<metaTierShift) | uint32(t)<<metaTierShift
}

// tierFor maps a learning-time LBD to its tier.
func tierFor(lbd int) int {
	switch {
	case lbd <= coreLBD:
		return tierCore
	case lbd <= midLBD:
		return tierMid
	default:
		return tierLocal
	}
}

// addLearnt installs a freshly learnt clause into the tier matching its
// glue and returns its cref.
func (s *Solver) addLearnt(lits []lit, lbd int) cref {
	c := s.allocClause(lits, true)
	if lbd > int(metaLBDMask) {
		lbd = int(metaLBDMask)
	}
	tier := tierFor(lbd)
	s.arena[c+2] = uint32(lbd) | uint32(tier)<<metaTierShift
	switch tier {
	case tierCore:
		s.learntsCore = append(s.learntsCore, c)
	case tierMid:
		s.learntsMid = append(s.learntsMid, c)
	default:
		s.learntsLocal = append(s.learntsLocal, c)
	}
	s.attach(c)
	s.bumpClauseActivity(c)
	s.learntClauses++
	s.lbdSum += int64(lbd)
	return c
}

// reduceDB maintains the tiered learnt database: promotions by improved
// LBD, mid-tier staleness demotion, and aggressive halving of the local
// tier, then compacts the arena if enough of it died. Binary and locked
// (reason) clauses always survive.
func (s *Solver) reduceDB() {
	s.reduceDBs++

	// Mid tier: promote clauses whose glue improved to core; keep clauses
	// used since the last reduction (clearing the bit, so they must earn
	// their stay again); demote the stale rest.
	demoted := s.demoteTmp[:0]
	mid := s.learntsMid[:0]
	for _, c := range s.learntsMid {
		switch {
		case s.claLBD(c) <= coreLBD:
			s.claSetTier(c, tierCore)
			s.learntsCore = append(s.learntsCore, c)
			s.promotions++
		case s.claUsed(c) || s.isReason(c):
			s.claClearUsed(c)
			mid = append(mid, c)
		default:
			s.claSetTier(c, tierLocal)
			demoted = append(demoted, c)
			s.demotions++
		}
	}
	s.learntsMid = mid

	// Local tier: first re-tier clauses whose recorded LBD improved. The
	// mid promotion is gated on the used bit — LBD only improves through
	// bumpClauseUse, which sets it — so a clause demoted for staleness
	// (used bit clear, LBD unchanged in the mid range) cannot ping-pong
	// straight back into the protected tier.
	local := s.learntsLocal[:0]
	for _, c := range s.learntsLocal {
		switch tier := tierFor(s.claLBD(c)); {
		case tier == tierCore:
			s.claSetTier(c, tierCore)
			s.learntsCore = append(s.learntsCore, c)
			s.promotions++
		case tier == tierMid && s.claUsed(c):
			s.claSetTier(c, tierMid)
			s.claSetUsed(c) // grace round before staleness demotion
			s.learntsMid = append(s.learntsMid, c)
			s.promotions++
		default:
			local = append(local, c)
		}
	}
	// …then delete the less active half of what remains.
	slices.SortFunc(local, func(a, b cref) int {
		return cmp.Compare(s.claActivity(a), s.claActivity(b))
	})
	lim := len(local) / 2
	kept := local[:0]
	for i, c := range local {
		if i >= lim || s.claSize(c) == 2 || s.isReason(c) {
			kept = append(kept, c)
		} else {
			s.removeClause(c)
		}
	}
	// Demoted mid clauses join local with a grace round before deletion.
	s.learntsLocal = append(kept, demoted...)
	s.demoteTmp = demoted[:0]
	s.maybeGC()
}

// lockedVar returns the variable whose antecedent is c, or -1 if c is not a
// reason clause. Only the two watched positions can hold the asserting
// literal: the long-clause path enqueues lits[0], but the binary fast path
// enqueues the blocker, which may sit at either position since binary
// propagation never reorders the arena literals. A clause can be the
// antecedent of at most one assignment at a time.
func (s *Solver) lockedVar(c cref) int {
	ls := s.claLits(c)
	for i := 0; i < len(ls) && i < 2; i++ {
		v := lit(ls[i]).varIdx()
		if s.varValue(v) != lUndef && s.reason[v] == c {
			return v
		}
	}
	return -1
}

// isReason reports whether c is the antecedent of an assigned variable.
func (s *Solver) isReason(c cref) bool { return s.lockedVar(c) >= 0 }

// simplifyDB removes clauses satisfied at the top level and strips false
// literals from the remainder — MiniSat's top-level simplification, applied
// to the problem clauses and every learnt tier. Must be called at decision
// level 0.
//
// The problem clauses are scanned only when the level-0 trail has grown
// past simpClean by some literal other than a group activation variable.
// No problem clause contains an activation variable, and every problem
// clause is clean up to simpClean (it holds no literal fixed before that
// position), so a trail grown by released groups alone leaves a scan
// nothing to remove or strip. The learnt tiers, which carry activation
// variables positively, are swept whenever the trail has grown.
func (s *Solver) simplifyDB() {
	if !s.ok || s.decisionLevel() != 0 || s.qhead < len(s.trail) {
		return
	}
	if len(s.trail) == s.simpLastTrail {
		return // nothing new fixed since the last pass
	}
	if s.onlySelectorsSince(s.simpClean) {
		s.simpClean = len(s.trail)
	} else {
		start := len(s.trail)
		s.clauses = s.simplifyList(s.clauses)
		// A unit derived mid-scan can occur in clauses the scan had already
		// passed, so only a scan that fixed nothing leaves every clause
		// clean up to the trail's end.
		if len(s.trail) == start {
			s.simpClean = len(s.trail)
		}
	}
	if s.ok {
		s.learntsCore = s.simplifyList(s.learntsCore)
	}
	if s.ok {
		s.learntsMid = s.simplifyList(s.learntsMid)
	}
	if s.ok {
		s.learntsLocal = s.simplifyList(s.learntsLocal)
	}
	s.simpLastTrail = len(s.trail)
	s.maybeGC()
}

// onlySelectorsSince reports whether every literal on the trail from
// position i on is a group activation variable.
func (s *Solver) onlySelectorsSince(i int) bool {
	for _, p := range s.trail[i:] {
		if v := p.varIdx(); v >= len(s.isSel) || !s.isSel[v] {
			return false
		}
	}
	return true
}

func (s *Solver) simplifyList(cs []cref) []cref {
	kept := cs[:0]
	for _, c := range cs {
		if !s.ok {
			kept = append(kept, c)
			continue
		}
		if s.claSatisfied(c) {
			s.removeClause(c)
			continue
		}
		ls := s.claLits(c)
		hasFalse := false
		for _, u := range ls {
			if s.litValue(lit(u)) == lFalse {
				hasFalse = true
				break
			}
		}
		if !hasFalse {
			kept = append(kept, c)
			continue
		}
		// Strip false literals in place (beyond the two watched positions,
		// any literal may be false at level 0); the tail words become dead.
		s.detach(c)
		j := 0
		for _, u := range ls {
			if s.litValue(lit(u)) != lFalse {
				ls[j] = u
				j++
			}
		}
		s.wasted += len(ls) - j
		s.claSetSize(c, j)
		switch j {
		case 0:
			s.ok = false
			s.freeClause(c) // header (+activity/meta) words die too
		case 1:
			s.uncheckedEnqueue(lit(ls[0]), reasonUndef)
			if s.propagate() != crefUndef {
				s.ok = false
			}
			s.freeClause(c) // absorbed into the trail; clause is dead
		default:
			s.attach(c)
			kept = append(kept, c)
		}
	}
	return kept
}
