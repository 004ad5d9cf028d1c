package main

import (
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
)

// layerAcc accumulates a traced run's per-layer metrics. Every perLayer name
// starts at 0, so a layer the workload never calls reports 0.
type layerAcc struct {
	m        map[string]float64
	iterGaps []float64 // µs per manthan3 repair iteration, from Logf timestamps
}

func newLayerAcc() *layerAcc {
	a := &layerAcc{m: make(map[string]float64, len(perLayer))}
	for _, d := range perLayer {
		a.m[d.Name] = 0
	}
	return a
}

func (a *layerAcc) add(name string, v float64) { a.m[name] += v }
func (a *layerAcc) set(name string, v float64) { a.m[name] = v }

// addPhases adds an engine run's phase telemetry to "<layer>.<phase>_s"
// (and pedant's oracle calls, which it reports only per phase) and returns
// the run's attributed time.
func (a *layerAcc) addPhases(engine string, phases []backend.PhaseStat) time.Duration {
	layer := engineLayer[engine]
	var total time.Duration
	for _, p := range phases {
		a.add(layer+"."+strings.ReplaceAll(p.Name, "-", "_")+"_s", p.Duration.Seconds())
		if layer == "pedant" {
			a.add("pedant.oracle_calls", float64(p.OracleCalls))
		}
		total += p.Duration
	}
	return total
}

// addCoreStats adds the counters of a manthan3 run that returned a Result;
// a run that failed returns none, which is what core.unattributed_s
// measures.
func (a *layerAcc) addCoreStats(st *core.Stats) {
	if st == nil {
		return
	}
	a.add("core.oracle_calls", float64(st.OracleCalls))
	a.add("core.maxsat_calls", float64(st.MaxSATCalls))
	a.add("core.samples", float64(st.Samples))
	a.add("sat.solves", float64(st.SAT.Solves))
	a.add("sat.conflicts", float64(st.SAT.Conflicts))
	a.add("sat.propagations", float64(st.SAT.Propagations))
	a.add("sat.decisions", float64(st.SAT.Decisions))
	a.add("oracle.solvers_built", float64(st.PreprocSolversBuilt+st.RepairSolversBuilt))
	a.add("oracle.batched_probes", float64(st.BatchedProbes))
}
