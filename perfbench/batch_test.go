package main

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/baselines/expand"
	"repro/internal/baselines/pedant"
	"repro/internal/core"
	"repro/internal/gen"
)

// Every engine run gets a class. A panic, a run decided by the wall clock, an
// error outside the taxonomy and a False verdict on a planted-True instance
// are problems, which make the run incorrect; budget, incomplete and
// too-large stops are classified verdicts that solve nothing.
func TestBatchVerdictsClassified(t *testing.T) {
	q := &quickFormulas{seed: 1}
	j := job{engine: "manthan3", named: q.next()}
	if j.named.Known != gen.TruthTrue {
		t.Fatalf("%s is not planted True", j.named.Name)
	}
	cases := []struct {
		err     error
		outcome string
		failed  bool
		problem bool
	}{
		{fmt.Errorf("%w: %w", core.ErrBudget, context.DeadlineExceeded), outcomeWall, true, true},
		{fmt.Errorf("%w: %w", core.ErrCanceled, context.DeadlineExceeded), outcomeWall, true, true},
		{fmt.Errorf("%w: index out of range", core.ErrInternal), "internal", true, true},
		{fmt.Errorf("%w: nil map", pedant.ErrInternal), "internal", true, true},
		{errors.New("disk full"), outcomeUnclassified, true, true},
		{core.ErrFalse, "false", true, true},
		{core.ErrBudget, "budget", false, false},
		{core.ErrIncomplete, "incomplete", false, false},
		{expand.ErrTooLarge, "too-large", false, false},
	}
	for _, c := range cases {
		res := &runResult{}
		it := item{name: j.name(), outcome: classify(c.err)}
		checkBatchVerdict(res, j, engineRun{err: c.err}, &it)
		if it.outcome != c.outcome || it.failed != c.failed || it.solved || (len(res.problems) > 0) != c.problem {
			t.Errorf("%v: outcome %s, failed %v, solved %v, problems %q; want %s, failed %v, problem %v",
				c.err, it.outcome, it.failed, it.solved, res.problems, c.outcome, c.failed, c.problem)
		}
	}
}
