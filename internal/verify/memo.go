package verify

import (
	"fmt"
	"strings"

	"hiway/internal/core"
	"hiway/internal/memo"
	"hiway/internal/scheduler"
)

// This file is the memoization verification family. A scenario with Memo
// set runs three extra audited executions against the memo-off baseline
// from the policy matrix:
//
//	memo-cold   — memoization on, empty table. The table must stay silent
//	              (zero hits, zero splices) and the run must reproduce the
//	              baseline's completed multiset and outputs exactly: an
//	              always-missing cache may never change execution.
//	memo-warm   — a fresh substrate served entirely from the table the cold
//	              run populated. Every task must splice (Memoized ==
//	              TotalTasks) without allocating a single worker container,
//	              and the canonical outcome must still equal the baseline.
//	memo-resume — memoization on, fresh table, AM killed mid-run and
//	              resumed. Recovery and memo splicing must compose: every
//	              task is accounted exactly once (recovered, executed, or
//	              spliced) and the outcome equals the baseline.
//
// All three runs keep the full invariant auditor attached, so a splice that
// forged capacity, double-completed a task, or started a consumer before
// its spliced input existed would surface as a violation, not just as a
// diff.

// runMemoFamily executes the family and returns the audited runs plus any
// failures, phrased against the baseline run.
func runMemoFamily(sc *Scenario, baseline *PolicyRun, opts Options) ([]PolicyRun, []string) {
	var runs []PolicyRun
	var fails []string
	fail := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	// check compares a family run against the baseline. Recovered tasks are
	// reconstructed from provenance, not executed, so they never appear in a
	// run's completion multiset — the resume variant compares final outputs
	// only (same contract as the memo-off resume check), while cold and warm
	// compare the full multiset.
	check := func(run *PolicyRun, compareCompleted bool) bool {
		for _, v := range run.Violations {
			fail("%s: %s", run.Policy, v)
		}
		if !run.Succeeded {
			fail("%s: workflow failed: %s", run.Policy, run.Err)
			return false
		}
		if compareCompleted {
			if d := diffCompleted(baseline.Completed, run.Completed); d != "" {
				fail("%s: completed set diverges from %s: %s", run.Policy, baseline.Policy, d)
			}
		}
		if strings.Join(baseline.Outputs, "\n") != strings.Join(run.Outputs, "\n") {
			fail("%s: outputs %v differ from %s outputs %v", run.Policy, run.Outputs, baseline.Policy, baseline.Outputs)
		}
		return true
	}

	tab := memo.New(0)
	cold := runMemoPolicy(sc, tab, "memo-cold", opts.Tamper)
	runs = append(runs, cold)
	if check(&cold, true) && cold.Memoized != 0 {
		fail("memo-cold: %d tasks spliced from an empty table", cold.Memoized)
	}

	warm := runMemoPolicy(sc, tab, "memo-warm", opts.Tamper)
	runs = append(runs, warm)
	if check(&warm, true) {
		if warm.Memoized != sc.TotalTasks() {
			fail("memo-warm: spliced %d of %d tasks (warm table must serve every task)",
				warm.Memoized, sc.TotalTasks())
		}
		if warm.Containers != 0 {
			fail("memo-warm: allocated %d worker containers (memo-hit tasks re-executed)", warm.Containers)
		}
	}

	if !opts.SkipResume {
		res := runMemoResume(sc, baseline.MakespanSec, opts.Tamper)
		runs = append(runs, res)
		if check(&res, false) && res.Recovered+res.Executed != sc.TotalTasks() {
			fail("memo-resume: recovered %d + executed %d != %d total tasks",
				res.Recovered, res.Executed, sc.TotalTasks())
		}
	}
	return runs, fails
}

// runMemoPolicy is one audited FCFS execution of the scenario with
// memoization enabled against tab, tagged with the family run name.
func runMemoPolicy(sc *Scenario, tab *memo.Table, name string, tamper func(core.Env)) PolicyRun {
	run := PolicyRun{Policy: name, Completed: map[string]int{}}
	ctx, err := sc.buildRun(scheduler.PolicyFCFS, tamper, tab)
	if err != nil {
		run.Err = err.Error()
		return run
	}
	rep, err := core.Run(ctx.env, sc.Driver(), ctx.sched, ctx.cfg)
	if err != nil {
		run.Err = err.Error()
		run.Violations = ctx.aud.Violations()
		return run
	}
	run.capture(rep, ctx.aud)
	return run
}

// runMemoResume is the kill/resume variant with memoization on and a fresh
// table: the first incarnation populates it, the AM dies partway through
// the baseline makespan, and the resumed incarnation recovers from
// provenance on the surviving substrate. Memo entries may legitimately
// serve tasks whose outputs did not survive the crash, so the accounting
// check is once-per-task coverage, not zero splices.
func runMemoResume(sc *Scenario, baseline float64, tamper func(core.Env)) PolicyRun {
	const policy = scheduler.PolicyFCFS
	run := PolicyRun{Policy: "memo-resume", Completed: map[string]int{}}
	tab := memo.New(0)
	ctx, err := sc.buildRun(policy, tamper, tab)
	if err != nil {
		run.Err = err.Error()
		return run
	}
	am, err := core.Launch(ctx.env, sc.Driver(), ctx.sched, ctx.cfg)
	if err != nil {
		run.Err = fmt.Sprintf("launch: %v", err)
		return run
	}
	killAt := baseline * resumeFraction
	if killAt < 5 {
		killAt = 5
	}
	ctx.eng.RunUntil(killAt)
	if am.Finished() {
		rep, err := am.Report()
		if err != nil {
			run.Err = err.Error()
			return run
		}
		run.capture(rep, ctx.aud)
		return run
	}
	am.Kill()
	ctx.aud.OnResume()
	sched2, err := scheduler.New(policy, scheduler.Deps{Locality: ctx.env.FS, Estimator: ctx.env.Prov})
	if err != nil {
		run.Err = err.Error()
		return run
	}
	am2, err := core.Resume(ctx.env, sc.Driver(), sched2, ctx.cfg, ctx.env.Prov.Store())
	if err != nil {
		run.Err = fmt.Sprintf("resume: %v", err)
		run.Violations = ctx.aud.Violations()
		return run
	}
	ctx.eng.Run()
	rep, err := am2.Report()
	if err != nil {
		run.Err = err.Error()
		return run
	}
	run.Recovered = rep.Recovered
	run.capture(rep, ctx.aud)
	return run
}
