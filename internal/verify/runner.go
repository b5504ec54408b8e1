package verify

import (
	"fmt"
	"sort"
	"strings"

	"hiway/internal/autoscale"
	"hiway/internal/chaos"
	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/memo"
	"hiway/internal/scheduler"
	"hiway/internal/sim"
	"hiway/internal/wf"
)

// AllPolicies is the default differential matrix: every scheduling policy
// the engine supports. Static policies are skipped automatically for
// iterative scenarios (§3.4).
var AllPolicies = []string{
	scheduler.PolicyFCFS,
	scheduler.PolicyDataAware,
	scheduler.PolicyRoundRobin,
	scheduler.PolicyHEFT,
	scheduler.PolicyAdaptiveGreedy,
}

// staticPolicies cannot drive workflows that unfold at run time.
var staticPolicies = map[string]bool{
	scheduler.PolicyRoundRobin: true,
	scheduler.PolicyHEFT:       true,
}

// Options tunes a verification run.
type Options struct {
	// Policies selects the differential matrix; nil means AllPolicies.
	Policies []string
	// Tamper, if set, runs against each freshly materialized environment
	// before the workflow launches — the hook tests use to inject deliberate
	// accounting bugs and prove the auditor catches them.
	Tamper func(env core.Env)
	// SkipResume disables the kill/resume variant.
	SkipResume bool
}

// resumeFraction is the fraction of the baseline makespan at which the
// resume variants kill the AM.
const resumeFraction = 0.5

func (o Options) policies() []string {
	if len(o.Policies) > 0 {
		return o.Policies
	}
	return AllPolicies
}

// PolicyRun is the audited outcome of one scenario execution.
type PolicyRun struct {
	Policy      string         `json:"policy"`
	Lang        string         `json:"lang,omitempty"` // portability runs: rendering language
	Succeeded   bool           `json:"succeeded"`
	Err         string         `json:"err,omitempty"`
	MakespanSec float64        `json:"makespanSec"`
	Completed   map[string]int `json:"-"` // structural task key → completions
	Outputs     []string       `json:"outputs,omitempty"`
	Violations  []Violation    `json:"violations,omitempty"`
	Recovered   int            `json:"recovered,omitempty"`  // resume variant only
	Executed    int            `json:"executed"`             // tasks run to completion
	Memoized    int            `json:"memoized,omitempty"`   // tasks spliced from the memo table
	Containers  int64          `json:"containers,omitempty"` // worker containers allocated

	// Canonical and CanonOutputs are the path-independent outcome of a
	// portability run (Lang != ""): the canonical lineage multiset and the
	// canonicalized final outputs (see portability.go).
	Canonical    map[string]int `json:"-"`
	CanonOutputs []string       `json:"-"`
}

// capture folds a finished report into the run: completion multiset,
// sorted outputs, the auditor's final verdict, and — for portability runs —
// the canonical outcome.
func (run *PolicyRun) capture(rep *core.Report, aud *Auditor) {
	run.Succeeded = rep.Succeeded
	if rep.Err != nil {
		run.Err = rep.Err.Error()
	}
	run.MakespanSec = rep.MakespanSec
	run.Executed = len(rep.Results)
	run.Memoized = rep.Memoized
	run.Containers = rep.Containers
	for _, res := range rep.Results {
		if res.Succeeded() {
			run.Completed[structuralKey(res.Task.Name, res.Task.Inputs, res.Task.DeclaredPaths())]++
		}
	}
	run.Outputs = append([]string(nil), rep.Outputs...)
	sort.Strings(run.Outputs)
	run.Violations = aud.FinalCheck(rep.Succeeded)
	if run.Lang != "" {
		run.Canonical, run.CanonOutputs = CanonicalOutcome(rep.Results, rep.Outputs)
	}
}

// Result is the differential verdict for one scenario.
type Result struct {
	Scenario *Scenario   `json:"scenario"`
	Runs     []PolicyRun `json:"runs"`
	Failures []string    `json:"failures,omitempty"`
}

// OK reports whether every policy satisfied every invariant and all runs
// agreed.
func (r *Result) OK() bool { return len(r.Failures) == 0 }

// structuralKey identifies a task across runs and AM incarnations, where
// numeric task IDs are meaningless: signature plus sorted inputs plus
// sorted outputs.
func structuralKey(name string, inputs, outputs []string) string {
	in := append([]string(nil), inputs...)
	out := append([]string(nil), outputs...)
	sort.Strings(in)
	sort.Strings(out)
	return name + "|" + strings.Join(in, ",") + "|" + strings.Join(out, ",")
}

// expectedCompletions is the multiset of structural task keys a successful
// run of the scenario must complete, straight from the specs.
func (s *Scenario) expectedCompletions() map[string]int {
	exp := make(map[string]int, s.TotalTasks())
	for _, t := range s.Tasks {
		exp[structuralKey(t.Name, t.Inputs, t.Outputs)]++
	}
	for _, t := range s.IterTasks {
		exp[structuralKey(t.Name, t.Inputs, t.Outputs)]++
	}
	return exp
}

// buildRun wires one fresh execution environment for the scenario: chaos
// plan (parsed and armed anew — plans carry mutable rule counters), auditor
// hooked into RM and AM, scheduler, and AM config. A non-nil tab enables
// memoization against that table. It returns everything the caller needs to
// launch.
func (s *Scenario) buildRun(policy string, tamper func(core.Env), tab *memo.Table) (*runCtx, error) {
	eng, env, err := s.Materialize()
	if err != nil {
		return nil, fmt.Errorf("materialize: %w", err)
	}
	if tamper != nil {
		tamper(env)
	}
	aud := NewAuditor(env)
	for _, in := range s.Inputs {
		aud.Grant(in.Path)
	}
	env.RM.SetAudit(aud)
	cfg := core.Config{
		WorkflowID:          fmt.Sprintf("verify-%d-%s", s.Seed, policy),
		ContainerVCores:     1,
		ContainerMemMB:      1024,
		MaxRetries:          5,
		AMNode:              "node-00",
		TaskTimeoutFloorSec: s.TimeoutFloorSec,
		Speculate:           s.Speculate,
		Audit:               aud,
		Memo:                tab,
	}
	var health *scheduler.NodeHealthTracker
	if s.Chaos != "" {
		plan, err := chaos.Parse(s.Chaos, s.ChaosSeed)
		if err != nil {
			return nil, fmt.Errorf("chaos plan: %w", err)
		}
		plan.Arm(eng, env.RM, env.FS, env.Cluster)
		cfg.Chaos = plan
		health = scheduler.NewNodeHealthTracker(eng.Now, 3, 60)
		cfg.Health = health
	}
	if s.Elastic != nil {
		mgr := autoscale.NewManager(eng, env.Cluster, env.RM, env.FS, autoscale.ManagerConfig{
			Spec:             cluster.M3Large(),
			DrainDeadlineSec: s.Elastic.DrainDeadlineSec,
			SpotNoticeSec:    s.Elastic.SpotNoticeSec,
			Protected:        []string{"node-00"},
			Rereplicate:      true,
			Health:           health,
		})
		s.Elastic.arm(eng, mgr)
	}
	sched, err := scheduler.New(policy, scheduler.Deps{Locality: env.FS, Estimator: env.Prov})
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	return &runCtx{sc: s, eng: eng, env: env, aud: aud, sched: sched, cfg: cfg}, nil
}

type runCtx struct {
	sc    *Scenario
	eng   *sim.Engine
	env   core.Env
	aud   *Auditor
	sched scheduler.Scheduler
	cfg   core.Config
}

// runPolicy executes the scenario to quiescence under one policy and audits
// the result.
func runPolicy(sc *Scenario, policy string, tamper func(core.Env)) PolicyRun {
	return runPolicyDriver(sc, policy, tamper, sc.Driver, "")
}

// runPolicyDriver is runPolicy over an arbitrary driver factory: the spec
// driver for the main differential matrix, or a language rendering for the
// portability family (language tags the run and switches the capture to
// canonical comparison).
func runPolicyDriver(sc *Scenario, policy string, tamper func(core.Env), driver func() wf.Driver, language string) PolicyRun {
	run := PolicyRun{Policy: policy, Lang: language, Completed: map[string]int{}}
	ctx, err := sc.buildRun(policy, tamper, nil)
	if err != nil {
		run.Err = err.Error()
		return run
	}
	rep, err := core.Run(ctx.env, driver(), ctx.sched, ctx.cfg)
	if err != nil {
		run.Err = err.Error()
		run.Violations = ctx.aud.Violations()
		return run
	}
	run.capture(rep, ctx.aud)
	return run
}

// runResume executes the kill/resume variant: launch under FCFS, kill the
// AM partway through the baseline makespan, resume a fresh AM incarnation
// from provenance on the surviving substrate, and verify that recovery
// re-executed zero completed tasks. The chaos plan instance spans both
// incarnations (the injected world does not reset when the AM dies).
func runResume(sc *Scenario, baseline float64, tamper func(core.Env)) PolicyRun {
	return runResumeDriver(sc, baseline, tamper, sc.Driver, "")
}

// runResumeDriver is runResume over an arbitrary driver factory. The
// factory is called once per AM incarnation, exactly like a real restart
// re-parsing the workflow source. For the spec driver (language == ""),
// declared output paths are stable across incarnations, so recovery must
// re-execute zero completed tasks. A language rendering synthesizes paths
// around process-local task IDs, so its second incarnation matches nothing
// in provenance and legitimately re-executes the whole workflow — the
// check for renderings is the canonical outcome of the final state, not
// zero re-execution.
func runResumeDriver(sc *Scenario, baseline float64, tamper func(core.Env), driver func() wf.Driver, language string) PolicyRun {
	const policy = scheduler.PolicyFCFS
	run := PolicyRun{Policy: "resume", Lang: language, Completed: map[string]int{}}
	ctx, err := sc.buildRun(policy, tamper, nil)
	if err != nil {
		run.Err = err.Error()
		return run
	}
	am, err := core.Launch(ctx.env, driver(), ctx.sched, ctx.cfg)
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
		// The run beat the kill point (tiny scenario); audit it as a plain
		// run — resume has nothing to recover.
		rep, err := am.Report()
		if err != nil {
			run.Err = err.Error()
			return run
		}
		run.capture(rep, ctx.aud)
		return run
	}

	completedAtKill := am.CompletedTasks()
	am.Kill()
	// Second incarnation: the cluster, HDFS, provenance store, armed chaos
	// events — and the auditor's RM-level state — survive; only AM state is
	// lost. OnResume clears the per-incarnation task bookkeeping while
	// keeping container, capacity, and node-death history, so late defensive
	// re-releases of first-incarnation containers stay legitimate.
	ctx.aud.OnResume()
	sched2, err := scheduler.New(policy, scheduler.Deps{Locality: ctx.env.FS, Estimator: ctx.env.Prov})
	if err != nil {
		run.Err = err.Error()
		return run
	}
	am2, err := core.Resume(ctx.env, driver(), sched2, ctx.cfg, ctx.env.Prov.Store())
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

	// Replay equivalence: recovery reconstructed exactly what had completed,
	// and nothing completed was re-executed. Only spec drivers have stable
	// paths for provenance recovery to match; renderings re-execute.
	if run.Succeeded && language == "" {
		if rep.Recovered != completedAtKill {
			run.Violations = append(run.Violations, Violation{
				TimeSec:   ctx.eng.Now(),
				Invariant: "zero-reexecution",
				Detail:    fmt.Sprintf("recovered %d tasks, %d had completed at the kill", rep.Recovered, completedAtKill),
			})
		}
		if rep.Recovered+len(rep.Results) != sc.TotalTasks() {
			run.Violations = append(run.Violations, Violation{
				TimeSec:   ctx.eng.Now(),
				Invariant: "zero-reexecution",
				Detail: fmt.Sprintf("recovered %d + executed %d != %d total tasks (completed work re-ran)",
					rep.Recovered, len(rep.Results), sc.TotalTasks()),
			})
		}
	}
	return run
}

// diffCompleted renders the difference between two completion multisets.
func diffCompleted(want, got map[string]int) string {
	var missing, extra []string
	for k, n := range want {
		if got[k] < n {
			missing = append(missing, k)
		}
	}
	for k, n := range got {
		if want[k] < n {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	var parts []string
	if len(missing) > 0 {
		parts = append(parts, fmt.Sprintf("missing %v", missing))
	}
	if len(extra) > 0 {
		parts = append(parts, fmt.Sprintf("extra %v", extra))
	}
	return strings.Join(parts, "; ")
}

// CheckScenario executes the scenario under every requested policy plus the
// kill/resume variant and returns the differential verdict: per-run
// invariant violations, policy-vs-policy disagreement on the completed task
// multiset or final outputs, and replay divergence all become Failures.
func CheckScenario(sc *Scenario, opts Options) *Result {
	res := &Result{Scenario: sc}
	expected := sc.expectedCompletions()

	var baseline *PolicyRun
	for _, policy := range opts.policies() {
		if staticPolicies[policy] && (sc.Iterative() || sc.KillsNode() || sc.Elastic.Disruptive()) {
			// §3.4: static planners cannot run unfolding workflows, and a
			// static plan cannot reroute around a node the chaos plan kills
			// or the elastic plan drains away.
			continue
		}
		run := runPolicy(sc, policy, opts.Tamper)
		res.Runs = append(res.Runs, run)
		r := &res.Runs[len(res.Runs)-1]
		for _, v := range r.Violations {
			res.Failures = append(res.Failures, fmt.Sprintf("policy %s: %s", policy, v))
		}
		if !r.Succeeded {
			res.Failures = append(res.Failures, fmt.Sprintf("policy %s: workflow failed: %s", policy, r.Err))
			continue
		}
		if d := diffCompleted(expected, r.Completed); d != "" {
			res.Failures = append(res.Failures, fmt.Sprintf("policy %s: completed set diverges from scenario: %s", policy, d))
		}
		if baseline == nil {
			baseline = r
			continue
		}
		if d := diffCompleted(baseline.Completed, r.Completed); d != "" {
			res.Failures = append(res.Failures,
				fmt.Sprintf("policy %s: completed set diverges from %s: %s", policy, baseline.Policy, d))
		}
		if strings.Join(baseline.Outputs, "\n") != strings.Join(r.Outputs, "\n") {
			res.Failures = append(res.Failures,
				fmt.Sprintf("policy %s: outputs %v differ from %s outputs %v", policy, r.Outputs, baseline.Policy, baseline.Outputs))
		}
	}

	if sc.Service != nil {
		run := runService(sc, opts.Tamper)
		res.Runs = append(res.Runs, run)
		r := &res.Runs[len(res.Runs)-1]
		for _, v := range r.Violations {
			res.Failures = append(res.Failures, fmt.Sprintf("service: %s", v))
		}
		if r.Err != "" {
			res.Failures = append(res.Failures, fmt.Sprintf("service: %s", r.Err))
		}
	}

	if !opts.SkipResume && baseline != nil {
		run := runResume(sc, baseline.MakespanSec, opts.Tamper)
		res.Runs = append(res.Runs, run)
		r := &res.Runs[len(res.Runs)-1]
		for _, v := range r.Violations {
			res.Failures = append(res.Failures, fmt.Sprintf("resume: %s", v))
		}
		if !r.Succeeded {
			res.Failures = append(res.Failures, fmt.Sprintf("resume: workflow failed: %s", r.Err))
		} else if strings.Join(baseline.Outputs, "\n") != strings.Join(r.Outputs, "\n") {
			res.Failures = append(res.Failures,
				fmt.Sprintf("resume: outputs %v differ from %s outputs %v", r.Outputs, baseline.Policy, baseline.Outputs))
		}
	}

	if sc.Portability {
		runs, fails := runPortability(sc, opts)
		res.Runs = append(res.Runs, runs...)
		res.Failures = append(res.Failures, fails...)
	}

	if sc.Memo && baseline != nil {
		runs, fails := runMemoFamily(sc, baseline, opts)
		res.Runs = append(res.Runs, runs...)
		res.Failures = append(res.Failures, fails...)
	}
	return res
}
