package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/shard"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// simShape is one serial simulator workload: a synthetic layered DAG of
// Tasks tasks, Width per layer, on Nodes uniform nodes behind one switch
// with 40 MB/s per node.
//
// sim-wide and sim-narrow run the same number of tasks with the same
// allocation per task, so per-task costs (YARN allocate, scheduler Select,
// provenance, DAG bookkeeping, GC) weigh alike on both. Only sim-wide keeps
// ~Width flows on the switch at once, which makes the O(flows) switch
// reshare, replica placement and allocation over 512 nodes its hot path. A
// reshare change should move sim-wide and leave sim-narrow alone; a
// per-task change should move both.
type simShape struct {
	Name   string
	Tasks  int
	Width  int
	Nodes  int
	Policy string
}

var simShapes = map[string]simShape{
	"sim-wide":   {Name: "sim-wide", Tasks: 20480, Width: 512, Nodes: 512, Policy: scheduler.PolicyDataAware},
	"sim-narrow": {Name: "sim-narrow", Tasks: 20480, Width: 32, Nodes: 32, Policy: scheduler.PolicyAdaptiveGreedy},
}

// job is one simulated workflow execution: the substrate recipe, a fresh
// driver per execution, and the policy. Every execution goes through the
// public path Materialize → scheduler.New → core.Launch → Engine.Run →
// AM.Report.
type job struct {
	name   string
	tasks  int // expected completed tasks
	policy string
	recipe func() *recipes.Recipe
	driver func() (wf.Driver, error)
	cfg    core.Config
	// keepReport keeps the AM report in the execution.
	keepReport bool
}

// execution is what one run of a job measured and produced.
type execution struct {
	setup, run, report time.Duration
	runCPU             time.Duration // process CPU time during Engine.Run
	allocBytes         uint64
	gcCycles           uint64
	gcCPU, cpu         float64 // CPU seconds in GC and in total

	// modelled outputs: must be identical on every execution of a job
	out modelled

	events, reshares int64
	maxDepth         int

	rep *core.Report // with job.keepReport

	// per-layer deltas (traced executions only)
	layers   *tracer
	loopSelf time.Duration
}

// modelled is the part of an execution that a performance change must not
// alter: the semantic guard.
type modelled struct {
	Completed  int     `json:"completed"`
	Containers int64   `json:"containers"`
	Retries    int     `json:"retries"`
	Events     int64   `json:"events"`
	Makespan   float64 `json:"makespan"`
	Digest     string  `json:"digest"`
}

// execute runs the job once. With a tracer it installs the decorators.
func (j *job) execute(t *tracer) (*execution, error) {
	before := readRuntime()
	t0 := time.Now()

	driver, err := j.driver()
	if err != nil {
		return nil, err
	}
	eng, env, err := j.recipe().Materialize()
	if err != nil {
		return nil, err
	}
	deps := scheduler.Deps{Locality: env.FS, Estimator: env.Prov}
	cfg := j.cfg
	if t != nil {
		store, err := wrapStore(provenance.NewMemStore(), t)
		if err != nil {
			return nil, err
		}
		if env.Prov, err = provenance.NewManager(store); err != nil {
			return nil, err
		}
		if deps.Locality, err = wrapLocality(env.FS, t); err != nil {
			return nil, err
		}
		if deps.Estimator, err = wrapEstimator(env.Prov, t); err != nil {
			return nil, err
		}
		if driver, err = wrapDriver(driver, t); err != nil {
			return nil, err
		}
		cfg.Audit = &countingAudit{t: t}
	}
	sched, err := scheduler.New(j.policy, deps)
	if err != nil {
		return nil, err
	}
	if t != nil {
		if sched, err = wrapScheduler(sched, t); err != nil {
			return nil, err
		}
	}
	am, err := core.Launch(env, driver, sched, cfg)
	if err != nil {
		return nil, err
	}
	ex := &execution{setup: time.Since(t0)}

	var topBefore time.Duration
	if t != nil {
		topBefore = t.top
	}
	c1, t1 := processCPU(), time.Now()
	eng.Run()
	ex.run, ex.runCPU = time.Since(t1), processCPU()-c1
	if t != nil {
		ex.loopSelf = ex.run - (t.top - topBefore)
	}

	t2 := time.Now()
	rep, err := am.Report()
	ex.report = time.Since(t2)
	after := readRuntime()
	ex.allocBytes = after.allocBytes - before.allocBytes
	ex.gcCycles = after.gcCycles - before.gcCycles
	ex.gcCPU, ex.cpu = after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU
	if err != nil {
		return nil, fmt.Errorf("%s: workflow failed: %w", j.name, err)
	}
	if !rep.Succeeded {
		return nil, fmt.Errorf("%s: workflow did not succeed", j.name)
	}
	ex.events = eng.Processed()
	ex.maxDepth = eng.MaxQueueDepth()
	ex.reshares = env.Cluster.Switch.Reshares()
	ex.out = modelled{
		Completed:  len(rep.Results),
		Containers: rep.Containers,
		Retries:    rep.Retries,
		Events:     ex.events,
		Makespan:   rep.MakespanSec,
		Digest:     digest(rep),
	}
	ex.layers = t
	if j.keepReport {
		ex.rep = rep
	}
	return ex, nil
}

// digest hashes every result the report holds, in report order: which task
// ran where, when, in which attempt, and how it ended. Task IDs are left out
// and output paths are counted, not hashed, because frontends derive them
// from a process-wide counter.
func digest(rep *core.Report) string {
	h := sha256.New()
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, r := range rep.Results {
		fmt.Fprintf(h, "%s|%s|%s|%d|%s|%s|%d|%s\n", r.Task.Name, r.Task.Command, r.Node, r.Attempt,
			f(r.Start), f(r.End), r.ExitCode, r.Error)
	}
	fmt.Fprintf(h, "makespan %s containers %d retries %d outputs %d\n", f(rep.MakespanSec), rep.Containers, rep.Retries, len(rep.Outputs))
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// simJob generates the workload's inputs from the seed: each layer's CPU
// demand, each task's output size and cross-lane neighbour, each lane's
// staged input size, and the HDFS placement seed. Only these generated
// values reach the program. CPU demand varies per layer, not per task, so
// that a layer's tasks finish computing together and sim-wide really keeps
// ~Width flows on the switch at once; sizes vary per task, so that the
// flows then finish one by one rather than in a single switch event.
func simJob(s simShape, seed int64) *job {
	rng := rand.New(rand.NewSource(seed))
	layers := s.Tasks / s.Width
	n := layers * s.Width
	cpu := make([]float64, layers)
	for l := range cpu {
		cpu[l] = 20 * (0.9 + 0.2*rng.Float64())
	}
	outMB := make([]float64, n)
	neighbour := make([]int, n)
	for i := range neighbour {
		outMB[i] = 8 * (0.75 + 0.5*rng.Float64())
		neighbour[i] = rng.Intn(s.Width)
	}
	inputs := make([]workloads.Input, s.Width)
	initial := make([]string, s.Width)
	for w := range inputs {
		initial[w] = fmt.Sprintf("/bench/in/part-%04d", w)
		inputs[w] = workloads.Input{Path: initial[w], SizeMB: 8 * (0.75 + 0.5*rng.Float64())}
	}
	hdfsSeed := rng.Int63()

	out := func(l, w int) string { return fmt.Sprintf("/bench/l%03d/part-%04d", l, w) }
	driver := func() (wf.Driver, error) {
		idBase := wf.ReserveIDs(int64(n))
		build := func() ([]*wf.Task, []string, []wf.Edge, error) {
			tasks := make([]*wf.Task, 0, n)
			for l := 0; l < layers; l++ {
				for w := 0; w < s.Width; w++ {
					i := l*s.Width + w
					ins := []string{initial[w]}
					if l > 0 {
						ins = []string{out(l-1, w), out(l-1, neighbour[i])}
					}
					tasks = append(tasks, &wf.Task{
						ID:           idBase + int64(i),
						Name:         fmt.Sprintf("stage-%03d", l),
						Command:      fmt.Sprintf("synth stage %d lane %d", l, w),
						Inputs:       ins,
						OutputParams: []string{"out"},
						Declared:     map[string][]wf.FileInfo{"out": {{Path: out(l, w), SizeMB: outMB[i]}}},
						CPUSeconds:   cpu[l],
						Threads:      1,
						MemMB:        512,
					})
				}
			}
			return tasks, initial, nil, nil
		}
		return &wf.StaticBase{WFName: s.Name, Build: build}, nil
	}
	return &job{
		name:   s.Name,
		tasks:  n,
		policy: s.Policy,
		recipe: func() *recipes.Recipe {
			return &recipes.Recipe{
				Name:       s.Name,
				Groups:     []recipes.NodeGroup{{Count: s.Nodes, Spec: cluster.C32XLarge()}},
				SwitchMBps: 40 * float64(s.Nodes),
				HDFS:       hdfs.Config{BlockSizeMB: 64, Replication: 3},
				YARN:       yarn.Config{},
				Seed:       hdfsSeed,
				Inputs:     inputs,
			}
		},
		driver: driver,
		cfg:    core.Config{WorkflowID: "perfbench-" + s.Name, ContainerVCores: 1, ContainerMemMB: 1024},
	}
}

// splitShape is the shape's work cut into n independent shards.
func splitShape(s simShape, n int) simShape {
	s.Tasks /= n
	s.Width /= n
	s.Nodes /= n
	return s
}

//go:embed reference.json
var referenceJSON []byte

// reference holds the modelled outputs recorded with the benchmark, per sim
// workload and seed. A program change that alters any of them fails the
// benchmark; re-record only for a change meant to alter the model.
func reference(workload string, seed int64) (modelled, bool, error) {
	var all map[string]map[string]modelled
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		return modelled{}, false, fmt.Errorf("reference.json: %w", err)
	}
	m, ok := all[workload][strconv.FormatInt(seed, 10)]
	return m, ok, nil
}

// recordReference executes every sim workload once per seed 1..n and writes
// the modelled outputs to perfbench/reference.json.
func recordReference(n int) error {
	all := map[string]map[string]modelled{}
	for name, s := range simShapes {
		all[name] = map[string]modelled{}
		for seed := int64(1); seed <= int64(n); seed++ {
			j := simJob(s, seed)
			ex, err := j.execute(nil)
			if err != nil {
				return err
			}
			all[name][strconv.FormatInt(seed, 10)] = ex.out
			fmt.Fprintf(os.Stderr, "%s seed %d: %+v\n", name, seed, ex.out)
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("perfbench/reference.json", append(b, '\n'), 0o644)
}

// checkExecution compares one execution's modelled outputs with the first
// execution of the run and with the recorded reference.
func checkExecution(o *outcome, j *job, first, got, ref modelled, haveRef bool, what string) {
	if got.Completed != j.tasks {
		o.fail("%s: %d tasks completed, want %d", what, got.Completed, j.tasks)
	}
	if got != first {
		o.fail("%s: modelled outputs %+v differ from the first execution's %+v", what, got, first)
	}
	if haveRef && got != ref {
		o.fail("%s: modelled outputs %+v differ from the recorded reference %+v", what, got, ref)
	}
}

// runSim runs a serial simulator workload.
func runSim(opt options, s simShape) (*outcome, error) {
	o := newOutcome()
	j := simJob(s, opt.seed)
	ref, haveRef, err := reference(s.Name, opt.seed)
	if err != nil {
		return nil, err
	}
	if !haveRef {
		fmt.Fprintf(os.Stderr, "perfbench: no recorded reference for %s seed %d; checking repetitions against each other only\n", s.Name, opt.seed)
	}
	budget := time.Duration(opt.seconds * float64(time.Second))

	// The first execution is a warm-up: checked, not timed.
	runtime.GC()
	warm, err := j.execute(nil)
	o.attempted++
	if err != nil {
		o.failed++
		return nil, err
	}
	first := warm.out
	checkExecution(o, j, first, warm.out, ref, haveRef, "warm-up execution")

	if opt.trace {
		untraced, traced, err := pairedExecutions(o, []*job{j}, budget*70/100, func(_ int, ex *execution) {
			checkExecution(o, j, first, ex.out, ref, haveRef, "execution")
		})
		if err != nil {
			return nil, err
		}
		o.reps = len(untraced) + len(traced)
		var latS []float64
		for _, ex := range untraced {
			latS = append(latS, (ex.setup + ex.run + ex.report).Seconds())
		}
		reportLayers(o, untraced, traced)
		speedup, err := shardSpeedup(s, opt.seed, median(latS))
		if err != nil {
			return nil, err
		}
		o.set("shard.speedup", speedup, "ratio")
		size := probeSize{nodes: s.Nodes, flows: s.Width, signatures: s.Tasks / s.Width, memoEntries: s.Tasks, seed: opt.seed}
		if err := runProbes(o, size); err != nil {
			return nil, err
		}
		// The service layer is not on this workload's path, but a traced
		// run prints every per-layer metric BENCHMARK.json lists; the
		// service and memo numbers come from a short serve-mix burst and
		// describe serve-mix only.
		return o, serveProbe(o, opt.seed)
	}

	var wallUS, cpuUS, allocKB, setupS, latMS []float64
	start := time.Now()
	for len(wallUS) < 3 || time.Since(start) < budget {
		runtime.GC()
		ex, err := j.execute(nil)
		o.attempted++
		if err != nil {
			o.failed++
			return nil, err
		}
		checkExecution(o, j, first, ex.out, ref, haveRef, "execution")
		tasks := float64(ex.out.Completed)
		wallUS = append(wallUS, float64(ex.run.Nanoseconds())/1e3/tasks)
		cpuUS = append(cpuUS, float64(ex.runCPU.Nanoseconds())/1e3/tasks)
		allocKB = append(allocKB, float64(ex.allocBytes)/1024/tasks)
		setupS = append(setupS, ex.setup.Seconds())
		latMS = append(latMS, float64((ex.setup+ex.run+ex.report).Nanoseconds())/1e6)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	o.reps = len(wallUS)
	o.set("task_cpu_us", fastQuartile(cpuUS, false), "us")
	o.report("task_wall_us", fastQuartile(wallUS, false), "us")
	o.set("alloc_kb_per_task", median(allocKB), "KiB")
	o.set("peak_rss_mb", rss, "MiB")
	o.set("setup_s", median(setupS), "s")
	o.report("latency_p50_ms", median(latMS), "ms")
	rates := make([]float64, len(latMS))
	for i, ms := range latMS {
		rates[i] = 1e3 / ms
	}
	o.report("capacity_rps", fastQuartile(rates, true), "runs/s")
	o.samples["task_wall_us"] = wallUS
	o.samples["task_cpu_us"] = cpuUS
	o.samples["alloc_kb_per_task"] = allocKB
	o.samples["setup_s"] = setupS
	o.samples["latency_p50_ms"] = latMS
	o.samples["capacity_rps"] = rates
	return o, nil
}

// pairedExecutions alternates untraced and traced executions of the jobs,
// round-robin, for at least d and at least two pairs per job, so that the
// tracing overhead compares neighbouring executions. check sees every
// execution with its job's index.
func pairedExecutions(o *outcome, jobs []*job, d time.Duration, check func(int, *execution)) (untraced, traced []*execution, err error) {
	start := time.Now()
	for i := 0; i < 4*len(jobs) || time.Since(start) < d; i++ {
		k := (i / 2) % len(jobs)
		var t *tracer
		if i%2 == 1 {
			t = newTracer()
		}
		runtime.GC()
		ex, err := jobs[k].execute(t)
		o.attempted++
		if err != nil {
			o.failed++
			return nil, nil, err
		}
		check(k, ex)
		if t == nil {
			untraced = append(untraced, ex)
		} else {
			traced = append(traced, ex)
		}
	}
	return untraced, traced, nil
}

// reportLayers turns traced executions into per-layer metrics, as means per
// workflow execution. The untraced executions beside them give the tracing
// overhead and the runtime's GC figures.
func reportLayers(o *outcome, untraced, execs []*execution) {
	n := float64(len(execs))
	var sum tracer
	var events, reshares, tasks, containers float64
	var maxDepth, wallUS, loopSelf []float64
	var runWall time.Duration
	for _, ex := range execs {
		t := ex.layers
		for l := 0; l < numLayers; l++ {
			sum.calls[l] += t.calls[l]
			sum.self[l] += t.self[l]
			sum.total[l] += t.total[l]
		}
		sum.selects += t.selects
		sum.emptySelects += t.emptySelects
		sum.appends += t.appends
		sum.attempts += t.attempts
		sum.completions += t.completions
		events += float64(ex.events)
		reshares += float64(ex.reshares)
		tasks += float64(ex.out.Completed)
		containers += float64(ex.out.Containers)
		maxDepth = append(maxDepth, float64(ex.maxDepth))
		wallUS = append(wallUS, float64(ex.run.Nanoseconds())/1e3/float64(ex.out.Completed))
		loopSelf = append(loopSelf, float64(ex.loopSelf.Nanoseconds())/1e3)
		runWall += ex.run
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	per := func(x int64) float64 { return float64(x) / n }
	o.set("sim.events", events/n, "count")
	o.set("sim.events_per_task", ratio(events, tasks), "count")
	o.set("sim.switch_reshares", reshares/n, "count")
	o.set("sim.switch_reshares_per_task", ratio(reshares, tasks), "count")
	o.set("sim.max_queue_depth", median(maxDepth), "count")
	o.set("yarn.containers", containers/n, "count")
	o.set("hdfs.locality_calls", per(sum.calls[layerLocality]), "count")
	o.set("hdfs.locality_share", ratio(float64(sum.total[layerLocality]), float64(runWall)), "ratio")
	o.set("scheduler.calls", per(sum.calls[layerSched]), "count")
	o.set("scheduler.self_us", us(sum.self[layerSched]), "us")
	o.set("scheduler.select_empty_ratio", ratio(float64(sum.emptySelects), float64(sum.selects)), "ratio")
	o.set("provenance.appends", per(sum.appends), "count")
	o.set("provenance.store_us", us(sum.total[layerStore]), "us")
	o.set("provenance.estimate_calls", per(sum.calls[layerEstimate]), "count")
	o.set("provenance.estimate_share", ratio(float64(sum.total[layerEstimate]), float64(runWall)), "ratio")
	o.set("core.attempts", per(sum.attempts), "count")
	o.set("core.retry_ratio", ratio(float64(sum.attempts)-float64(sum.completions), float64(sum.attempts)), "ratio")
	o.set("core.loop_self_us", mean(loopSelf), "us")
	o.set("wf.parse_us", us(sum.total[layerParse]), "us")
	o.set("wf.complete_us", us(sum.total[layerComplete]), "us")
	var plainUS []float64
	var gcCycles, gcCPU, cpu float64
	for _, ex := range untraced {
		plainUS = append(plainUS, float64(ex.run.Nanoseconds())/1e3/float64(ex.out.Completed))
		gcCycles += float64(ex.gcCycles)
		gcCPU += ex.gcCPU
		cpu += ex.cpu
	}
	o.set("trace.overhead_us", median(wallUS)-median(plainUS), "us")
	o.set("runtime.gc_cycles", gcCycles/float64(len(untraced)), "count")
	o.set("runtime.gc_cpu_share", ratio(gcCPU, cpu), "ratio")
}

// shardSpeedup is the serial wall time of the workload's work (set-up and
// run, one engine) divided by the wall time of the same work split into
// nproc shards run by nproc workers.
func shardSpeedup(s simShape, seed int64, serialSec float64) (float64, error) {
	n := runtime.NumCPU()
	part := splitShape(s, n)
	jobs := make([]*job, n)
	for i := range jobs {
		jobs[i] = simJob(part, seed+int64(i))
	}
	runtime.GC()
	start := time.Now()
	err := shard.Run(n, n, func(i int) error {
		_, err := jobs[i].execute(nil)
		return err
	})
	if err != nil {
		return 0, err
	}
	return serialSec / time.Since(start).Seconds(), nil
}
