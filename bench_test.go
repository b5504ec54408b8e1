// Package hiway's top-level benchmarks regenerate each table and figure of
// the paper's evaluation (§4). One benchmark iteration executes the whole
// experiment at reduced repetition counts; run cmd/hiway-bench for the
// full-size versions and the rendered tables.
package hiway_test

import (
	"encoding/json"
	"os"
	"testing"

	"hiway/internal/experiments"
)

// BenchmarkTable1 renders the experiment overview (trivially cheap; kept so
// every table has a bench target).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.RenderTable1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4: SNV calling, Hi-WAY vs Tez, 72–576
// containers on the 24-node cluster.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(experiments.Fig4Options{Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.HiWayMin, "hiway-576c-min")
		b.ReportMetric(last.TezMin, "tez-576c-min")
	}
}

// BenchmarkTable2Fig5 regenerates Table 2 / Fig. 5: weak scaling from 1 to
// 128 workers with the data volume doubling alongside.
func BenchmarkTable2Fig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(experiments.Table2Options{Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.AvgMin, "runtime-128w-min")
		b.ReportMetric(last.CostPerGB, "cost-per-GB-usd")
	}
}

// BenchmarkFig6 regenerates Fig. 6: master/worker resource utilization
// while scaling out.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(experiments.Table2Options{Runs: 1, Workers: []int{1, 16, 128}})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1].Util
		b.ReportMetric(last.HadoopCPULoad, "hadoop-cpu-load")
		b.ReportMetric(last.WorkerCPULoad, "worker-cpu-load")
	}
}

// BenchmarkFig8 regenerates Fig. 8: TRAPLINE on Hi-WAY vs Galaxy CloudMan,
// clusters of 1–6 c3.2xlarge nodes.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Fig8Options{Runs: 2})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.HiWayMin, "hiway-6n-min")
		b.ReportMetric(last.CloudManMin, "cloudman-6n-min")
	}
}

// BenchmarkFig9 regenerates Fig. 9: Montage under HEFT with growing
// provenance vs the FCFS baseline on the heterogeneous cluster.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Fig9Options{Reps: 6})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FCFSMedianSec, "fcfs-median-s")
		b.ReportMetric(res.Points[0].MedianSec, "heft-0prior-s")
		b.ReportMetric(res.Points[len(res.Points)-1].MedianSec, "heft-converged-s")
	}
}

// --- Ablations of the design choices DESIGN.md calls out ---

// BenchmarkAblationSchedulers compares all four policies (plus the dynamic
// adaptive-greedy extension) with warm provenance on the heterogeneous
// cluster.
func BenchmarkAblationSchedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SchedulerAblation(4, 12, 7)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MedianSec, r.Policy+"-median-s")
		}
	}
}

// BenchmarkAblationReplication varies the HDFS replication factor under
// data-aware scheduling (the locality/write-traffic trade-off of Fig. 4).
func BenchmarkAblationReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ReplicationAblation(5)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MakespanMin, "repl"+string(rune('0'+r.Replication))+"-min")
		}
	}
}

// BenchmarkAblationEstimatePolicy contrasts the paper's latest-observation
// zero-default estimates with a non-exploring mean fallback.
func BenchmarkAblationEstimatePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.EstimateAblation(4, 8, 11)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ZeroDefaultMedianSec[7], "zero-default-run8-s")
		b.ReportMetric(res.MeanFallbackMedianSec[7], "mean-fallback-run8-s")
	}
}

// BenchmarkAblationMultiAM measures §3.1's one-AM-per-workflow design:
// concurrent multi-tenant execution vs serializing workflows.
func BenchmarkAblationMultiAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiAMAblation(4, 13)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ConcurrentMin, "concurrent-min")
		b.ReportMetric(res.SerialMin, "serial-min")
	}
}

// BenchmarkAblationContainerSizing measures §5's future-work mode:
// task-tailored containers vs the uniform configuration.
func BenchmarkAblationContainerSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ContainerSizingAblation(17)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.UniformMin, "uniform-min")
		b.ReportMetric(res.TailoredMin, "tailored-min")
	}
}

// BenchmarkAblationFaultTolerance sweeps injected failure rates over three
// policies with speculation off/on (the robustness layer's headline
// numbers: makespan cost of faults, and what speculation buys back).
func BenchmarkAblationFaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FaultToleranceAblation(2, 29)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.CrashRate == 0.25 && r.Policy == "fcfs" {
				mode := "nospec"
				if r.Speculate {
					mode = "spec"
				}
				b.ReportMetric(r.MedianSec, "fcfs-r25-"+mode+"-s")
			}
		}
	}
}

// BenchmarkScale runs the scale-out harness — synthetic layered workflows
// of up to ~10k tasks on clusters of up to 256 nodes, and a 102k-task
// sharded rung, with HIWAY_SCALE_FULL=1 — and holds the fresh ladder to the
// committed BENCH_scale.json (checkScaleLadder). It measures the simulator
// itself: events/sec and allocations are the kernel's own hot-path cost,
// not modeled hardware time. The full ladder rewrites BENCH_scale.json; the
// default short ladder is a smoke run and leaves the file alone.
func BenchmarkScale(b *testing.B) {
	full := os.Getenv("HIWAY_SCALE_FULL") != ""
	committed := committedScaleLadder(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.ScaleSweep(experiments.ScaleSweepConfigs(full))
		if err != nil {
			b.Fatal(err)
		}
		if full {
			if err := os.WriteFile("BENCH_scale.json", res.JSON(), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		checkScaleLadder(b, res, committed)
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.EventsPerSec, "events/s")
		b.ReportMetric(last.WallSec, "wall-s")
	}
}

// TestScaleLadderMatchesCommitted runs the short scale ladder and holds it
// to the committed BENCH_scale.json, so a change to the modelled makespans,
// event counts or container counts fails the ordinary test run.
func TestScaleLadderMatchesCommitted(t *testing.T) {
	res, err := experiments.ScaleSweep(experiments.ScaleSweepConfigs(false))
	if err != nil {
		t.Fatal(err)
	}
	checkScaleLadder(t, res, committedScaleLadder(t))
}

// flatThroughputFloor is the scale ladder's flat-throughput gate: the top
// rung must run at least this fraction of the 2,048-task rung's events/sec.
const flatThroughputFloor = 0.7

// committedScaleLadder reads the committed BENCH_scale.json.
func committedScaleLadder(tb testing.TB) *experiments.ScaleResult {
	tb.Helper()
	raw, err := os.ReadFile("BENCH_scale.json")
	if err != nil {
		tb.Fatal(err)
	}
	var res experiments.ScaleResult
	if err := json.Unmarshal(raw, &res); err != nil {
		tb.Fatalf("BENCH_scale.json: %v", err)
	}
	return &res
}

// checkScaleLadder checks a fresh scale ladder against the committed one.
// Every fresh rung must have a committed rung of the same shape with equal
// modelled columns — makespan, events and containers, which only a model
// change may move — and the top rung must keep flatThroughputFloor of the
// 2,048-task rung's events/sec.
func checkScaleLadder(tb testing.TB, fresh, committed *experiments.ScaleResult) {
	tb.Helper()
	if len(fresh.Points) == 0 {
		tb.Fatal("empty scale ladder")
	}
	type shape struct {
		tasks, nodes, shards int
		policy               string
	}
	want := make(map[shape]experiments.ScalePoint, len(committed.Points))
	for _, p := range committed.Points {
		want[shape{p.Tasks, p.Nodes, p.Shards, p.Policy}] = p
	}
	var base, top *experiments.ScalePoint
	for i := range fresh.Points {
		p := &fresh.Points[i]
		c, ok := want[shape{p.Tasks, p.Nodes, p.Shards, p.Policy}]
		switch {
		case !ok:
			tb.Errorf("rung %d tasks / %d nodes / %s has no committed counterpart", p.Tasks, p.Nodes, p.Policy)
		case p.MakespanSec != c.MakespanSec || p.Events != c.Events || p.Containers != c.Containers:
			tb.Errorf("rung %d tasks / %d nodes / %s: makespan %v, events %d, containers %d; committed %v, %d, %d",
				p.Tasks, p.Nodes, p.Policy, p.MakespanSec, p.Events, p.Containers, c.MakespanSec, c.Events, c.Containers)
		}
		if p.Tasks == 2048 {
			base = p
		}
		if top == nil || p.Tasks > top.Tasks {
			top = p
		}
	}
	if base == nil {
		tb.Fatal("scale ladder has no 2,048-task rung")
	}
	ratio := top.EventsPerSec / base.EventsPerSec
	tb.Logf("ladder: %dt @ %.0f ev/s -> %dt @ %.0f ev/s (ratio %.2f)",
		base.Tasks, base.EventsPerSec, top.Tasks, top.EventsPerSec, ratio)
	if ratio < flatThroughputFloor {
		tb.Errorf("top rung (%d tasks) runs at %.0f%% of the 2k rung; flat-throughput gate is %.0f%%",
			top.Tasks, 100*ratio, 100*flatThroughputFloor)
	}
}

// BenchmarkServiceLoad runs the multi-tenant service tier up the arrival-rate
// ladder — light load through saturation into overload (set
// HIWAY_SCALE_FULL=1 for the overload rungs) — first memo-off, then the same
// rungs again with the cluster-wide memo table on, and writes the
// measurements to BENCH_service.json. The figures of merit are goodput
// (which must plateau, not collapse, at overload), p99 queue wait (which
// admission backpressure must keep bounded), and the goodput lift the memo
// rungs earn from splicing repeated pipelines.
func BenchmarkServiceLoad(b *testing.B) {
	full := os.Getenv("HIWAY_SCALE_FULL") != ""
	for i := 0; i < b.N; i++ {
		cfgs := experiments.ServiceSweepConfigs(full)
		cfgs = append(cfgs, experiments.WithMemo(experiments.ServiceSweepConfigs(full))...)
		res, err := experiments.ServiceSweep(cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_service.json", res.JSON(), 0o644); err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.GoodputPerHour, "goodput/h")
		b.ReportMetric(last.QueueWaitP99Sec, "p99-wait-s")
		b.ReportMetric(last.RejectionRate, "rej-rate")
	}
}

// BenchmarkElastic runs the elastic ladder — static over-provisioning vs.
// reactive and predictive autoscaling, each with and without 30% spot-reclaim
// chaos (set HIWAY_SCALE_FULL=1 for the full arrival window) — and writes the
// measurements to BENCH_elastic.json. The figures of merit are goodput
// retained under preemption chaos and cost units spent earning it: the
// elastic policies must hold goodput near their chaos-free baseline while
// billing well under the static fleet (checkElasticLadder).
func BenchmarkElastic(b *testing.B) {
	full := os.Getenv("HIWAY_SCALE_FULL") != ""
	for i := 0; i < b.N; i++ {
		res, err := experiments.ElasticSweep(experiments.ElasticSweepConfigs(full))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_elastic.json", res.JSON(), 0o644); err != nil {
			b.Fatal(err)
		}
		checkElasticLadder(b, res)
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.GoodputPerHour, "goodput/h")
		b.ReportMetric(last.CostUnits, "cost-units")
		b.ReportMetric(float64(last.Preempted), "preempted")
	}
}

// TestElasticLadderInvariants runs the short elastic ladder and holds it to
// checkElasticLadder in the ordinary test run, without touching the
// committed BENCH_elastic.json.
func TestElasticLadderInvariants(t *testing.T) {
	res, err := experiments.ElasticSweep(experiments.ElasticSweepConfigs(false))
	if err != nil {
		t.Fatal(err)
	}
	checkElasticLadder(t, res)
}

// elasticGoodputFloor is the elastic ladder's chaos gate: under 30% spot
// chaos an elastic policy must keep this fraction of its calm goodput.
const elasticGoodputFloor = 0.8

// checkElasticLadder holds an elastic ladder to its invariants: six rungs
// (three policies, calm and 30% spot chaos), no accounting leak
// (succeeded + failed = admitted), and for the reactive and predictive
// policies, chaos goodput at least elasticGoodputFloor of calm goodput at
// a cost below the static fleet's under the same chaos.
func checkElasticLadder(tb testing.TB, res *experiments.ElasticResult) {
	tb.Helper()
	if len(res.Points) != 6 {
		tb.Fatalf("expected 6 elastic ladder points, got %d", len(res.Points))
	}
	type rung struct {
		policy   string
		spotRate float64
	}
	by := make(map[rung]experiments.ElasticPoint, len(res.Points))
	for _, p := range res.Points {
		by[rung{p.Autoscale, p.SpotRate}] = p
		if p.Succeeded+p.Failed != p.Admitted {
			tb.Errorf("accounting leak in %s spot %g: succeeded %d + failed %d != admitted %d",
				p.Autoscale, p.SpotRate, p.Succeeded, p.Failed, p.Admitted)
		}
	}
	static, ok := by[rung{"static", 0.3}]
	if !ok {
		tb.Fatal("elastic ladder has no static rung under chaos")
	}
	for _, pol := range []string{"reactive", "predictive"} {
		calm, okCalm := by[rung{pol, 0}]
		chaos, okChaos := by[rung{pol, 0.3}]
		if !okCalm || !okChaos {
			tb.Errorf("elastic ladder lacks the %s calm/chaos rungs", pol)
			continue
		}
		if calm.GoodputPerHour <= 0 {
			tb.Errorf("%s: no calm goodput", pol)
		} else if ratio := chaos.GoodputPerHour / calm.GoodputPerHour; ratio < elasticGoodputFloor {
			tb.Errorf("%s: chaos goodput only %.0f%% of calm; gate is %.0f%%", pol, 100*ratio, 100*elasticGoodputFloor)
		}
		if chaos.CostUnits >= static.CostUnits {
			tb.Errorf("%s under chaos costs %v >= static %v", pol, chaos.CostUnits, static.CostUnits)
		}
	}
}
