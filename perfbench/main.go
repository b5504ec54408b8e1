// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, measures it for a fixed number of seconds, checks
// the program's outputs, and prints every metric by name and unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off); with
// -trace 1 a separate traced run prints the per-layer split. The workloads,
// the metrics and which end-to-end number each layer metric should move are
// described in METRICS.md beside this file.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim-wide --seed 1 --seconds 30 --trace 0
//
// The program is driven only through its public APIs (recipes, scheduler,
// core, sim for the simulator; service.Server's HTTP handler over loopback
// for serve), and every layer is timed from outside, at the seams the
// program already accepts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// reported are printed with the metrics and kept in the record, but are
	// not part of the result line: wall-clock figures whose spread on a
	// shared host is too wide to gate on (see METRICS.md).
	reported map[string]metric
	// samples holds, per end-to-end metric, the per-repetition values its
	// reported number summarizes; the record prints their quartiles.
	samples map[string][]float64
	reps    int
	// problems lists every failed output check; any makes the run fail.
	problems []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, reported: map[string]metric{}, samples: map[string][]float64{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

func (o *outcome) report(name string, v float64, unit string) { o.reported[name] = metric{v, unit} }

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var runners = map[string]func(options) (*outcome, error){
	"sim-wide":   func(o options) (*outcome, error) { return runSim(o, simShapes["sim-wide"]) },
	"sim-narrow": func(o options) (*outcome, error) { return runSim(o, simShapes["sim-narrow"]) },
	"serve-mix":  runServeMix,
}

func main() {
	var opt options
	var trace int
	var record int
	flag.StringVar(&opt.workload, "workload", "", "workload: sim-wide, sim-narrow or serve-mix")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.IntVar(&record, "record-reference", 0, "write the sim reference outputs for seeds 1..N to perfbench/reference.json and exit")
	flag.Parse()
	opt.trace = trace == 1

	if record > 0 {
		if err := recordReference(record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := runners[opt.workload]
	if !ok || opt.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (sim-wide, sim-narrow, serve-mix), -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	if err := checkSourceTree(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	start := time.Now()
	out, err := run(opt)
	if err != nil {
		// A run that stops on an error (a workflow that did not succeed, a
		// refused submission) is a failed output check: the result line
		// still says so.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		line, _ := json.Marshal(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		fmt.Println(string(line))
		os.Exit(1)
	}
	printRecord(opt, out, time.Since(start))
	for i, p := range out.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failed output checks\n", len(out.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", p)
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted < 1 {
		os.Exit(1)
	}
}

// printRecord prints the human-readable metric lines and the machine record:
// where and how the numbers were taken, and the spread behind each
// end-to-end metric.
func printRecord(opt options, out *outcome, wall time.Duration) {
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	failedRatio := 0.0
	if out.attempted > 0 {
		failedRatio = float64(out.failed) / float64(out.attempted)
	}
	out.report("failed_ratio", failedRatio, "ratio")
	names = names[:0]
	for n := range out.reported {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.reported[n]
		fmt.Printf("%-32s %14.6g %s (reported, not gated)\n", n, m.Value, m.Unit)
	}

	spread := map[string]any{}
	for n, xs := range out.samples {
		q1, med, q3 := quartiles(xs)
		spread[n] = map[string]float64{"n": float64(len(xs)), "q1": q1, "median": med, "q3": q3}
	}
	rec := map[string]any{
		"workload":    opt.workload,
		"seed":        opt.seed,
		"seconds":     opt.seconds,
		"trace":       opt.trace,
		"repetitions": out.reps,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu":         cpuModel(),
		"go":          runtime.Version(),
		"commit":      commit(),
		"source":      sourceDigest(),
		"reported":    out.reported,
		"spread":      spread,
		"wall_s":      wall.Seconds(),
	}
	b, _ := json.Marshal(rec)
	fmt.Println("record " + string(b))
}

// cpuModel reads the CPU model name, or "unknown" where /proc is absent.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the program's revision: BENCH_COMMIT when the caller knows
// it, else "unknown" (a checkout without version control has none; the
// source digest in the record identifies the code either way).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
