package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"hiway/internal/cluster"
	"hiway/internal/hdfs"
	"hiway/internal/lang"
	"hiway/internal/memo"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// Example inputs the frontend probes parse and serve-mix submits.
const (
	demoCF = "examples/demo.cf"
	snvCWL = "examples/snv.cwl"
)

// probeSize sizes the timed direct calls from the workload they explain.
type probeSize struct {
	nodes       int // cluster size (RM, HDFS, switch capacity)
	flows       int // concurrent switch flows and container requests in flight
	signatures  int // distinct task signatures the provenance indexes hold
	memoEntries int // entries the memo table holds
	seed        int64
}

// timeOps is the one harness behind every timed direct call. For each of
// the batches it calls setup outside the timed region, then times n calls
// of the returned operation; it returns the median time per call in
// nanoseconds.
func timeOps(batches, n int, setup func() (func(i int), error)) (float64, error) {
	var per []float64
	for b := 0; b < batches; b++ {
		op, err := setup()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// substrate builds an engine and a uniform cluster of n nodes behind a
// switch with 40 MB/s per node, as the sim workloads use.
func substrate(n int) (*sim.Engine, *cluster.Cluster, error) {
	eng := sim.NewEngine()
	specs := make([]cluster.NodeSpec, n)
	for i := range specs {
		specs[i] = cluster.C32XLarge()
	}
	cl, err := cluster.New(eng, cluster.Config{SwitchMBps: 40 * float64(n)}, specs)
	return eng, cl, err
}

// runProbes times the layers that have no seam by calling their public
// functions directly on generated inputs.
func runProbes(o *outcome, sz probeSize) error {
	rng := rand.New(rand.NewSource(sz.seed ^ 0x5eed))
	const batches = 7
	sizes := make([]float64, 4096)
	for i := range sizes {
		sizes[i] = 8 * (0.75 + 0.5*rng.Float64())
	}
	nodeOf := func(i int) string { return fmt.Sprintf("node-%02d", (i*7919)%sz.nodes) }

	// sim: switch submit + completion with flows-1 other flows sharing it.
	reshare, err := timeOps(batches, 256, func() (func(int), error) {
		eng := sim.NewEngine()
		sw := sim.NewSharedResource(eng, "switch", 40*float64(sz.nodes))
		for k := 1; k < sz.flows; k++ {
			sw.SubmitBackground(cluster.C32XLarge().NetMBps)
		}
		return func(i int) {
			sw.Submit(sizes[i%len(sizes)], cluster.C32XLarge().NetMBps, nil)
			eng.Run()
		}, nil
	})
	if err != nil {
		return err
	}
	o.set("sim.reshare_ns", reshare, "ns")

	// yarn: container request, allocation round and release, flows at a time.
	perRound := sz.flows
	rounds := (1024 + perRound - 1) / perRound
	reqRel, err := timeOps(batches, rounds*perRound, func() (func(int), error) {
		eng, cl, err := substrate(sz.nodes)
		if err != nil {
			return nil, err
		}
		rm := yarn.NewResourceManager(eng, cl, yarn.Config{})
		app, err := rm.SubmitApplication("probe", "")
		if err != nil {
			return nil, err
		}
		release := func(c *yarn.Container) { app.Release(c) }
		return func(i int) {
			app.Request(yarn.Request{Resource: yarn.Resource{VCores: 1, MemMB: 1024}}, release)
			if (i+1)%perRound == 0 {
				eng.Run()
			}
		}, nil
	})
	if err != nil {
		return err
	}
	o.set("yarn.request_release_ns", reqRel, "ns")

	// hdfs: metadata-only Put and a simulated Write through the switch.
	paths := make([]string, 4096)
	for i := range paths {
		paths[i] = fmt.Sprintf("/probe/%d/part-%05d", sz.seed, i)
	}
	put, err := timeOps(batches, len(paths), func() (func(int), error) {
		_, cl, err := substrate(sz.nodes)
		if err != nil {
			return nil, err
		}
		fs := hdfs.New(cl, hdfs.Config{BlockSizeMB: 64, Replication: 3}, sz.seed)
		return func(i int) { _, _ = fs.Put(paths[i], sizes[i], nodeOf(i)) }, nil
	})
	if err != nil {
		return err
	}
	o.set("hdfs.put_ns", put, "ns")
	var writeErr error
	write, err := timeOps(batches, 512, func() (func(int), error) {
		eng, cl, err := substrate(sz.nodes)
		if err != nil {
			return nil, err
		}
		fs := hdfs.New(cl, hdfs.Config{BlockSizeMB: 64, Replication: 3}, sz.seed)
		done := func(err error) {
			if err != nil {
				writeErr = err
			}
		}
		return func(i int) {
			fs.Write(nodeOf(i), paths[i], sizes[i], done)
			eng.Run()
		}, nil
	})
	if err != nil {
		return err
	}
	if writeErr != nil {
		return fmt.Errorf("hdfs write probe: %w", writeErr)
	}
	o.set("hdfs.write_us", write/1e3, "us")

	// provenance: RecordTaskEnd on an in-memory store.
	results := make([]*wf.TaskResult, 2048)
	inSizes := map[string]float64{}
	for i := range results {
		in := []string{paths[i], paths[(i+1)%len(paths)]}
		inSizes[in[0]] = sizes[i]
		start := rng.Float64() * 1000
		results[i] = &wf.TaskResult{
			Task: &wf.Task{
				ID: int64(i + 1), Name: fmt.Sprintf("stage-%03d", i%sz.signatures),
				Command: fmt.Sprintf("synth %d", i), Inputs: in, OutputParams: []string{"out"},
				CPUSeconds: 20, Threads: 1, MemMB: 512,
			},
			Node: nodeOf(i), Start: start, End: start + 20*(0.9+0.2*rng.Float64()),
			Outputs: map[string][]wf.FileInfo{"out": {{Path: paths[(i+2)%len(paths)], SizeMB: sizes[i]}}},
		}
	}
	var recErr error
	record, err := timeOps(batches, len(results), func() (func(int), error) {
		m, err := provenance.NewManager(provenance.NewMemStore())
		if err != nil {
			return nil, err
		}
		return func(i int) {
			if err := m.RecordTaskEnd("probe", "probe", results[i], inSizes); err != nil {
				recErr = err
			}
		}, nil
	})
	if err != nil {
		return err
	}
	if recErr != nil {
		return fmt.Errorf("provenance probe: %w", recErr)
	}
	o.set("provenance.record_task_end_ns", record, "ns")

	// memo: lookups against a table of memoEntries, half of them hits.
	keys := make([]string, 2*sz.memoEntries)
	for i := range keys {
		keys[i] = memo.Key{
			Sig:     fmt.Sprintf("stage-%03d", i%sz.signatures),
			Profile: memo.Profile{VCores: 1, MemMB: 1024},
			Inputs:  []string{memo.StagedIdentity(paths[i%len(paths)], sizes[i%len(sizes)])},
			Outputs: []memo.OutputID{{Path: fmt.Sprintf("/out/%d", i), SizeMB: sizes[(i+3)%len(sizes)]}},
		}.Encode()
	}
	lookup, err := timeOps(batches, len(keys), func() (func(int), error) {
		t := memo.New(0)
		for i := 0; i < sz.memoEntries; i++ {
			if err := t.Commit(keys[2*i], memo.Entry{SourceWF: "probe", CPUSeconds: 20, DurationSec: 20}); err != nil {
				return nil, err
			}
		}
		return func(i int) { t.Lookup(keys[i]) }, nil
	})
	if err != nil {
		return err
	}
	o.set("memo.lookup_ns", lookup, "ns")

	// lang: frontend construction plus Parse of the example workflows.
	for _, p := range []struct{ metric, language, path string }{
		{"lang.cuneiform_parse_us", lang.Cuneiform, demoCF},
		{"lang.cwl_parse_us", lang.CWL, snvCWL},
	} {
		src, err := os.ReadFile(p.path)
		if err != nil {
			return err
		}
		var parseErr error
		d, err := timeOps(batches, 64, func() (func(int), error) {
			return func(int) {
				drv, err := lang.NewDriver(p.language, "probe", string(src), nil)
				if err == nil {
					_, err = drv.Parse()
				}
				if err != nil {
					parseErr = err
				}
			}, nil
		})
		if err != nil {
			return err
		}
		if parseErr != nil {
			return fmt.Errorf("%s: %w", p.path, parseErr)
		}
		o.set(p.metric, d/1e3, "us")
	}

	// recipes: Materialize a cluster of the workload's size with flows inputs.
	inputs := make([]workloads.Input, sz.flows)
	for i := range inputs {
		inputs[i] = workloads.Input{Path: paths[i], SizeMB: sizes[i]}
	}
	r := &recipes.Recipe{
		Name:       "probe",
		Groups:     []recipes.NodeGroup{{Count: sz.nodes, Spec: cluster.C32XLarge()}},
		SwitchMBps: 40 * float64(sz.nodes),
		HDFS:       hdfs.Config{BlockSizeMB: 64, Replication: 3},
		Seed:       sz.seed,
		Inputs:     inputs,
	}
	var matErr error
	mat, err := timeOps(batches, 4, func() (func(int), error) {
		return func(int) {
			if _, _, err := r.Materialize(); err != nil {
				matErr = err
			}
		}, nil
	})
	if err != nil {
		return err
	}
	if matErr != nil {
		return fmt.Errorf("materialize probe: %w", matErr)
	}
	o.set("recipes.materialize_ms", mat/1e6, "ms")
	return nil
}
