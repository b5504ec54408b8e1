package main

import (
	"fmt"
	"time"

	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/wf"
)

// Layers the decorators time. Each span's self time excludes the decorated
// spans nested inside it (a scheduler Select that asks the locality oracle
// is charged only for its own work).
const (
	layerSched = iota
	layerLocality
	layerEstimate
	layerStore
	layerParse
	layerComplete
	numLayers
)

// tracer accumulates spans in memory. The simulator is serial, so one tracer
// serves one engine without locking.
type tracer struct {
	epoch time.Time
	stack []frame

	calls [numLayers]int64
	total [numLayers]time.Duration
	self  [numLayers]time.Duration
	// top is the time covered by outermost spans: what the AM loop spent
	// inside decorated layers.
	top time.Duration

	selects, emptySelects int64
	appends               int64 // provenance events handed to the store
	attempts, completions int64 // from the audit sink
}

type frame struct {
	layer int
	start time.Duration
	child time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(layer int) {
	t.stack = append(t.stack, frame{layer: layer, start: time.Since(t.epoch)})
}

func (t *tracer) end() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(t.epoch) - f.start
	t.calls[f.layer]++
	t.total[f.layer] += d
	t.self[f.layer] += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	} else {
		t.top += d
	}
}

// --- scheduler.Scheduler ---

type tracedSched struct {
	in scheduler.Scheduler
	t  *tracer
}

func (s *tracedSched) Name() string { return s.in.Name() }

func (s *tracedSched) OnTaskReady(task *wf.Task) {
	s.t.begin(layerSched)
	s.in.OnTaskReady(task)
	s.t.end()
}

func (s *tracedSched) Placement(task *wf.Task) (string, bool) {
	s.t.begin(layerSched)
	n, strict := s.in.Placement(task)
	s.t.end()
	return n, strict
}

func (s *tracedSched) Select(node string) *wf.Task {
	s.t.begin(layerSched)
	task := s.in.Select(node)
	s.t.end()
	s.t.selects++
	if task == nil {
		s.t.emptySelects++
	}
	return task
}

func (s *tracedSched) Queued() int {
	s.t.begin(layerSched)
	n := s.in.Queued()
	s.t.end()
	return n
}

type fwdHealth struct{ in scheduler.HealthAware }

func (f fwdHealth) SetNodeHealth(h scheduler.NodeHealth) { f.in.SetNodeHealth(h) }

// wrapScheduler returns a timed scheduler that implements exactly the
// optional interfaces the wrapped one does: the AM picks its code paths by
// type assertion (health gating, and for static planners planning and
// re-assignment), so a decorator that hid one would change what is
// measured. The benchmark's policies (FCFS, data-aware, adaptive-greedy)
// are health-aware and dynamic; a static planner is refused by
// sameOptional rather than forwarded.
func wrapScheduler(in scheduler.Scheduler, t *tracer) (scheduler.Scheduler, error) {
	b := &tracedSched{in: in, t: t}
	var out scheduler.Scheduler = b
	if h, ok := in.(scheduler.HealthAware); ok {
		out = struct {
			*tracedSched
			fwdHealth
		}{b, fwdHealth{h}}
	}
	return out, sameOptional(in, out)
}

// --- scheduler.LocalityOracle / CandidateOracle (hdfs.FS) ---

type tracedLocality struct {
	in scheduler.LocalityOracle
	t  *tracer
}

func (l *tracedLocality) LocalFraction(paths []string, node string) float64 {
	l.t.begin(layerLocality)
	f := l.in.LocalFraction(paths, node)
	l.t.end()
	return f
}

type tracedCandidates struct {
	*tracedLocality
	in scheduler.CandidateOracle
}

func (c tracedCandidates) CandidateNodes(paths []string) []string {
	c.t.begin(layerLocality)
	n := c.in.CandidateNodes(paths)
	c.t.end()
	return n
}

func (c tracedCandidates) LocalityEpoch() uint64 {
	c.t.begin(layerLocality)
	e := c.in.LocalityEpoch()
	c.t.end()
	return e
}

// wrapLocality keeps the CandidateOracle fast path visible: without it the
// data-aware policy silently falls back to scanning its whole queue.
func wrapLocality(in scheduler.LocalityOracle, t *tracer) (scheduler.LocalityOracle, error) {
	base := &tracedLocality{in: in, t: t}
	var out scheduler.LocalityOracle = base
	if c, ok := in.(scheduler.CandidateOracle); ok {
		out = tracedCandidates{base, c}
	}
	return out, sameOptional(in, out)
}

// --- scheduler.Estimator (provenance.Manager) ---

type tracedEstimator struct {
	in scheduler.Estimator
	t  *tracer
}

func (e *tracedEstimator) LastRuntime(sig, node string) (float64, bool) {
	e.t.begin(layerEstimate)
	v, ok := e.in.LastRuntime(sig, node)
	e.t.end()
	return v, ok
}

func (e *tracedEstimator) MeanRuntime(sig string) (float64, bool) {
	e.t.begin(layerEstimate)
	v, ok := e.in.MeanRuntime(sig)
	e.t.end()
	return v, ok
}

type tracedVersioner struct {
	*tracedEstimator
	in scheduler.EstimateVersioner
}

func (v tracedVersioner) EstimateVersion(sig string) uint64 {
	v.t.begin(layerEstimate)
	n := v.in.EstimateVersion(sig)
	v.t.end()
	return n
}

// wrapEstimator keeps EstimateVersioner visible, which lets adaptive-greedy
// memoize its per-node advantages.
func wrapEstimator(in scheduler.Estimator, t *tracer) (scheduler.Estimator, error) {
	base := &tracedEstimator{in: in, t: t}
	var out scheduler.Estimator = base
	if v, ok := in.(scheduler.EstimateVersioner); ok {
		out = tracedVersioner{base, v}
	}
	return out, sameOptional(in, out)
}

// --- provenance.Store ---

type tracedStore struct {
	in provenance.Store
	t  *tracer
}

func (s *tracedStore) Append(ev provenance.Event) error {
	s.t.begin(layerStore)
	err := s.in.Append(ev)
	s.t.end()
	s.t.appends++
	return err
}

func (s *tracedStore) Events() ([]provenance.Event, error) { return s.in.Events() }
func (s *tracedStore) Close() error                        { return s.in.Close() }

type tracedBatch struct {
	*tracedStore
	in provenance.BatchAppender
}

func (b tracedBatch) AppendBatch(evs []provenance.Event) error {
	b.t.begin(layerStore)
	err := b.in.AppendBatch(evs)
	b.t.end()
	b.t.appends += int64(len(evs))
	return err
}

// wrapStore keeps BatchAppender visible, so the manager still hands its
// buffer over in one call per batch.
func wrapStore(in provenance.Store, t *tracer) (provenance.Store, error) {
	base := &tracedStore{in: in, t: t}
	var out provenance.Store = base
	if b, ok := in.(provenance.BatchAppender); ok {
		out = tracedBatch{base, b}
	}
	return out, sameOptional(in, out)
}

// --- wf.Driver ---

type tracedDriver struct {
	in wf.Driver
	t  *tracer
}

func (d *tracedDriver) Name() string { return d.in.Name() }

func (d *tracedDriver) Parse() ([]*wf.Task, error) {
	d.t.begin(layerParse)
	ts, err := d.in.Parse()
	d.t.end()
	return ts, err
}

func (d *tracedDriver) OnTaskComplete(res *wf.TaskResult) ([]*wf.Task, error) {
	d.t.begin(layerComplete)
	ts, err := d.in.OnTaskComplete(res)
	d.t.end()
	return ts, err
}

func (d *tracedDriver) Done() bool        { return d.in.Done() }
func (d *tracedDriver) Outputs() []string { return d.in.Outputs() }

type tracedStatic struct {
	*tracedDriver
	in wf.StaticDriver
}

func (s tracedStatic) Graph() *wf.DAG { return s.in.Graph() }

// wrapDriver keeps StaticDriver visible for static planners.
func wrapDriver(in wf.Driver, t *tracer) (wf.Driver, error) {
	base := &tracedDriver{in: in, t: t}
	var out wf.Driver = base
	if s, ok := in.(wf.StaticDriver); ok {
		out = tracedStatic{base, s}
	}
	return out, sameOptional(in, out)
}

// --- core.AuditSink ---

// countingAudit counts attempts and completions through the AM's audit seam.
type countingAudit struct{ t *tracer }

func (a *countingAudit) OnTaskSubmitted(float64, *wf.Task) {}

func (a *countingAudit) OnAttemptStart(float64, *wf.Task, string, int) { a.t.attempts++ }

func (a *countingAudit) OnAttemptEnd(float64, *wf.Task, string, int, int, bool) {}

func (a *countingAudit) OnTaskCompleted(float64, *wf.Task, string) { a.t.completions++ }

func (a *countingAudit) OnWorkflowEnd(float64, bool) {}

// sameOptional checks that a decorator implements exactly the optional
// interfaces its wrapped value does.
func sameOptional(in, out any) error {
	checks := []struct {
		name string
		has  func(any) bool
	}{
		{"CandidateOracle", func(v any) bool { _, ok := v.(scheduler.CandidateOracle); return ok }},
		{"EstimateVersioner", func(v any) bool { _, ok := v.(scheduler.EstimateVersioner); return ok }},
		{"HitPredictor", func(v any) bool { _, ok := v.(scheduler.HitPredictor); return ok }},
		{"BatchAppender", func(v any) bool { _, ok := v.(provenance.BatchAppender); return ok }},
		{"HealthAware", func(v any) bool { _, ok := v.(scheduler.HealthAware); return ok }},
		{"StaticPlanner", func(v any) bool { _, ok := v.(scheduler.StaticPlanner); return ok }},
		{"Reassigner", func(v any) bool { _, ok := v.(scheduler.Reassigner); return ok }},
		{"StaticDriver", func(v any) bool { _, ok := v.(wf.StaticDriver); return ok }},
	}
	for _, c := range checks {
		if c.has(in) != c.has(out) {
			return fmt.Errorf("decorator of %T: wrapped value implements %s=%v, decorator %v", in, c.name, c.has(in), c.has(out))
		}
	}
	return nil
}
