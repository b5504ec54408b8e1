package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/experiments"
	"hiway/internal/lang"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/service"
	"hiway/internal/shard"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// serve-mix drives a live service.Server (default configuration plus the
// shared memo table) over loopback from this process, with no more
// keep-alive connections than CPUs. Three tenants send traffic:
//
//   - genomics: one identical 16-sample SNV spec, which the memo serves
//     after warm-up (cross-tenant memo hits);
//   - rnaseq: a TRAPLINE spec with a seeded unique input size, which always
//     misses;
//   - background: the Cuneiform source of examples/demo.cf with its staged
//     input, which goes through the frontend parse.
//
// It is the only workload through HTTP handlers, admission, per-run
// substrate materialization, frontend parse and memo.
const (
	// openRate is the open-loop arrival rate: about a third of the
	// closed-loop capacity (capacity_rps read 1,230-1,370 runs/s with this
	// mix on a 2-vCPU Xeon), so the open loop measures latency, not
	// saturation.
	openRate = 400.0
	// closedOutstanding runs are kept in flight in the closed-loop phase:
	// below the default MaxQueue (64) plus MaxConcurrent (8), so no
	// submission is refused.
	closedOutstanding = 32
	snvSamples        = 16
)

// Every phase runs in windows, each on a freshly set-up server. The server
// keeps every run's record for its status API, so on one long-lived server
// heap size, GC work and peak RSS would grow with the number of runs a run
// of the benchmark happens to hold; fixed windows keep the figures
// comparable, and the retention itself is reported per run
// (service.retained_kb_per_run).
const (
	// openWindow is the length of one open-loop window (~600 arrivals).
	openWindow = 1500 * time.Millisecond
	// closedRuns is the number of runs one closed-loop window completes.
	closedRuns = 750
	// minClosedWindows is the least number of closed-loop windows.
	minClosedWindows = 3
)

const (
	kindSNV = iota
	kindTRAPLINE
	kindCuneiform
	numKinds
)

var kindTenant = [numKinds]string{"genomics", "rnaseq", "background"}

// tenantShares weights the three tenants' traffic by the arrival rates of
// the repository's service tenant model, experiments.ServiceTenantMix
// (genomics 0.010/s, rnaseq 0.004/s, background 0.003/s): 10 of every 17
// submissions are SNV memo hits, 4 TRAPLINE misses and 3 Cuneiform sources.
func tenantShares() ([numKinds]float64, error) {
	var w [numKinds]float64
	sum := 0.0
	for _, p := range experiments.ServiceTenantMix(1) {
		for k, name := range kindTenant {
			if p.Name == name {
				w[k] = p.RatePerSec
				sum += p.RatePerSec
			}
		}
	}
	for k := range w {
		if w[k] <= 0 {
			return w, fmt.Errorf("serve: tenant model has no rate for %s", kindTenant[k])
		}
		w[k] /= sum
	}
	return w, nil
}

// request is one generated submission.
type request struct {
	id, tenant, name string
	kind             int
	sizeMB           float64 // TRAPLINE input size
	body             []byte
	due              time.Duration // open loop: offset from the phase start
}

// newRequest builds the submission of one tenant's kind.
func newRequest(kind int, name string, sizeMB float64, cf string) request {
	tenant := kindTenant[kind]
	var body any
	switch kind {
	case kindSNV:
		body = service.SubmitRequest{Tenant: tenant, Name: name,
			Workload: &service.WorkloadSpec{Kind: service.WorkloadSNV, Samples: snvSamples}}
	case kindTRAPLINE:
		body = service.SubmitRequest{Tenant: tenant, Name: name,
			Workload: &service.WorkloadSpec{Kind: service.WorkloadTRAPLINE, FileSizeMB: sizeMB}}
	default:
		body = service.SubmitRequest{Tenant: tenant, Name: name, Lang: lang.Cuneiform, Source: cf,
			Inputs: []service.InputSpec{{Path: "seed.txt", SizeMB: cfInputMB}}}
	}
	b, _ := json.Marshal(body)
	return request{id: tenant + "-" + name, tenant: tenant, name: name, kind: kind, sizeMB: sizeMB, body: b}
}

// cfInputMB is the size of the Cuneiform submission's staged input.
const cfInputMB = 64

// generator turns the seed into submissions.
type generator struct {
	rng    *rand.Rand
	cf     string
	seq    int
	sizes  map[float64]bool
	shares [numKinds]float64
	// credit drives the closed loop's smooth weighted round robin.
	credit [numKinds]float64
}

func (g *generator) next(prefix string, kind int) request {
	g.seq++
	size := 0.0
	if kind == kindTRAPLINE {
		size = 16 + 48*g.rng.Float64()
		for g.sizes[size] {
			size = math.Nextafter(size, 100)
		}
		g.sizes[size] = true
	}
	return newRequest(kind, fmt.Sprintf("%s%06d", prefix, g.seq), size, g.cf)
}

// nextDrawn draws the tenant at random by its share: the open loop's
// arrivals form one Poisson stream per tenant.
func (g *generator) nextDrawn(prefix string) request {
	x, kind := g.rng.Float64(), 0
	for kind < numKinds-1 && x >= g.shares[kind] {
		x -= g.shares[kind]
		kind++
	}
	return g.next(prefix, kind)
}

// nextTurn gives the tenants turns in proportion to their shares (smooth
// weighted round robin), so every closed-loop window holds the same mix.
func (g *generator) nextTurn(prefix string) request {
	kind := 0
	for k := range g.credit {
		g.credit[k] += g.shares[k]
		if g.credit[k] > g.credit[kind] {
			kind = k
		}
	}
	g.credit[kind]--
	return g.next(prefix, kind)
}

// hook records, on the benchmark's clock, when each run reached its
// terminal state, and signals completions to the closed loop.
type hook struct {
	epoch    time.Time
	mu       sync.Mutex
	end      map[string]time.Duration
	ok       map[string]bool
	finished chan string
	dropped  int
}

func newHook(epoch time.Time) *hook {
	// The channel holds every completion a run can produce without the
	// server ever blocking on it; the closed loop drains it as it goes.
	return &hook{epoch: epoch, end: map[string]time.Duration{}, ok: map[string]bool{}, finished: make(chan string, 1<<16)}
}

func (h *hook) OnQueued(float64, string, string)            {}
func (h *hook) OnRejected(float64, string, string, float64) {}
func (h *hook) OnAdmitted(float64, string, string)          {}

func (h *hook) OnFinished(_ float64, _, id string, ok bool) {
	at := time.Since(h.epoch)
	h.mu.Lock()
	h.end[id] = at
	h.ok[id] = ok
	h.mu.Unlock()
	select {
	case h.finished <- id:
	default:
		h.mu.Lock()
		h.dropped++
		h.mu.Unlock()
	}
}

func (h *hook) ended(id string) (time.Duration, bool, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	at, done := h.end[id]
	return at, h.ok[id], done
}

// middleware times the submit and status handlers.
type middleware struct {
	next           http.Handler
	mu             sync.Mutex
	submit, status []float64 // microseconds
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m.next.ServeHTTP(w, r)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	submit := r.Method == http.MethodPost && r.URL.Path == "/v1/workflows"
	status := r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/workflows/") && !strings.HasSuffix(r.URL.Path, "/events")
	if !submit && !status {
		return
	}
	m.mu.Lock()
	if submit {
		m.submit = append(m.submit, us)
	} else {
		m.status = append(m.status, us)
	}
	m.mu.Unlock()
}

// instance is one live server on a loopback listener.
type instance struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	hook   *hook
	mw     *middleware
	served chan error
	client *http.Client

	mu        sync.Mutex
	submitted int      // POSTs sent
	accepted  []string // run IDs answered 202
	reqs      map[string]request
	warm      []string // the warm-up runs, memo misses
	refused   int
	liveStart uint64 // live heap after warm-up
}

func startInstance(traced bool) (*instance, error) {
	h := newHook(time.Now())
	srv, err := service.NewServer(service.ServerConfig{Memo: true, Hook: h}, experiments.ServiceTenantMix(1))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handler http.Handler = srv.Handler()
	var mw *middleware
	if traced {
		mw = &middleware{next: handler}
		handler = mw
	}
	nproc := runtime.NumCPU()
	in := &instance{
		srv:    srv,
		hs:     &http.Server{Handler: handler},
		base:   "http://" + ln.Addr().String(),
		hook:   h,
		mw:     mw,
		served: make(chan error, 1),
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true,
		}},
		reqs: map[string]request{},
	}
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// close drains the server, stops the listener and waits for every
// goroutine the instance started.
func (in *instance) close() error {
	in.srv.StartDrain()
	select {
	case <-in.srv.Drained():
	case <-time.After(60 * time.Second):
		return fmt.Errorf("serve: drain timed out")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	in.srv.Wait()
	in.client.CloseIdleConnections()
	return err
}

// submit POSTs one request and records the answer.
func (in *instance) submit(r request) (int, error) {
	in.mu.Lock()
	in.submitted++
	in.mu.Unlock()
	resp, err := in.client.Post(in.base+"/v1/workflows", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	in.mu.Lock()
	if resp.StatusCode == http.StatusAccepted {
		in.accepted = append(in.accepted, r.id)
		in.reqs[r.id] = r
	} else {
		in.refused++
	}
	in.mu.Unlock()
	return resp.StatusCode, nil
}

func (in *instance) get(path string, into any) error {
	resp, err := in.client.Get(in.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if s, ok := into.(*string); ok {
		b, err := io.ReadAll(resp.Body)
		*s = string(b)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// waitAll waits until every listed run has reached a terminal state.
func (in *instance) waitAll(ids []string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, id := range ids {
		for {
			if _, _, done := in.hook.ended(id); done {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("serve: run %s not finished after %v", id, limit)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// scrape reads the named counters from /metrics.
func (in *instance) scrape(names ...string) (map[string]float64, error) {
	var text string
	if err := in.get("/metrics", &text); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && slices.Contains(names, f[0]) {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[f[0]] = v
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("serve: /metrics has no %s", n)
		}
	}
	return out, nil
}

// serveResult is what one serve session measured.
type serveResult struct {
	setups      []float64 // seconds
	latencyMS   []float64 // open loop, due time → terminal state
	windowP50   []float64 // open loop, median latency per window
	lateMS      []float64 // open loop, due time → send
	capacity    []float64 // closed loop, runs/s per window
	wallUS      []float64 // closed loop, wall µs per completed task per window
	cpuUS       []float64 // closed loop, process CPU µs per completed task per window
	allocKB     []float64 // closed loop, KiB allocated per completed task per window
	queueWaitMS []float64
	execMS      []float64
	submitUS    []float64
	statusUS    []float64
	attempted   int
	failed      int
	rejected    float64
	submissions float64
	memoLookups float64
	memoHits    float64
	servedRuns  int       // succeeded runs after warm-up
	wholeHits   int       // of those, runs the memo served whole
	retainedKB  []float64 // live heap growth per run served, per window
	gcCycles    uint64
	gcCPU, cpu  float64
	expected    [numKinds]int
	mirrorOut   [numKinds]modelled
	mirror      []*job
	problems    []string
}

func (r *serveResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// session is one serve-mix measurement: its generator and results.
type session struct {
	gen    *generator
	res    *serveResult
	traced bool
}

// setup starts a server and warms it: one SNV run, whose results the memo
// then holds for every later SNV run, and one Cuneiform run through the
// frontend. The time it took is one set-up sample. It returns the warm SNV
// run, the memo miss every later SNV run must match.
func (s *session) setup() (*instance, string, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := startInstance(s.traced)
	if err != nil {
		return nil, "", err
	}
	snv, cf := s.gen.next("warm", kindSNV), s.gen.next("warm", kindCuneiform)
	for _, r := range []request{snv, cf} {
		if code, err := in.submit(r); err != nil || code != http.StatusAccepted {
			in.close()
			return nil, "", fmt.Errorf("serve warm-up submit: code %d, %v", code, err)
		}
	}
	if err := in.waitAll([]string{snv.id, cf.id}, 30*time.Second); err != nil {
		in.close()
		return nil, "", err
	}
	s.res.setups = append(s.res.setups, time.Since(t0).Seconds())
	in.warm = []string{snv.id, cf.id}
	in.liveStart = liveHeap()
	return in, snv.id, nil
}

// finish checks the instance's runs and shuts it down.
func (s *session) finish(in *instance, warmSNV string, open map[string]bool) error {
	err := s.check(in, warmSNV, open)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	return err
}

// check verifies every run the instance accepted through the status API and
// reconciles the benchmark's counts with the server's /metrics. open marks
// the open-loop runs, whose queue wait and execution time are reported.
func (s *session) check(in *instance, warmSNV string, open map[string]bool) error {
	res := s.res
	var warm service.RunStatus
	if err := in.get("/v1/workflows/"+warmSNV, &warm); err != nil {
		return err
	}
	in.mu.Lock()
	accepted := append([]string(nil), in.accepted...)
	submitted, refused := in.submitted, in.refused
	in.mu.Unlock()
	// The warm-up runs and the first TRAPLINE run are memo misses; each is
	// executed again directly on the simulator and compared.
	mirrored := map[string]bool{in.warm[0]: true, in.warm[1]: true}
	trapline := false
	for _, id := range accepted {
		var st service.RunStatus
		if err := in.get("/v1/workflows/"+id, &st); err != nil {
			return err
		}
		in.mu.Lock()
		r := in.reqs[id]
		in.mu.Unlock()
		kind := r.kind
		if kind == kindTRAPLINE && !trapline {
			trapline, mirrored[id] = true, true
		}
		if st.State != service.StateSucceeded {
			res.failed++
			res.fail("run %s ended %s: %s", id, st.State, st.Error)
			continue
		}
		if st.Tasks != res.expected[kind] || len(st.CompletedTasks) != res.expected[kind] {
			res.fail("run %s: %d tasks completed (%d listed), its DAG has %d", id, st.Tasks, len(st.CompletedTasks), res.expected[kind])
		}
		if kind == kindSNV && !slices.Equal(st.CompletedTasks, warm.CompletedTasks) {
			res.fail("run %s: completed signatures differ from the memo-miss SNV run %s", id, warmSNV)
		}
		if mirrored[id] {
			s.checkMirror(r, st)
		}
		if !slices.Contains(in.warm, id) {
			res.servedRuns++
			if st.MakespanSec == 0 {
				res.wholeHits++
			}
		}
		if open[id] {
			res.queueWaitMS = append(res.queueWaitMS, (st.AdmitAt-st.SubmitAt)*1e3)
			res.execMS = append(res.execMS, (st.EndAt-st.AdmitAt)*1e3)
		}
	}
	m, err := in.scrape("hiway_serve_submissions_total", "hiway_serve_completed_total", "hiway_serve_rejected_total",
		"hiway_memo_lookups_total", "hiway_memo_hits_total")
	if err != nil {
		return err
	}
	succeeded := 0
	in.hook.mu.Lock()
	for _, ok := range in.hook.ok {
		if ok {
			succeeded++
		}
	}
	dropped := in.hook.dropped
	in.hook.mu.Unlock()
	if dropped > 0 {
		res.fail("%d completions overflowed the benchmark's completion channel", dropped)
	}
	if float64(submitted) != m["hiway_serve_submissions_total"] {
		res.fail("benchmark sent %d submissions, /metrics counts %v", submitted, m["hiway_serve_submissions_total"])
	}
	if float64(succeeded) != m["hiway_serve_completed_total"] {
		res.fail("benchmark saw %d runs succeed, /metrics counts %v", succeeded, m["hiway_serve_completed_total"])
	}
	// The two warm-up submissions are set-up, not attempts.
	res.attempted += submitted - 2
	if runs := len(accepted) - 2; runs > 0 {
		live := liveHeap()
		res.retainedKB = append(res.retainedKB, (float64(live)-float64(in.liveStart))/1024/float64(runs))
	}
	res.failed += refused
	res.rejected += m["hiway_serve_rejected_total"]
	res.submissions += m["hiway_serve_submissions_total"]
	res.memoLookups += m["hiway_memo_lookups_total"]
	res.memoHits += m["hiway_memo_hits_total"]
	if in.mw != nil {
		in.mw.mu.Lock()
		res.submitUS = append(res.submitUS, in.mw.submit...)
		res.statusUS = append(res.statusUS, in.mw.status...)
		in.mw.mu.Unlock()
	}
	return nil
}

// checkMirror executes a memo-miss submission directly on the simulator,
// on the substrate mirrorJob copies from the server, and compares it with
// the served run: task count, completed signatures and virtual makespan.
// It ties the copy to the server, so the reference task counts and the
// traced split of the served runs keep describing what the server runs.
func (s *session) checkMirror(r request, st service.RunStatus) {
	j := mirrorJob(r, s.gen.cf)
	j.keepReport = true
	ex, err := j.execute(nil)
	if err != nil {
		s.res.fail("run %s executed directly: %v", r.id, err)
		return
	}
	var names []string
	for _, res := range ex.rep.Results {
		if res.Succeeded() {
			names = append(names, res.Task.Name)
		}
	}
	slices.Sort(names)
	if st.Tasks != ex.out.Completed || !slices.Equal(st.CompletedTasks, names) || st.MakespanSec != ex.out.Makespan {
		s.res.fail("run %s: served %d tasks in %v s, executed directly %d tasks in %v s (signatures equal: %v)",
			r.id, st.Tasks, st.MakespanSec, ex.out.Completed, ex.out.Makespan, slices.Equal(st.CompletedTasks, names))
	}
}

// openLoop sends seeded Poisson arrivals at openRate for d. Each request is
// timed from when it was due, so a stall also charges the requests queued
// behind it. It returns the accepted run IDs.
func (s *session) openLoop(in *instance, d time.Duration) (map[string]bool, error) {
	res := s.res
	var reqs []request
	for at := time.Duration(0); ; {
		at += time.Duration(s.gen.rng.ExpFloat64() / openRate * float64(time.Second))
		if at >= d {
			break
		}
		r := s.gen.nextDrawn("o")
		r.due = at
		reqs = append(reqs, r)
	}
	sentAt := make([]time.Duration, len(reqs))
	codes := make([]int, len(reqs))
	errs := make([]error, len(reqs))
	work := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				sentAt[i] = time.Since(in.hook.epoch)
				codes[i], errs[i] = in.submit(reqs[i])
			}
		}()
	}
	phase := time.Since(in.hook.epoch)
	for i, r := range reqs {
		if wait := phase + r.due - time.Since(in.hook.epoch); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	accepted := map[string]bool{}
	var ids []string
	for i, r := range reqs {
		if errs[i] != nil {
			return nil, fmt.Errorf("serve open loop: %w", errs[i])
		}
		res.lateMS = append(res.lateMS, float64((sentAt[i]-phase-r.due).Nanoseconds())/1e6)
		if codes[i] == http.StatusAccepted {
			accepted[r.id] = true
			ids = append(ids, r.id)
		}
	}
	if err := in.waitAll(ids, 60*time.Second); err != nil {
		return nil, err
	}
	var window []float64
	for _, r := range reqs {
		if accepted[r.id] {
			end, _, _ := in.hook.ended(r.id)
			window = append(window, float64((end-phase-r.due).Nanoseconds())/1e6)
		}
	}
	res.latencyMS = append(res.latencyMS, window...)
	res.windowP50 = append(res.windowP50, median(window))
	return accepted, nil
}

// closedLoop keeps closedOutstanding runs in flight until n runs have
// completed; each completion submits the next. The tenants take turns in
// proportion to their shares, so every window holds the same mix. The
// window's requests are built before the measurement starts: the process
// CPU and allocation it reads are the server's and the HTTP client's.
func (s *session) closedLoop(in *instance, n int) error {
	res := s.res
	for drained := false; !drained; {
		select {
		case <-in.hook.finished:
		default:
			drained = true
		}
	}
	reqs := make([]request, n)
	kinds := make(map[string]int, n)
	for i := range reqs {
		reqs[i] = s.gen.nextTurn("c")
		kinds[reqs[i].id] = reqs[i].kind
	}
	// Sized for the initial burst; later sends follow one per completion.
	queue := make(chan request, closedOutstanding)
	var subErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				if code, err := in.submit(r); err != nil || code != http.StatusAccepted {
					mu.Lock()
					if subErr == nil {
						subErr = fmt.Errorf("serve closed loop: submit %s: code %d, %v", r.id, code, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	sent := 0
	send := func() {
		queue <- reqs[sent]
		sent++
	}
	alloc0, cpu0 := readRuntime().allocBytes, processCPU()
	start := time.Now()
	for sent < closedOutstanding && sent < n {
		send()
	}
	done, runs, tasks := 0, 0, 0
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	var err error
	for err == nil && done < n {
		select {
		case id := <-in.hook.finished:
			kind, ok := kinds[id]
			if !ok {
				continue
			}
			done++
			if _, succeeded, _ := in.hook.ended(id); succeeded {
				runs++
				tasks += res.expected[kind]
			}
			if sent < n {
				send()
			}
			timeout.Reset(60 * time.Second)
		case <-timeout.C:
			err = fmt.Errorf("serve closed loop: no completion for 60s")
		}
	}
	wall, cpu := time.Since(start), processCPU()-cpu0
	alloc := readRuntime().allocBytes - alloc0
	close(queue)
	wg.Wait()
	if err != nil {
		return err
	}
	if subErr != nil {
		return subErr
	}
	if runs == 0 {
		return fmt.Errorf("serve closed loop: no run succeeded")
	}
	res.capacity = append(res.capacity, float64(runs)/wall.Seconds())
	res.wallUS = append(res.wallUS, float64(wall.Nanoseconds())/1e3/float64(tasks))
	res.cpuUS = append(res.cpuUS, float64(cpu.Nanoseconds())/1e3/float64(tasks))
	res.allocKB = append(res.allocKB, float64(alloc)/1024/float64(tasks))
	return nil
}

// serveConfig sizes one serve session.
type serveConfig struct {
	open       time.Duration // open-loop time, split into openWindow windows
	closed     time.Duration // closed-loop time; windows of closedRuns runs
	closedRuns int
	traced     bool // install the handler middleware
}

// serveSession runs serve-mix: open-loop windows, then closed-loop
// windows, each on a freshly set-up server.
func serveSession(seed int64, cfg serveConfig) (*serveResult, error) {
	cf, err := os.ReadFile(demoCF)
	if err != nil {
		return nil, err
	}
	res := &serveResult{}
	// Reference task counts come from the simulator directly, outside the
	// server: the count a served run must report for the same submission.
	for k := 0; k < numKinds; k++ {
		res.mirror = append(res.mirror, mirrorJob(newRequest(k, "mirror", 40, string(cf)), string(cf)))
	}
	for k, j := range res.mirror {
		ex, err := j.execute(nil)
		if err != nil {
			return nil, fmt.Errorf("serve reference run: %w", err)
		}
		res.expected[k] = ex.out.Completed
		res.mirrorOut[k] = ex.out
		if j.tasks > 0 && ex.out.Completed != j.tasks {
			res.fail("%s reference: %d tasks completed, DAG has %d", j.name, ex.out.Completed, j.tasks)
		}
	}
	shares, err := tenantShares()
	if err != nil {
		return nil, err
	}
	s := &session{
		gen:    &generator{rng: rand.New(rand.NewSource(seed)), cf: string(cf), sizes: map[float64]bool{}, shares: shares},
		res:    res,
		traced: cfg.traced,
	}
	windows := max(1, int(cfg.open/openWindow))
	for w := 0; w < windows; w++ {
		in, warmSNV, err := s.setup()
		if err != nil {
			return nil, err
		}
		rt0 := readRuntime()
		openIDs, err := s.openLoop(in, cfg.open/time.Duration(windows))
		if err != nil {
			in.close()
			return nil, err
		}
		rt1 := readRuntime()
		res.gcCycles += rt1.gcCycles - rt0.gcCycles
		res.gcCPU += rt1.gcCPU - rt0.gcCPU
		res.cpu += rt1.totalCPU - rt0.totalCPU
		if err := s.finish(in, warmSNV, openIDs); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for w := 0; w < minClosedWindows || time.Since(start) < cfg.closed; w++ {
		in, warmSNV, err := s.setup()
		if err != nil {
			return nil, err
		}
		if err := s.closedLoop(in, cfg.closedRuns); err != nil {
			in.close()
			return nil, err
		}
		if err := s.finish(in, warmSNV, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runServeMix runs the serve-mix workload.
func runServeMix(opt options) (*outcome, error) {
	o := newOutcome()
	total := time.Duration(opt.seconds * float64(time.Second))
	if !opt.trace {
		res, err := serveSession(opt.seed, serveConfig{open: total * 60 / 100, closed: total * 30 / 100, closedRuns: closedRuns})
		if err != nil {
			return nil, err
		}
		o.problems = append(o.problems, res.problems...)
		o.attempted, o.failed = res.attempted, res.failed
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		o.reps = len(res.setups)
		o.set("task_cpu_us", fastQuartile(res.cpuUS, false), "us")
		o.report("task_wall_us", fastQuartile(res.wallUS, false), "us")
		o.set("alloc_kb_per_task", median(res.allocKB), "KiB")
		o.set("peak_rss_mb", rss, "MiB")
		o.set("setup_s", median(res.setups), "s")
		o.report("latency_p50_ms", fastQuartile(res.windowP50, false), "ms")
		o.report("latency_p99_ms", percentile(res.latencyMS, 99), "ms")
		o.report("capacity_rps", fastQuartile(res.capacity, true), "runs/s")
		o.samples["setup_s"] = res.setups
		o.samples["latency_p50_ms"] = res.windowP50
		o.samples["capacity_rps"] = res.capacity
		o.samples["task_wall_us"] = res.wallUS
		o.samples["task_cpu_us"] = res.cpuUS
		o.samples["alloc_kb_per_task"] = res.allocKB
		return o, nil
	}

	res, err := serveSession(opt.seed, serveConfig{open: total * 35 / 100, closed: total * 15 / 100, closedRuns: closedRuns, traced: true})
	if err != nil {
		return nil, err
	}
	o.problems = append(o.problems, res.problems...)
	o.attempted, o.failed = res.attempted, res.failed
	reportServe(o, res)

	// The simulator layers of the served runs: the same three submissions
	// executed directly on the per-run substrate the server builds,
	// untraced and traced in turn.
	untraced, traced, err := pairedExecutions(o, res.mirror, total*20/100, func(k int, ex *execution) {
		if ex.out != res.mirrorOut[k] {
			o.fail("%s: modelled outputs %+v differ from the first execution's %+v", res.mirror[k].name, ex.out, res.mirrorOut[k])
		}
	})
	if err != nil {
		return nil, err
	}
	o.reps = len(untraced) + len(traced)
	reportLayers(o, untraced, traced)
	o.set("runtime.gc_cycles", float64(res.gcCycles), "count")
	o.set("runtime.gc_cpu_share", ratio(res.gcCPU, res.cpu), "ratio")

	// Serial versus sharded execution of a batch of the mix's runs.
	batch := 64 * runtime.NumCPU()
	runtime.GC()
	t0 := time.Now()
	if err := shard.Run(batch, 1, func(i int) error { _, err := res.mirror[i%numKinds].execute(nil); return err }); err != nil {
		return nil, err
	}
	serial := time.Since(t0)
	runtime.GC()
	t1 := time.Now()
	if err := shard.Run(batch, runtime.NumCPU(), func(i int) error { _, err := res.mirror[i%numKinds].execute(nil); return err }); err != nil {
		return nil, err
	}
	o.set("shard.speedup", serial.Seconds()/time.Since(t1).Seconds(), "ratio")

	// The SNV and TRAPLINE pipelines have four tools each; the memo holds
	// the repeated SNV and Cuneiform pipelines.
	size := probeSize{nodes: serveNodes, flows: serveNodes, signatures: 4, memoEntries: res.expected[kindSNV] + res.expected[kindCuneiform], seed: opt.seed}
	if err := runProbes(o, size); err != nil {
		return nil, err
	}
	return o, nil
}

// serveProbe gives the sim workloads' traced runs the service and memo
// metrics from a short serve-mix burst.
func serveProbe(o *outcome, seed int64) error {
	res, err := serveSession(seed, serveConfig{open: 1500 * time.Millisecond, closedRuns: 300, traced: true})
	if err != nil {
		return err
	}
	o.problems = append(o.problems, res.problems...)
	reportServe(o, res)
	return nil
}

// reportServe sets the service and memo metrics of a traced serve session.
func reportServe(o *outcome, res *serveResult) {
	o.set("service.submit_handler_us", median(res.submitUS), "us")
	o.set("service.status_handler_us", median(res.statusUS), "us")
	o.set("service.queue_wait_ms", median(res.queueWaitMS), "ms")
	o.set("service.exec_ms", median(res.execMS), "ms")
	o.set("service.rejected_ratio", ratio(res.rejected, res.submissions), "ratio")
	o.set("service.latency_p99_ms", percentile(res.latencyMS, 99), "ms")
	o.set("service.generator_late_ms", percentile(res.lateMS, 99), "ms")
	o.set("service.retained_kb_per_run", median(res.retainedKB), "KiB")
	o.set("memo.lookups", res.memoLookups, "count")
	o.set("memo.hits", res.memoHits, "count")
	o.set("memo.hit_ratio", ratio(res.memoHits, res.memoLookups), "ratio")
	o.set("memo.hit_run_share", ratio(float64(res.wholeHits), float64(res.servedRuns)), "ratio")
}

// serveNodes is the server's default per-run cluster size.
const serveNodes = 8

// mirrorJob is one submission as a direct simulator job on the substrate
// the server materializes per run (service.Server.runWorkflow: 8 nodes of 8
// cores, a 100 MB/s-per-node switch, fair YARN with the tenants' policies,
// FCFS, the run ID as seed, 3 task retries), without the memo. Spec
// workloads are built with the server's defaults and rebased under the
// run's private root, as the server does. checkMirror compares it with
// served runs, so a change to the server's substrate fails the benchmark
// rather than leaving this copy behind.
func mirrorJob(r request, cf string) *job {
	h := fnv.New64a()
	h.Write([]byte(r.id))
	seed := int64(h.Sum64() & 0x7fffffffffffffff)
	policies := service.TenantPolicies(experiments.ServiceTenantMix(1))
	build := func() (wf.Driver, []workloads.Input, error) {
		var d wf.StaticDriver
		var inputs []workloads.Input
		switch r.kind {
		case kindSNV:
			d, inputs = workloads.SNV(workloads.SNVConfig{
				Samples: snvSamples, FilesPerSample: 2, FileSizeMB: 64, RefLocal: true,
				AlignCPUSeconds: 40, SortCPUSeconds: 40, CallCPUSeconds: 40, AnnotateCPUSeconds: 40,
			})
		case kindTRAPLINE:
			d, inputs = workloads.TRAPLINE(workloads.TRAPLINEConfig{
				LanesPerGroup: 1, ReadsSizeMB: r.sizeMB,
				TophatCPUSeconds: 40, CufflinksCPUSeconds: 40, MergeCPUSeconds: 40, DiffCPUSeconds: 40,
			})
		default:
			d, err := lang.NewDriver(lang.Cuneiform, r.name, cf, nil)
			return d, []workloads.Input{{Path: "seed.txt", SizeMB: cfInputMB}}, err
		}
		if _, err := d.Parse(); err != nil {
			return nil, nil, err
		}
		prefix := "/svc/" + r.tenant + "/" + r.name
		for _, t := range d.Graph().All() {
			for i := range t.Inputs {
				t.Inputs[i] = prefix + t.Inputs[i]
			}
			for _, fis := range t.Declared {
				for i := range fis {
					fis[i].Path = prefix + fis[i].Path
				}
			}
		}
		for i := range inputs {
			inputs[i].Path = prefix + inputs[i].Path
		}
		return d, inputs, nil
	}
	// The inputs do not depend on the driver instance; the task count is
	// that of the static DAG (the Cuneiform DAG unfolds as it runs).
	_, inputs, _ := build()
	tasks := 0
	if r.kind != kindCuneiform {
		if d, _, err := build(); err == nil {
			tasks = len(d.(wf.StaticDriver).Graph().All())
		}
	}
	return &job{
		name: r.id, tasks: tasks, policy: scheduler.PolicyFCFS,
		recipe: func() *recipes.Recipe {
			return &recipes.Recipe{
				Name: r.id,
				Groups: []recipes.NodeGroup{{Count: serveNodes, Spec: cluster.NodeSpec{
					VCores: 8, MemMB: 16384, CPUFactor: 1, DiskMBps: 200, NetMBps: 200,
				}}},
				SwitchMBps: 100 * serveNodes,
				YARN:       yarn.Config{Fair: true, AMResource: yarn.Resource{VCores: 0, MemMB: 256}, Tenants: policies},
				Seed:       seed,
				Inputs:     inputs,
			}
		},
		driver: func() (wf.Driver, error) { d, _, err := build(); return d, err },
		cfg:    core.Config{WorkflowID: r.id, Tenant: r.tenant, MaxRetries: 3},
	}
}
