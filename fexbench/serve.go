package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"fex/internal/core"
	"fex/internal/serve"
)

// Load of serve-stream. At serveRate the executor is lightly loaded
// (busy about a seventh of the time): nearer its capacity, queueing made
// the settle latency spread between runs more than any bound allows on a
// shared machine. A refused or failed request counts as settling at
// settleLimitMS, missing the limit.
const (
	serveRate     = 40.0 // arrivals per second
	settleLimitMS = 2000.0
	// A block is serveArrivals arrivals, about serveBlock of the open
	// loop, on a fresh server with an empty store. Every block makes the
	// same kind of work, so the latencies of a run have no trend: in one
	// long loop runs slow as the state grows, and a slow stretch of the
	// machine in its middle moved the median by a fifth.
	serveArrivals = 30
	serveBlock    = 750 * time.Millisecond
	// serveNewEvery spaces the submissions that introduce a new spec: a
	// block introduces 3 of the 30-spec pool. With one execution in five,
	// the median settle latency sat on the edge between replays and
	// runs queued behind executions, and moved with every run.
	serveNewEvery = 10
	// capacityRuns is the length of the saturating phase, which keeps
	// capacityDepth runs outstanding so the queue never drains.
	capacityRuns  = 150
	capacityDepth = 3
	// settleTimeout bounds the wait for submitted runs to settle.
	settleTimeout = 60 * time.Second
)

var serveSuites = []string{"splash", "parsec", "phoenix"}

// serveWorkload is the service path: an in-process serve.Server behind
// its HTTP handler on loopback, saving state after every run as
// `fex serve --state` does, fed by one open-loop client with seeded
// Poisson arrivals.
type serveWorkload struct {
	seed int64

	fx      *core.Fex
	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	ss      suites
	state   bytes.Buffer // the state file; written on the executor goroutine

	mu       sync.Mutex
	settled  map[string]settlement
	changed  chan struct{}
	counting bool
	onCount  func() error // runs at the countedOps-th settlement
	countErr error
}

// settlement is what the OnRunFinished hook saw of one run.
type settlement struct {
	at     time.Time // when the hook returned
	save   time.Duration
	runErr error
	seq    int // settlement order
}

func newServeStream(seed int64) *serveWorkload { return &serveWorkload{seed: seed} }

func (w *serveWorkload) setup() error {
	w.close()
	fx, err := newFramework()
	if err != nil {
		return err
	}
	if w.ss == nil {
		if w.ss, err = registrySuites(fx, serveSuites...); err != nil {
			return err
		}
	}
	w.fx = fx
	w.settled = map[string]settlement{}
	w.changed = make(chan struct{}, 1)
	w.srv = serve.New(fx, serve.Options{QueueDepth: serve.DefaultQueueDepth, OnRunFinished: w.finished})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("fexbench: listen: %w", err)
	}
	w.base = "http://" + ln.Addr().String()
	w.httpSrv = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.httpSrv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	resp, err := w.client.Get(w.base + "/api/v1/runs")
	if err != nil {
		return fmt.Errorf("fexbench: serve not up: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

func (w *serveWorkload) close() {
	if w.srv == nil {
		return
	}
	_ = w.httpSrv.Close()
	<-w.served
	w.srv.Close()
	w.client.CloseIdleConnections()
	w.srv = nil
}

// finished is the serve OnRunFinished hook: it saves state as `fex
// serve --state` does and records the settlement.
func (w *serveWorkload) finished(id string, runErr error) {
	start := time.Now()
	err := w.saveState()
	end := time.Now()
	if err == nil {
		err = runErr
	}
	w.mu.Lock()
	w.settled[id] = settlement{at: end, save: end.Sub(start), runErr: err, seq: len(w.settled) + 1}
	if w.counting && len(w.settled) == countedOps && w.onCount != nil {
		w.countErr = w.onCount()
	}
	w.mu.Unlock()
	select {
	case w.changed <- struct{}{}:
	default:
	}
}

// saveState serializes the whole state after a run, as `fex serve
// --state` does. The state file is kept in memory, as on warm-iterate:
// the virtual disk of a shared machine would add more noise than the
// serialization costs.
func (w *serveWorkload) saveState() error {
	w.state.Reset()
	if err := w.fx.SaveState(&w.state); err != nil {
		return fmt.Errorf("save state: %w", err)
	}
	return nil
}

// waitSettled waits until every id has settled.
func (w *serveWorkload) waitSettled(ids []string) error {
	deadline := time.After(settleTimeout)
	for {
		w.mu.Lock()
		n := 0
		for _, id := range ids {
			if _, ok := w.settled[id]; ok {
				n++
			}
		}
		w.mu.Unlock()
		if n == len(ids) {
			return nil
		}
		select {
		case <-w.changed:
		case <-deadline:
			return fmt.Errorf("fexbench: %d of %d runs unsettled after %v", len(ids)-n, len(ids), settleTimeout)
		}
	}
}

// request is one submission as the client saw it.
type request struct {
	openLoopSample
	id     string
	cfg    core.Config
	status int // HTTP status of the POST
	rtt    time.Duration
}

func specOf(cfg core.Config) serve.RunSpec {
	return serve.RunSpec{Experiment: cfg.Experiment, BuildTypes: cfg.BuildTypes, Benchmarks: cfg.Benchmarks,
		Reps: cfg.Reps, Input: cfg.Input.String(), ModelTime: cfg.ModelTime}
}

// submit POSTs one run spec.
func (w *serveWorkload) submit(p *pass, cfg core.Config) (request, error) {
	body, err := json.Marshal(specOf(cfg))
	if err != nil {
		return request{}, err
	}
	req := request{cfg: cfg}
	done := p.tr.begin(laneClient, "serve", "POST /api/v1/runs")
	req.sent = time.Now()
	resp, err := w.client.Post(w.base+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		done()
		return req, fmt.Errorf("fexbench: submit: %w", err)
	}
	var st serve.RunStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	_ = resp.Body.Close()
	req.rtt = time.Since(req.sent)
	done()
	req.status = resp.StatusCode
	if resp.StatusCode == http.StatusAccepted {
		if decErr != nil {
			return req, fmt.Errorf("fexbench: submit: decode status: %w", decErr)
		}
		req.id = st.ID
	}
	p.sample("serve.submit_ms", ms(req.rtt))
	return req, nil
}

func (r request) accepted() bool { return r.id != "" }

// measure runs the open loop in blocks, each on a fresh server with an
// empty store, as many as fill the pass's window on the reference
// machine. The last block ends with the saturating phase.
func (w *serveWorkload) measure(p *pass) error {
	rng := rand.New(rand.NewSource(w.seed))
	pool := servePool(w.ss, serveSuites)
	blocks := units(p.window, serveBlock)
	for b := 0; b < blocks; b++ {
		if b > 0 { // every block starts from an empty store
			if err := p.timeSetup(w); err != nil {
				return err
			}
		}
		if err := w.block(p, rng, pool, b == 0, b == blocks-1); err != nil {
			return err
		}
	}
	return nil
}

// block runs one open-loop block of serveArrivals seeded Poisson
// arrivals, then, if last, the saturating phase. The exact counters
// cover the first block of a counting pass.
func (w *serveWorkload) block(p *pass, rng *rand.Rand, pool []core.Config, first, last bool) error {
	n := serveArrivals
	arrivals := poissonArrivals(rng, serveRate, n)
	total := n
	if last {
		total += capacityRuns
	}
	specs := specSequence(rng, len(pool), total, serveNewEvery)
	fsys, err := w.fx.Container().FS()
	if err != nil {
		return err
	}
	counted := p.counting && first
	ops0 := fsys.Ops()
	builds0, compiles0 := w.fx.BuildSystem().Builds(), w.fx.BuildSystem().Compiles()
	w.mu.Lock()
	w.counting = counted
	w.countErr = nil
	w.onCount = func() error { // on the executor goroutine, between runs
		p.count("vfs.ops", int64(fsys.Ops()-ops0))
		p.count("buildsys.builds", int64(w.fx.BuildSystem().Builds()-builds0))
		p.count("buildsys.compiles", int64(w.fx.BuildSystem().Compiles()-compiles0))
		execs, err := kernelExecs(w.fx, pool)
		if err != nil {
			return err
		}
		p.count("toolchain.kernel_execs", execs)
		p.count("vfs.state_bytes", int64(w.state.Len()))
		return p.storeCounts(w.fx)
	}
	w.mu.Unlock()

	// Open loop: each request is sent when due, however late the
	// previous one returned.
	var reqs []request
	t0 := time.Now()
	for i, at := range arrivals {
		due := t0.Add(at)
		waitUntil(due)
		p.attempted++
		req, err := w.submit(p, pool[specs[i]])
		if err != nil {
			return err
		}
		req.due = due
		reqs = append(reqs, req)
	}
	if err := w.waitSettled(acceptedIDs(reqs)); err != nil {
		return err
	}
	var capReqs []request
	if last {
		var capPool []core.Config
		for _, i := range specs[n:] {
			capPool = append(capPool, pool[i])
		}
		if capReqs, err = w.saturate(p, capPool); err != nil {
			return err
		}
	}
	w.mu.Lock()
	countErr := w.countErr
	w.mu.Unlock()
	if countErr != nil {
		return countErr
	}
	return w.settle(p, reqs, capReqs, counted)
}

// spinLead is how long before a due time the generator stops sleeping
// and starts yielding in a loop. On a shared host a sleeping process's
// CPU can take milliseconds to get back, and a late send counts in the
// settle latency, which is timed from the due time.
const spinLead = 5 * time.Millisecond

// waitUntil returns at t. It sleeps until spinLead before t and then
// yields the processor in a loop, so the generator is not late by the
// time an idle CPU takes to wake.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinLead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func acceptedIDs(reqs []request) []string {
	var ids []string
	for _, r := range reqs {
		if r.accepted() {
			ids = append(ids, r.id)
		}
	}
	return ids
}

// saturate measures capacity: it submits cfgs keeping capacityDepth
// runs outstanding, so the executor never idles, until all have settled.
func (w *serveWorkload) saturate(p *pass, cfgs []core.Config) ([]request, error) {
	var reqs []request
	for len(reqs) < len(cfgs) {
		ids := acceptedIDs(reqs)
		outstanding := 0
		w.mu.Lock()
		for _, id := range ids {
			if _, ok := w.settled[id]; !ok {
				outstanding++
			}
		}
		w.mu.Unlock()
		if outstanding >= capacityDepth {
			select {
			case <-w.changed:
			case <-time.After(settleTimeout):
				return nil, errors.New("fexbench: saturating phase stalled")
			}
			continue
		}
		p.attempted++
		req, err := w.submit(p, cfgs[len(reqs)])
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	return reqs, w.waitSettled(acceptedIDs(reqs))
}

// settle turns the settled runs into latency, queue-wait and service
// samples, capacity, counters and correctness checks.
func (w *serveWorkload) settle(p *pass, reqs, capReqs []request, counted bool) error {
	w.mu.Lock()
	settled := make(map[string]settlement, len(w.settled))
	for id, s := range w.settled {
		settled[id] = s
	}
	w.mu.Unlock()

	// The executor is single and FIFO, so runs settle in submission order
	// and each starts once submitted and its predecessor settled.
	all := append(append([]request(nil), reqs...), capReqs...)
	var ok []request
	for _, r := range all {
		if r.accepted() {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return settled[ok[i].id].seq < settled[ok[j].id].seq })
	submit := make([]time.Time, len(ok))
	settle := make([]time.Time, len(ok))
	for i, r := range ok {
		submit[i], settle[i] = r.sent, settled[r.id].at
	}
	starts := fifoStarts(submit, settle)
	openLoop := map[string]bool{}
	for _, r := range reqs {
		openLoop[r.id] = r.accepted()
	}
	service := map[string]time.Duration{}
	for i, r := range ok {
		s := settled[r.id]
		service[r.id] = settle[i].Sub(starts[i])
		if !openLoop[r.id] {
			continue // a saturating-phase run: it only measures capacity
		}
		p.sample("serve.queue_wait_ms", ms(starts[i].Sub(submit[i])))
		p.sample("serve.service_ms", ms(service[r.id]))
		p.sample("serve.save_ms", ms(s.save))
		p.sample("vfs.save_ms", ms(s.save))
		p.sample("core.run_ms", ms(service[r.id]-s.save))
		if p.tr != nil {
			p.tr.record(laneExecutor, "serve", "queue wait "+r.id, submit[i], starts[i], 0)
			svc := p.tr.record(laneExecutor, "serve", "service "+r.id, starts[i], settle[i], 0)
			p.tr.record(laneExecutor, "core", "run "+r.id, starts[i], settle[i].Add(-s.save), svc)
			p.tr.record(laneExecutor, "vfs", "save state "+r.id, settle[i].Add(-s.save), settle[i], svc)
		}
	}

	// Open-loop latency from each request's due time; a refused or failed
	// request counts as missing the settle limit.
	samples := make([]openLoopSample, len(reqs))
	for i, r := range reqs {
		samples[i] = r.openLoopSample
		if s, done := settled[r.id]; r.accepted() && done && s.runErr == nil {
			samples[i].settled = s.at
		} else {
			samples[i].settled = r.due.Add(time.Duration(settleLimitMS * float64(time.Millisecond)))
		}
	}
	latency, lag := openLoopLatency(samples)
	p.latencyMS = append(p.latencyMS, latency...)
	for _, l := range lag {
		p.sample("serve.gen_lag_ms", l)
	}
	// A saturated single executor completes one run per service time;
	// the median service time keeps one stalled run from moving it.
	var saturated []float64
	for _, r := range capReqs {
		if d, ok := service[r.id]; ok && d > 0 {
			saturated = append(saturated, d.Seconds())
		}
	}
	if m := median(saturated); m > 0 {
		p.capacity = 1 / m
	}
	for i, r := range all {
		if !r.accepted() {
			p.count("serve.rejected", 1)
			p.fail("request %d: HTTP %d", i, r.status)
			continue
		}
		s := settled[r.id]
		if s.runErr != nil {
			p.fail("run %s (%s): %v", r.id, r.cfg.String(), s.runErr)
			continue
		}
		if err := w.collectRun(p, r, openLoop[r.id], counted, service[r.id], settled[r.id].seq, probeStride(len(all))); err != nil {
			return err
		}
	}
	return nil
}

// collectRun fetches a settled run's status and CSV over HTTP, counts
// its cells and probes its layers. Only open-loop runs count towards
// throughput; saturating-phase runs measure capacity alone. counted
// marks the block the exact counters cover.
func (w *serveWorkload) collectRun(p *pass, r request, open, counted bool, service time.Duration, seq, stride int) error {
	var st serve.RunStatus
	if err := w.get("/api/v1/runs/"+r.id, func(body io.Reader) error { return json.NewDecoder(body).Decode(&st) }); err != nil {
		return err
	}
	if st.Status != serve.StatusDone || st.Progress == nil || st.Artifacts == nil {
		p.fail("run %s: status %s", r.id, st.Status)
		return nil
	}
	if open {
		p.cells += st.Progress.Total
		p.busy += service
		p.unitDone(st.Progress.Total, service)
	}
	var csv []byte
	if err := w.get("/api/v1/runs/"+r.id+"/csv", func(body io.Reader) (err error) { csv, err = io.ReadAll(body); return }); err != nil {
		return err
	}
	p.checks = append(p.checks, check{op: "run " + r.id, cfg: r.cfg, csv: csv})
	if counted && seq <= countedOps {
		p.count("core.cells_replayed", int64(st.Progress.Replayed))
		p.count("core.cells_deduped", int64(st.Progress.Deduped))
		p.count("core.cells_executed", int64(st.Progress.Total-st.Progress.Replayed-st.Progress.Deduped))
		p.count("core.cells_total", int64(st.Progress.Total))
		p.count("toolchain.reps", int64((st.Progress.Total-st.Progress.Replayed-st.Progress.Deduped)*r.cfg.Reps))
		logText, err := w.fx.ReadResult(st.Artifacts.RunLog)
		if err != nil {
			return err
		}
		p.count("runlog.log_bytes", int64(len(logText)))
	}
	if p.tr == nil {
		return nil
	}
	report := &core.RunReport{RunLogPath: st.Artifacts.RunLog, RunCSVPath: st.Artifacts.RunCSV}
	return p.probe(seq, stride, w.fx, r.cfg, report, probeOptions{ownSave: true})
}

// get issues one GET and hands a 200 response body to read.
func (w *serveWorkload) get(path string, read func(io.Reader) error) error {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return fmt.Errorf("fexbench: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("fexbench: GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return read(resp.Body)
}
