package core

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fex/internal/buildsys"
	fexclock "fex/internal/clock"
	"fex/internal/remote"
	"fex/internal/runlog"
	"fex/internal/store"
	"fex/internal/workload"
)

// This file is the experiment scheduler: the one execution loop behind the
// serial run, -jobs N and -hosts. The paper's experiment loop (Figure 4)
// iterates build types × benchmarks × threads × repetitions strictly in
// order; cells of that loop that share no state — one (build type,
// benchmark) pair each — can run concurrently without affecting
// measurement validity, because the measured repetitions inside a cell
// stay serialized.
//
// The scheduler drives a set of workers from a single event loop. Local
// workers run cells in-process against the coordinator's build system:
// -jobs N is N local workers, and the default serial run is one. Remote
// workers ship cells to cluster hosts (cluster.go), where the remote-only
// policies — placement scoring, stealing, probation, deadlines and
// speculation — apply. Builds run off the loop, one cold build type at a
// time in -t order, and post their completion back as an event. With one
// local worker and no hosts a type builds only after the previous type's
// cells settled (the paper's serial order); otherwise builds pipeline
// with measurement.
//
// Determinism contract: every cell logs into a private runlog.Shard, and
// the loop commits settled shards into the main log in canonical loop
// order, so the stored log — and therefore Collect's CSV — is
// byte-identical to a serial run's (modulo live wall-clock metrics).
// Verbose -v output is serialized line-by-line but interleaves across
// cells in completion order.

// cell is one independent unit of the experiment loop: one
// (build type, benchmark) pair. Thread counts and repetitions stay inside
// the cell, serialized. dims carries runner-specific extra dimensions
// (the input sweep of a variable-input cell) into the cell's store
// fingerprint.
type cell struct {
	buildType string
	workload  workload.Workload
	dims      string
}

// makeCells decomposes a run into cells in canonical loop order: build
// types outermost, benchmarks innermost, exactly as the serial loop
// visits them.
func makeCells(buildTypes []string, benches []workload.Workload, dims string) []cell {
	out := make([]cell, 0, len(buildTypes)*len(benches))
	for _, bt := range buildTypes {
		for _, w := range benches {
			out = append(out, cell{buildType: bt, workload: w, dims: dims})
		}
	}
	return out
}

// cellFingerprint is the content address of one cell's measurements: the
// full configuration surface that determines its run-log records, plus the
// framework's cost-model hash so recalibrating the model (or flipping
// debug/modeled-time mode) invalidates stored cells wholesale.
func cellFingerprint(fx *Fex, cfg Config, c cell) store.Fingerprint {
	return store.Fingerprint{
		Experiment: cfg.Experiment,
		Suite:      c.workload.Suite(),
		Benchmark:  c.workload.Name(),
		BuildType:  c.buildType,
		Threads:    cfg.Threads,
		Reps:       repsSpec(cfg),
		Input:      cfg.Input.String(),
		Tool:       cfg.Tool,
		Dims:       c.dims,
		ConfigHash: fx.costModelHash(cfg),
	}
}

// planReplays resolves every cell's store lookup in one batched pass
// before the run starts executing: one BulkGet over all cell fingerprints
// (precomputed by the planner) syncs the index once and reads each
// backing file once, instead of a per-cell store probe. The returned
// slice is positionally aligned with cells; a nil shard means "execute
// the cell". Corrupt or mismatched records are reported to the -v stream
// and treated as misses, so a damaged store self-heals by re-measuring.
func planReplays(rc *RunContext, cells []cell, fps []store.Fingerprint) []*runlog.Shard {
	shards := make([]*runlog.Shard, len(cells))
	if !rc.Config.Resume || rc.Fex.store == nil {
		return shards
	}
	results, err := rc.Fex.store.BulkGet(fps)
	if err != nil {
		// A failed plan never fails the run: every cell just measures cold.
		rc.logf("  store: plan lookup failed: %v; re-measuring", err)
		return shards
	}
	for i, r := range results {
		c := cells[i]
		if r.Err != nil {
			rc.logf("  store: %s/%s [%s]: %v; re-measuring", c.workload.Suite(), c.workload.Name(), c.buildType, r.Err)
			continue
		}
		if !r.Present {
			continue
		}
		text := string(r.Payload)
		if err := runlog.ValidateText(text); err != nil {
			rc.logf("  store: %s/%s [%s]: invalid stored records: %v; re-measuring",
				c.workload.Suite(), c.workload.Name(), c.buildType, err)
			continue
		}
		rc.logf("  store: replaying %s/%s [%s]", c.workload.Suite(), c.workload.Name(), c.buildType)
		shards[i] = runlog.RestoreShard(text)
	}
	return shards
}

// persistCell stores a completed cell's shard under its fingerprint.
// Persistence is unconditional (not gated on -resume): every run fills the
// store, so the *next* -resume run benefits — including after a run that
// failed partway, whose completed cells are already durable. Store errors
// only cost the cache entry; they never fail the measurement that produced
// it.
func persistCell(rc *RunContext, c cell, shard *runlog.Shard) {
	if rc.Fex.store == nil {
		return
	}
	text, err := shard.Text()
	if err == nil {
		err = rc.Fex.store.Put(cellFingerprint(rc.Fex, rc.Config, c), []byte(text))
	}
	if err != nil {
		rc.logf("  store: persist %s/%s [%s]: %v", c.workload.Suite(), c.workload.Name(), c.buildType, err)
	}
}

// worker is one execution slot of the scheduler; each runs one cell at a
// time. A local worker (remote == nil) runs cells in-process on the
// coordinator and takes them from the shared queue; a remote worker ships
// them to its cluster host and drains its own placement queue.
type worker struct {
	remote *clusterWorker
	// degrade marks the -degrade local worker: a local worker that takes
	// only cells no remote worker can serve (every host down or probing,
	// or the cell exhausted its untried hosts).
	degrade bool
	// queue holds the cells placement routed to this remote worker,
	// launched head-first.
	queue []int
	// pl is the placement in flight on the worker; nil while idle.
	pl *placement
	hostState
}

// placement is one dispatch of a cell onto a worker. A cell can have
// several concurrent placements when speculation duplicates it.
type placement struct {
	cell   int
	worker int
	// speculative marks a duplicate launched by the straggler detector.
	speculative bool
	// superseded is set by the scheduler loop when another placement of
	// the same cell won the race; this one's result is discarded.
	superseded bool
	// start is the scheduler-clock launch time (straggler detection).
	start time.Time
	// timedOut records that the placement's -host-timeout watchdog fired
	// before the result arrived, classifying the resulting context error
	// as a host fault.
	timedOut atomic.Bool
	// cancel tears the placement down: deadline expiry, speculation
	// losers, scheduler shutdown, and the handled result (which stops
	// the watchdog) all cancel through it.
	cancel context.CancelFunc
}

// sched is the scheduler: single-goroutine state (queues, workers,
// placements, build progress) driven by one stream of loop events —
// build completions, placement results, probe outcomes — plus mid-run
// host joins and speculation timer wakeups.
type sched struct {
	rc *RunContext
	// vrc is the coordinator-side context for everything that may run
	// concurrently with cells — perType actions, scheduler -v lines — all
	// through the serialized verbose writer.
	vrc     *RunContext
	p       *runPlan
	perType func(*RunContext, string) error
	fn      func(*RunContext, cell) error
	clk     fexclock.Clock

	// ctx scopes everything the scheduler spawns (placements, watchdogs,
	// probes, timers); cancelled when the loop exits.
	ctx context.Context

	workers []*worker
	// cluster is set when the run has hosts: cells route through
	// placement, and progress events carry host snapshots.
	cluster bool
	// serial is set for one local worker and no hosts: a type's build
	// waits until every released cell settled.
	serial bool
	// queue holds released cells not routed to a remote worker: every
	// cell of a local run, and in a cluster run the cells waiting for a
	// probe outcome, a join, or the -degrade local worker.
	queue  []int
	idle   []int
	rrNext int // round-robin cursor for -no-load-aware placement
	// attempted[ci] is the set of host names cell ci was launched on.
	attempted []map[string]bool
	inFlight  int
	durations []time.Duration

	// nextType is the next -t entry whose build has not started;
	// committable is the commit bound: positions whose build type is
	// built or skipped.
	nextType    int
	building    bool
	committable int

	stop bool
	errs []error
	// err is the first failure not attributed to a cell: a build error,
	// cancellation, or a failed log commit.
	err error

	// events carries closures that run on the loop goroutine: every
	// goroutine the scheduler starts reports back through it.
	events   chan func()
	joins    <-chan *remote.Host
	specWake chan struct{}
	specTmr  *fexclock.Timer
}

// runPlanned executes a plan: it starts the workers, runs the event loop
// until every released cell settled (or a failure stopped the run and
// in-flight work drained), and leaves the final merge of the remaining
// shards to the caller. A plan with nothing to execute starts no
// goroutine and contacts no host: the loop only logs the skipped builds.
//
// Error semantics: after a genuine cell failure or cancellation no new
// cells are dispatched and no further builds run; the earliest failed
// cell in canonical order determines the returned error, with a build
// error reported only when no cell failed. A build error stops further
// builds, but cells already released still run. Completed shards stay
// durable in the store.
func runPlanned(rc *RunContext, p *runPlan, perType func(*RunContext, string) error, fn func(*RunContext, cell) error) error {
	sctx, cancel := context.WithCancel(rc.Context())
	defer cancel()
	s := &sched{
		rc:        rc,
		vrc:       rc.child(rc.Log, newSyncWriter(rc.Verbose)),
		p:         p,
		perType:   perType,
		fn:        fn,
		clk:       rc.Fex.clock,
		ctx:       sctx,
		cluster:   len(rc.Config.Hosts) > 0,
		attempted: make([]map[string]bool, len(p.cells)),
		errs:      make([]error, len(p.cells)),
		events:    make(chan func()),
		specWake:  make(chan struct{}, 1),
	}
	switch {
	case !s.cluster:
		for n := 0; n < max(rc.Config.Jobs, 1); n++ {
			s.addWorker(&worker{})
		}
		s.serial = len(s.workers) == 1
	case p.pending > 0:
		stop, err := s.startCluster()
		defer stop()
		if err != nil {
			return err
		}
		if rc.Config.Degrade == "local" {
			s.addWorker(&worker{degrade: true, hostState: hostState{stats: HostStatus{Host: "local"}}})
		}
	}
	return s.run()
}

// addWorker adds a worker to the pool as healthy and idle.
func (s *sched) addWorker(w *worker) {
	w.phase = hostHealthy
	s.workers = append(s.workers, w)
	s.idle = append(s.idle, len(s.workers)-1)
}

// run is the event loop. It runs until no build is running, nothing is in
// flight, and either a failure stopped the run or every cell was released
// and settled.
func (s *sched) run() error {
	defer s.stopSpecTimer()
	cancelled := s.rc.Context().Done()
	s.maybeBuild()
	for s.building || s.inFlight > 0 ||
		(!s.stop && (s.queuedTotal() > 0 || s.nextType < len(s.rc.Config.BuildTypes))) {
		select {
		case ev := <-s.events:
			ev()
		case h := <-s.joins:
			s.handleJoin(h)
		case <-s.specWake:
			// Fall through: maybeSpeculate below re-evaluates stragglers.
		case <-cancelled:
			// Nothing new starts; in-flight cells and builds observe the
			// same context and drain.
			cancelled = nil
			s.halt(s.rc.Context().Err())
		}
		s.maybeBuild()
		s.dispatch()
		s.maybeSpeculate()
	}
	if s.cluster {
		s.logSummary()
	}
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	return s.err
}

// maybeBuild starts the next cold build type's perType action on its own
// goroutine — off the loop, since a perType action may block on events the
// loop delivers — logging each warm type it passes as skipped. Builds run
// one at a time in -t order, and not after a failure; a serial run also
// waits until every released cell settled.
func (s *sched) maybeBuild() {
	if s.building || s.stop || (s.serial && s.inFlight+s.queuedTotal() > 0) {
		return
	}
	types := s.rc.Config.BuildTypes
	for s.nextType < len(types) {
		bt := types[s.nextType]
		s.nextType++
		if !s.p.coldTypes[bt] {
			// A type with cells, every one replayed or deduped, is warm.
			if first := s.committable; s.release(bt) > first {
				s.vrc.logf("== build type %s: all cells satisfied, build skipped", bt)
			}
			continue
		}
		if err := s.rc.cancelled(); err != nil {
			s.halt(err)
			return
		}
		s.building = true
		go func() {
			err := s.perType(s.vrc, bt)
			s.events <- func() { s.handleBuild(bt, err) }
		}()
		return
	}
}

// handleBuild releases a built type's cells to placement. A failed build
// stops further builds but lets released cells finish.
func (s *sched) handleBuild(bt string, err error) {
	s.building = false
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		s.nextType = len(s.rc.Config.BuildTypes)
		return
	}
	first := s.committable
	for ci, end := first, s.release(bt); ci < end; ci++ {
		if s.p.executes(ci) {
			s.place(ci)
		}
	}
}

// release moves the commit bound past a built or skipped type's
// positions (types are contiguous in canonical order and released in -t
// order), commits the settled prefix — the type's leading replays — and
// returns the new bound. A type's records never commit before its
// perType action ran, as in the paper's loop.
func (s *sched) release(bt string) int {
	for s.committable < len(s.p.cells) && s.p.cells[s.committable].buildType == bt {
		s.committable++
	}
	s.commit()
	return s.committable
}

// commit appends the contiguous settled prefix to the run log and
// flushes it to a streaming log sink.
func (s *sched) commit() {
	if err := s.p.commit(s.rc.Log, s.committable, false); err != nil {
		s.halt(err)
	}
}

// launch dispatches one cell onto a worker: in-process for a local
// worker, as a run-cell command for a remote one (see launchRemote).
func (s *sched) launch(wi, ci int, speculative bool) {
	w := s.workers[wi]
	pctx, cancel := context.WithCancel(s.ctx)
	pl := &placement{
		cell: ci, worker: wi, speculative: speculative,
		start: s.clk.Now(), cancel: cancel,
	}
	w.pl = pl
	s.inFlight++
	if w.remote != nil {
		s.launchRemote(pctx, w, pl)
		return
	}
	if w.degrade {
		c := s.p.cells[ci]
		s.vrc.logf("cluster: no healthy host; running %s/%s [%s] locally (-degrade local)",
			c.workload.Suite(), c.workload.Name(), c.buildType)
	}
	go func() {
		shard, err := s.execCell(pctx, nil, ci)
		s.events <- func() { s.handleResult(pl, shard, err) }
	}()
}

// execCell runs one cell in-process into a fresh shard, observing ctx
// between repetitions. build overrides the context's build system (a
// remote worker's private one); nil keeps the coordinator's. Local
// workers call it directly, remote workers from their run-cell handler.
func (s *sched) execCell(ctx context.Context, build *buildsys.System, ci int) (*runlog.Shard, error) {
	shard := runlog.NewShard()
	cellRC := s.rc.child(shard.Writer(), s.vrc.Verbose)
	if build != nil {
		cellRC.build = build
	}
	cellRC.ctx = ctx
	return shard, s.fn(cellRC, s.p.cells[ci])
}

// handleResult settles one placement's outcome (a failed local cell
// still carries its partial shard): a valid shard settles the cell
// (first result wins; later duplicates are discarded), a host fault
// moves the host to probation and fails the cell over, and a genuine
// cell failure stops the run with the serial loop's first-error
// semantics.
func (s *sched) handleResult(pl *placement, shard *runlog.Shard, err error) {
	w := s.workers[pl.worker]
	s.inFlight--
	w.pl = nil
	pl.cancel()
	ci := pl.cell
	if err == nil {
		// Every successful execution — winner or superseded duplicate —
		// is a real observation of the host's speed.
		w.observeCell(s.clk.Now().Sub(pl.start))
	}

	switch {
	case pl.superseded:
		// This placement lost a speculation race; the cell is already
		// settled and this result — success or cancellation — is
		// discarded before the merge, never persisted. A loser that
		// surfaced a real host fault still drives the state machine.
		w.stats.SpecLosses++
		if err != nil && (errors.Is(err, remote.ErrUnreachable) || errors.Is(err, errHostProvision)) {
			w.stats.Failovers++
			s.hostFault(pl.worker, err)
		} else {
			s.backToPool(pl.worker)
		}
	case err == nil:
		w.stats.Cells++
		if pl.speculative {
			w.stats.SpecWins++
			c := s.p.cells[ci]
			s.vrc.logf("cluster: speculative copy of %s/%s [%s] won on %s",
				c.workload.Suite(), c.workload.Name(), c.buildType, w.remote.host.Name())
		}
		if w.remote != nil {
			// The straggler median covers remote cells only: speculation
			// is a remote policy.
			s.durations = append(s.durations, s.clk.Now().Sub(pl.start))
		}
		s.settle(ci, shard)
		// First result wins: cancel the cell's other placements; their
		// results are discarded in the superseded case above.
		for _, o := range s.workers {
			if o.pl != nil && o.pl.cell == ci {
				o.pl.superseded = true
				o.pl.cancel()
			}
		}
		s.backToPool(pl.worker)
	case s.isHostFault(pl, err):
		w.stats.Failovers++
		s.hostFault(pl.worker, err)
		if s.p.shards[ci] == nil && s.placementsOf(ci) == 0 {
			// The fault stranded the cell: retry it elsewhere, at the
			// front of the queue. Logged once — each worker runs one cell
			// at a time, so one fault strands exactly one placement. (If
			// a speculative duplicate is still in flight, the race covers
			// the cell and nothing is requeued.)
			c := s.p.cells[ci]
			s.vrc.logf("cluster: host %s %s; failing over %s/%s [%s]",
				w.remote.host.Name(), faultKind(pl, err), c.workload.Suite(), c.workload.Name(), c.buildType)
			s.place(ci)
		}
	default:
		// Genuine cell failure: keep the serial loop's first-error abort.
		// A local cell's partial records still merge at the end, like the
		// serial loop's; a remote failure ships no shard.
		s.p.shards[ci] = shard
		s.failRun(ci, err)
		s.backToPool(pl.worker)
	}
	s.emitHosts()
}

// settle records a cell's winning shard: into the plan at its canonical
// position, into the result store, into the run log as far as the
// contiguous settled prefix reaches, and as a progress event. Exactly one
// placement settles a cell — losers are superseded before their results
// arrive.
func (s *sched) settle(ci int, shard *runlog.Shard) {
	s.p.shards[ci] = shard
	// The shard is durable the moment it reaches the coordinator: a run
	// that later fails still leaves this cell resumable.
	persistCell(s.vrc, s.p.cells[ci], shard)
	s.commit()
	s.p.done++
	ev := s.p.event("cell")
	if s.cluster {
		ev.Hosts = s.hostSnapshot()
	}
	s.rc.reportProgress(ev)
}

// failRun records a genuine cell failure and stops the run.
func (s *sched) failRun(ci int, err error) {
	s.errs[ci] = err
	s.halt(nil)
}

// halt stops dispatch and building: queued cells are abandoned (their
// shards stay nil), in-flight placements drain. err, when non-nil and the
// first such, is the run's error unless a cell failed.
func (s *sched) halt(err error) {
	if s.err == nil {
		s.err = err
	}
	s.stop = true
	for _, w := range s.workers {
		w.queue = nil
	}
	s.queue = nil
}

// queuedTotal counts released cells waiting for a worker.
func (s *sched) queuedTotal() int {
	n := len(s.queue)
	for _, w := range s.workers {
		n += len(w.queue)
	}
	return n
}

// placementsOf counts the placements of cell ci in flight.
func (s *sched) placementsOf(ci int) int {
	n := 0
	for _, w := range s.workers {
		if w.pl != nil && w.pl.cell == ci {
			n++
		}
	}
	return n
}

// dispatch is the work-conserving engine: it loops until no idle worker
// can start anything. Each pass lets idle healthy workers take their next
// cell, then lets idle remote workers steal from the most backlogged
// host.
func (s *sched) dispatch() {
	for !s.stop {
		// Own queues first: a worker with a backlog never steals.
		progress := s.eachIdle(func(wi int) bool {
			ci, ok := s.take(wi)
			if ok {
				s.launch(wi, ci, false)
			}
			return ok
		})
		// Steal pass: every queued cell left is behind a busy host.
		if !s.rc.Config.NoSteal && s.eachIdle(func(wi int) bool {
			ci, victim, ok := s.steal(wi)
			if ok {
				s.workers[wi].stats.Steals++
				c := s.p.cells[ci]
				s.vrc.logf("cluster: host %s stole %s/%s [%s] from %s",
					s.workers[wi].remote.host.Name(), c.workload.Suite(), c.workload.Name(),
					c.buildType, s.workers[victim].remote.host.Name())
				s.launch(wi, ci, false)
			}
			return ok
		}) {
			progress = true
		}
		if !progress {
			return
		}
	}
}

// eachIdle offers every idle worker to start, which reports whether it
// launched a cell there; launched workers leave the idle pool, and
// unhealthy ones are swept out of it as they are encountered. It reports
// whether anything launched.
func (s *sched) eachIdle(start func(wi int) bool) bool {
	launched := false
	for ii := 0; ii < len(s.idle); {
		wi := s.idle[ii]
		healthy := s.workers[wi].phase == hostHealthy
		if healthy && !start(wi) {
			ii++
			continue
		}
		launched = launched || healthy
		s.idle = append(s.idle[:ii], s.idle[ii+1:]...)
	}
	return launched
}

// take pops the next cell an idle worker runs: a remote worker's own
// queue head, a local worker's shared-queue head, or — for the -degrade
// local worker — the first shared cell no remote worker can serve.
func (s *sched) take(wi int) (int, bool) {
	w := s.workers[wi]
	q := &w.queue
	if w.remote == nil {
		q = &s.queue
	}
	for k, ci := range *q {
		if w.degrade && s.anyHealthy() && s.remoteEligible(ci) {
			continue
		}
		if k == 0 {
			*q = (*q)[1:]
		} else {
			*q = append((*q)[:k], (*q)[k+1:]...)
		}
		return ci, true
	}
	return 0, false
}

// backToPool returns a worker to the idle pool if it is still healthy,
// and re-runs the straggler detector: a freshly idle worker is exactly
// the opportunity speculation waits for, even if the wake timer was not
// armed (or already fired) when the worker was busy.
func (s *sched) backToPool(wi int) {
	if s.workers[wi].phase == hostHealthy {
		s.idle = append(s.idle, wi)
		s.wakeSpec()
	}
}

// wakeSpec nudges the event loop into another maybeSpeculate pass.
// Non-blocking: the wake channel holds one pending nudge.
func (s *sched) wakeSpec() {
	select {
	case s.specWake <- struct{}{}:
	default:
	}
}

// after runs fire on its own goroutine once d elapses on the scheduler
// clock, unless cancel closes first (which stops the timer). It backs the
// deadline watchdogs, probe schedules and speculation wakeups.
func (s *sched) after(d time.Duration, cancel <-chan struct{}, fire func()) *fexclock.Timer {
	t := s.clk.After(d)
	go func() {
		select {
		case <-t.C:
			fire()
		case <-cancel:
			t.Stop()
		}
	}()
	return t
}

// syncWriter serializes concurrent writes so -v progress lines from
// parallel cells never interleave mid-line (each logf call is a single
// Write).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// newSyncWriter wraps w in a write lock; nil stays nil so logf's
// nil-check keeps working.
func newSyncWriter(w io.Writer) io.Writer {
	if w == nil {
		return nil
	}
	return &syncWriter{w: w}
}

func (sw *syncWriter) Write(p []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(p)
}
