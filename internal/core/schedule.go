package core

import (
	"context"
	"errors"
	"io"
	"strconv"
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
// policies — probation, deadlines and speculation — apply. Every worker
// takes cells from one shared queue in release order; a remote worker
// skips the cells already attempted on its host. Builds run off the loop, one cold build type at a
// time in -t order, and post their completion back as an event. With one
// local worker and no hosts a type builds only after the previous type's
// cells settled (the paper's serial order); otherwise builds pipeline
// with measurement.
//
// Determinism contract: every cell logs into a private runlog.Shard, and
// the loop commits settled shards into the main log in canonical loop
// order, so the stored log — and therefore Collect's CSV — is
// byte-identical to a serial run's.
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

// runFingerprint is the part of a cell's fingerprint that every cell of a
// run shares: the run's configuration surface, plus its build identity's
// cost-model hash so recalibrating the model (or flipping debug mode)
// invalidates stored cells wholesale.
func runFingerprint(id buildIdentity, cfg Config) store.Fingerprint {
	return store.Fingerprint{
		Experiment: cfg.Experiment,
		Threads:    cfg.Threads,
		Reps:       strconv.Itoa(cfg.Reps),
		Input:      cfg.Input.String(),
		Tool:       cfg.Tool,
		ConfigHash: id.config,
	}
}

// cellFingerprint is the content address of one cell's measurements: the
// run's shared fingerprint (runFingerprint) completed with the cell's
// workload, build type and dimensions. The build identity's makefile
// digest (empty when no makefile was added or edited since New) joins
// Dims, which compaction's keep predicate does not read, so an edited
// makefile misses the store without the default keys moving.
func cellFingerprint(run store.Fingerprint, c cell, id buildIdentity) store.Fingerprint {
	dims := c.dims
	if id.digest != "" {
		if dims != "" {
			dims += ";"
		}
		dims += "makefiles=" + id.digest
	}
	fp := run
	fp.Suite = c.workload.Suite()
	fp.Benchmark = c.workload.Name()
	fp.BuildType = c.buildType
	fp.Dims = dims
	return fp
}

// planReplays resolves every cell's store lookup before the run starts
// executing: one BulkGetCells over all cells, rendered once by the
// planner, reads each cell's record file once. The returned slice is
// positionally aligned with cells; a nil shard means "execute the cell".
// A failed lookup, and a corrupt or mismatched record, is reported to the
// -v stream and treated as a miss, so a damaged store self-heals by
// re-measuring.
func planReplays(rc *RunContext, cells []cell, fps []store.Cell) []*runlog.Shard {
	shards := make([]*runlog.Shard, len(cells))
	if !rc.Config.Resume || rc.Fex.store == nil {
		return shards
	}
	for i, r := range rc.Fex.store.BulkGetCells(fps) {
		c := cells[i]
		if r.Err != nil {
			rc.logf("  store: %s/%s [%s]: %v; re-measuring", c.workload.Suite(), c.workload.Name(), c.buildType, r.Err)
			continue
		}
		if !r.Present {
			continue
		}
		shard, err := runlog.ParseShard(string(r.Payload))
		if err != nil {
			rc.logf("  store: %s/%s [%s]: invalid stored records: %v; re-measuring",
				c.workload.Suite(), c.workload.Name(), c.buildType, err)
			continue
		}
		if rc.Config.Verbose { // spare a replay the boxing of logf's arguments
			rc.logf("  store: replaying %s/%s [%s]", c.workload.Suite(), c.workload.Name(), c.buildType)
		}
		shards[i] = shard
	}
	return shards
}

// persistCell stores a completed cell's shard under its fingerprint.
// Persistence is unconditional (not gated on -resume): every run fills the
// store, so the *next* -resume run benefits — including after a run that
// failed partway, whose completed cells are already durable. Store errors
// only cost the cache entry; they never fail the measurement that produced
// it.
func persistCell(rc *RunContext, c cell, fp store.Cell, shard *runlog.Shard) {
	if rc.Fex.store == nil {
		return
	}
	text, err := shard.Text()
	if err == nil {
		err = rc.Fex.store.PutCell(fp, []byte(text))
	}
	if err != nil {
		rc.logf("  store: persist %s/%s [%s]: %v", c.workload.Suite(), c.workload.Name(), c.buildType, err)
	}
}

// worker is one execution slot of the scheduler; each runs one cell at a
// time, taken from the shared queue. A local worker (remote == nil) runs
// cells in-process on the coordinator; a remote worker ships them to its
// cluster host.
type worker struct {
	remote *clusterWorker
	// degrade marks the -degrade local worker: a local worker that takes
	// only cells no remote worker can serve (every host down or probing,
	// or the cell exhausted its untried hosts).
	degrade bool
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

// sched is the scheduler: single-goroutine state (queue, workers,
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
	// cluster is set when the run has hosts: cells can exhaust their
	// hosts, and progress events carry host snapshots.
	cluster bool
	// serial is set for one local worker and no hosts: a type's build
	// waits until every released cell settled.
	serial bool
	// queue holds released cells waiting for a worker, in release order
	// with failed-over cells at the front.
	queue []int
	idle  []int
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

	// route names this run's cell route on its hosts (the "run" argument
	// of its run-cell jobs) and image keys the host images its workers
	// use; both set for cluster runs.
	route string
	image imageKey

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
		(!s.stop && (len(s.queue) > 0 || s.nextType < len(s.rc.Config.BuildTypes))) {
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
	if s.building || s.stop || (s.serial && s.inFlight+len(s.queue) > 0) {
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

// handleBuild releases a built type's cells to the queue. A failed build
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
			s.enqueue(ci, false)
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
		// Parse the shard here, off the loop, so -jobs N parses in
		// parallel and the commit merges records instead of text. A
		// shard that does not parse stays unparsed: the run writer
		// parses it at commit and reports the error with its line.
		_ = shard.Parse()
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
			s.enqueue(ci, true)
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
	persistCell(s.vrc, s.p.cells[ci], s.p.fps[ci], shard)
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
	s.queue = nil
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

// dispatch is the work-conserving engine: every idle healthy worker
// takes its next cell, in idle-pool order. Launched workers leave the
// idle pool, and unhealthy ones are swept out of it as they are
// encountered. One pass suffices: a launch only removes a cell from the
// queue, which makes no other cell takeable.
func (s *sched) dispatch() {
	for ii := 0; ii < len(s.idle) && !s.stop; {
		wi := s.idle[ii]
		if s.workers[wi].phase == hostHealthy {
			ci, ok := s.take(wi)
			if !ok {
				ii++
				continue
			}
			s.launch(wi, ci, false)
		}
		s.idle = append(s.idle[:ii], s.idle[ii+1:]...)
	}
}

// take pops the next cell an idle worker runs from the shared queue: the
// head for a local worker, the first cell not yet attempted on its host
// for a remote worker, and for the -degrade local worker the first cell
// no remote worker can serve.
func (s *sched) take(wi int) (int, bool) {
	w := s.workers[wi]
	for k, ci := range s.queue {
		if w.remote != nil && !s.placeable(wi, ci) ||
			w.degrade && s.anyHealthy() && s.remoteEligible(ci) {
			continue
		}
		if k == 0 {
			s.queue = s.queue[1:]
		} else {
			s.queue = append(s.queue[:k], s.queue[k+1:]...)
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
