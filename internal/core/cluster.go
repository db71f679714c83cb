package core

// This file is the scheduler's remote half: cluster workers and the
// policies that apply only to them. The paper lists distributed
// experiments as future work ("e.g., using the Fabric library", §IV-B);
// remote workers realize them over the in-process cluster model of
// internal/remote, inside the one scheduler of schedule.go, so the
// determinism contract of local execution holds unchanged.
//
// Topology: one remote worker per configured host (-hosts h1,h2,...). A
// remote worker is the host-side half of the experiment — the host's
// image (a private container cloned from the coordinator's, the "ship
// the image to each host" step, with a build system over it), which the
// framework keeps across runs with the same image key, and the host's
// "run-cell" command standing in for the SSH session that executes one
// experiment cell remotely, routed to this run. Remote workers take
// (build type, benchmark) cells from the scheduler's one shared queue as
// local workers do: an idle healthy host pops the first queued cell it
// has not been attempted on, so a slow host simply comes back for work
// less often. The scheduler fetches each cell's shard log from the
// Host.Run output and commits the shards into the main log in canonical
// loop order — so a cluster run's stored log and CSV are byte-identical
// to a serial local run's, whatever order the hosts took cells in. Store
// replays are resolved on the coordinator before any cell is queued, in
// one batched plan-ahead pass (planReplays in schedule.go): replayed
// cells are never dispatched, and the hosts never touch the result store.
//
// Self-healing: each remote worker carries a host state machine (healthy
// → probation → evicted). A host fault — remote.ErrUnreachable, a
// per-cell deadline expiry (-host-timeout), or a provisioning failure —
// returns the stranded cell to the front of the shared queue for another
// host and moves the faulty host to probation, where an
// exponential-backoff reprobe schedule (on the injected clock, so tests
// advance it deterministically) re-admits it once it answers again; only
// maxProbeFails consecutive failed probes evict it for the run
// (provisioning failures evict immediately: they are deterministic, a
// probe proves nothing). Hosts Ensure'd into the cluster mid-run — a new
// name in -hosts-file, or the serve hosts API — join the idle pool and
// take queued cells. When spare idle workers exist, a cell that has run
// far longer than the run's median cell duration is speculatively
// duplicated on another host, first result wins, loser cancelled
// (-no-speculate is the ablation); losing shards are discarded before the
// merge and never persisted, so byte-identity is unaffected. With
// -degrade local one extra local worker executes the cells no remote
// worker can serve while every host is down or probing, instead of
// failing the run.
//
// Only when a cell has no untried non-evicted host left does the run
// fail, with an error that names the cell and every host tried. None of
// the fault handling ever writes to the run log — health transitions,
// failovers, speculation, and the end-of-run per-host summary go to the
// -v stream only, and per-host counters ride on progress events.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fex/internal/buildsys"
	"fex/internal/installer"
	"fex/internal/remote"
	"fex/internal/runlog"
)

// cmdRunCell is the remote command a worker registers for cell execution
// (the in-process stand-in for "ssh host fex run-cell ...").
const cmdRunCell = "run-cell"

// Fault-tolerance policy constants.
const (
	// probeBaseDelay is the reprobe delay after the first failed probe;
	// each further failure doubles it (the first probe after entering
	// probation is immediate).
	probeBaseDelay = 500 * time.Millisecond
	// maxProbeFails evicts a host after this many consecutive failed
	// probes.
	maxProbeFails = 5
	// defaultProbeTimeout bounds a probe when no -host-timeout is set, so
	// a hung host cannot wedge its own probation probes.
	defaultProbeTimeout = time.Second
	// specFactor and specMinElapsed gate speculation: a cell is a
	// straggler once it has run longer than specFactor× the run's median
	// cell duration and at least specMinElapsed (so µs-scale cells are
	// never speculated on timer jitter).
	specFactor     = 2
	specMinElapsed = 10 * time.Millisecond
	// specMinSamples is the minimum number of completed cells before the
	// median is considered meaningful.
	specMinSamples = 3
)

// errHostProvision marks a worker-provisioning failure surfacing through
// the run-cell handler. It is a host fault, not a cell failure: the cell
// fails over and the broken host is evicted, instead of the run aborting.
var errHostProvision = errors.New("cluster: worker provisioning failed")

// Host phases of the scheduler's per-host state machine.
const (
	hostHealthy = iota
	hostProbation
	hostEvicted
)

// phaseNames renders host phases for status snapshots and -v summaries.
var phaseNames = [...]string{"healthy", "probation", "evicted"}

// clusterWorker is one run's handle on a host: the remote host plus, once
// the first cell lands on it, the host's provisioned image. Every cell
// dispatched to the worker builds and runs against that image, so
// workers share nothing mutable with the coordinator or with each other.
type clusterWorker struct {
	host *remote.Host

	// Provisioning is lazy: the image is resolved on the worker's first
	// placement, so spare failover hosts that never receive a cell cost
	// nothing. The run holds the image it resolved until it ends.
	provision sync.Once
	build     *buildsys.System
	provErr   error
}

// buildSystem resolves the worker's host image on first use (see
// Fex.hostImage).
func (w *clusterWorker) buildSystem(fx *Fex, key imageKey) (*buildsys.System, error) {
	w.provision.Do(func() {
		w.build, w.provErr = fx.hostImage(w.host.Name(), key)
	})
	return w.build, w.provErr
}

// hostImage is one host's provisioned image — the "ship the image to the
// host" step: a private container cloned from the coordinator's and a
// build system over the clone, whose artifact cache and execution memo
// then serve every run with the same key. The framework owns it, not the
// run, so a cluster campaign provisions each host once per build
// configuration instead of once per run.
type hostImage struct {
	key imageKey
	// once single-flights provisioning between concurrent runs.
	once  sync.Once
	build *buildsys.System
	err   error
	// reusable is false when the image must serve only the runs that
	// already hold it: provisioning failed, or the clone's installed set
	// did not match the key.
	reusable bool
}

// imageKey is everything a host image depends on: the run's build
// identity, whose makefiles the image is built with, and the install
// manifest, the one thing a worker's build system reads from its cloned
// container (compilers come from the registry; binaries are only
// written). prepareBuild also drops every image on a clean build.
type imageKey struct {
	build    buildIdentity
	manifest string
}

// names reports whether k and o name the same image.
func (k imageKey) names(o imageKey) bool {
	return k.build.config == o.build.config && k.build.digest == o.build.digest && k.manifest == o.manifest
}

// imageKey returns the key of the host images a run with build identity
// id uses, reading the coordinator's install manifest.
func (fx *Fex) imageKey(id buildIdentity) (imageKey, error) {
	manifest, err := fx.inst.ManifestBytes()
	if err != nil {
		return imageKey{}, fmt.Errorf("cluster: read install manifest: %w", err)
	}
	return imageKey{build: id, manifest: string(manifest)}, nil
}

// hostImage returns host's image for key, provisioning it on the first
// call whose key matches no live image. A failed provisioning is never
// kept: the next run retries it.
func (fx *Fex) hostImage(host string, key imageKey) (*buildsys.System, error) {
	fx.imageMu.Lock()
	img := fx.images[host]
	if img == nil || !img.key.names(key) {
		img = &hostImage{key: key}
		fx.images[host] = img
	}
	fx.imageMu.Unlock()
	img.once.Do(func() {
		fx.provisions.Add(1)
		img.build, img.reusable, img.err = fx.provision(host, key)
	})
	if !img.reusable {
		fx.imageMu.Lock()
		if fx.images[host] == img {
			delete(fx.images, host)
		}
		fx.imageMu.Unlock()
	}
	return img.build, img.err
}

// provision clones the coordinator container for host and assembles a
// build system over the clone, with the key's makefiles. It reports the
// image reusable only when the clone's installed set is the key's: an
// install that landed between reading the key and provisioning yields an
// image good for this run only.
func (fx *Fex) provision(host string, key imageKey) (*buildsys.System, bool, error) {
	fail := func(err error) (*buildsys.System, bool, error) {
		return nil, false, fmt.Errorf("cluster: provision %s: %w", host, err)
	}
	ctr, err := fx.ctr.Clone("worker-" + host)
	if err != nil {
		return fail(err)
	}
	inst, err := installer.New(fx.repo, ctr)
	if err != nil {
		return fail(err)
	}
	manifest, err := inst.ManifestBytes()
	if err != nil {
		return fail(err)
	}
	fsys, err := ctr.FS()
	if err != nil {
		return fail(err)
	}
	build, err := newBenchBuildSystem(fsys, inst.IsInstalled, fx.registry)
	if err != nil {
		return fail(err)
	}
	for _, mf := range key.build.makefiles {
		if err := build.AddMakefile(mf); err != nil {
			return fail(err)
		}
	}
	return build, string(manifest) == key.manifest, nil
}

// dropHostImages forgets every host image; runs that already hold one
// keep using it until they end.
func (fx *Fex) dropHostImages() {
	fx.imageMu.Lock()
	clear(fx.images)
	fx.imageMu.Unlock()
}

// hostState is the scheduler's view of one worker's host: its
// state-machine phase, consecutive probe failures since entering
// probation, and the counters surfaced through progress events and the
// -v summary.
type hostState struct {
	phase      int
	probeFails int
	stats      HostStatus
}

// startCluster resolves the configured hosts, ensuring they exist in the
// framework cluster, and admits one remote worker per host. The returned
// stop, always non-nil, removes the run's cell route from every host and
// ends the join subscription; a host's run-cell command is unregistered
// when its last run leaves. Host images outlive the run: the framework
// owns them (Fex.hostImage).
func (s *sched) startCluster() (stop func(), err error) {
	rc := s.rc
	s.route = strconv.FormatUint(runRoutes.Add(1), 10)
	if s.image, err = rc.Fex.imageKey(rc.identity); err != nil {
		return func() {}, err
	}
	// Subscribe before resolving the initial workers so a host Ensure'd
	// concurrently is either resolved below or delivered as a join (known
	// names dedupe in handleJoin).
	joins, unsubscribe := rc.Fex.cluster.Subscribe(len(rc.Config.Hosts) + 16)
	s.joins = joins
	stop = func() {
		// s.workers includes hosts that joined mid-run.
		for _, w := range s.workers {
			if w.remote != nil {
				unrouteCells(w.remote.host, s.route)
			}
		}
		unsubscribe()
	}
	s.vrc.logf("== cluster: %d cells across %d hosts (%s)",
		s.p.pending, len(rc.Config.Hosts), strings.Join(rc.Config.Hosts, ", "))
	if cfg := rc.Config; cfg.HostTimeout > 0 || cfg.NoSpeculate || cfg.Degrade != "" {
		spec := "on"
		if cfg.NoSpeculate {
			spec = "off"
		}
		degrade := cfg.Degrade
		if degrade == "" {
			degrade = "fail"
		}
		s.vrc.logf("== cluster: host-timeout %v, speculation %s, degrade %s",
			cfg.HostTimeout, spec, degrade)
	}
	// Ensuring a host creates it in the framework cluster; its image is
	// resolved lazily by buildSystem.
	for _, name := range rc.Config.Hosts {
		h, err := rc.Fex.cluster.Ensure(name)
		if err != nil {
			return stop, fmt.Errorf("cluster: host %q: %w", name, err)
		}
		if err := s.admitWorker(&clusterWorker{host: h}); err != nil {
			return stop, err
		}
	}
	return stop, nil
}

// runRoutes numbers the cell routes of cluster runs process-wide, so two
// runs sharing a host — on one framework or on two over one cluster —
// never receive each other's cells.
var runRoutes atomic.Uint64

// cellRoutes maps each host carrying a run-cell command to the handlers
// of the runs using it, by route. Hosts are shared by concurrent runs
// while a command name holds one handler, so the command is a router: it
// dispatches each job by its "run" argument.
var (
	routeMu    sync.Mutex
	cellRoutes = map[*remote.Host]map[string]remote.Handler{}
)

// routeCells adds a run's handler to h, registering the run-cell router
// when h has no run yet.
func routeCells(h *remote.Host, route string, fn remote.Handler) error {
	routeMu.Lock()
	defer routeMu.Unlock()
	routes := cellRoutes[h]
	if routes == nil {
		if err := h.RegisterCommand(cmdRunCell, func(ctx context.Context, job remote.Job) (remote.Output, error) {
			routeMu.Lock()
			fn := cellRoutes[h][job.Args["run"]]
			routeMu.Unlock()
			if fn == nil {
				return remote.Output{}, fmt.Errorf("cluster: host %s: no run %q", h.Name(), job.Args["run"])
			}
			return fn(ctx, job)
		}); err != nil {
			return err
		}
		routes = make(map[string]remote.Handler)
		cellRoutes[h] = routes
	}
	routes[route] = fn
	return nil
}

// unrouteCells removes a run's handler from h, and the run-cell command
// with it once no run is left on h: the handler closures capture the
// run's scheduler, which must not outlive the run on the long-lived host.
func unrouteCells(h *remote.Host, route string) {
	routeMu.Lock()
	defer routeMu.Unlock()
	routes := cellRoutes[h]
	delete(routes, route)
	if len(routes) == 0 {
		h.UnregisterCommand(cmdRunCell)
		delete(cellRoutes, h)
	}
}

// admitWorker routes the run's cells on a host and adds its remote
// worker to the pool as healthy and idle.
func (s *sched) admitWorker(w *clusterWorker) error {
	// The handler executes one cell against the host's image and ships
	// the shard text back as the command's log output. It observes the
	// placement's context (not the run's), so deadline expiry and
	// speculation-loser cancellation stop it between repetitions.
	handler := func(ctx context.Context, job remote.Job) (remote.Output, error) {
		i, err := strconv.Atoi(job.Args["cell"])
		if err != nil || i < 0 || i >= len(s.p.cells) {
			return remote.Output{}, fmt.Errorf("cluster: bad cell index %q", job.Args["cell"])
		}
		build, err := w.buildSystem(s.rc.Fex, s.image)
		if err != nil {
			return remote.Output{}, fmt.Errorf("%w: %v", errHostProvision, err)
		}
		shard, err := s.execCell(ctx, build, i)
		if err != nil {
			return remote.Output{}, err
		}
		text, err := shard.Text()
		if err != nil {
			return remote.Output{}, err
		}
		return remote.Output{Log: text}, nil
	}
	if err := routeCells(w.host, s.route, handler); err != nil {
		return err
	}
	s.addWorker(&worker{remote: w, hostState: hostState{stats: HostStatus{Host: w.host.Name()}}})
	return nil
}

// launchRemote runs a placement as a run-cell command on the worker's
// host. When -host-timeout is set, a watchdog goroutine on the scheduler
// clock cancels the placement at the deadline and marks it timed out, so
// the resulting context error is classified as a host fault.
func (s *sched) launchRemote(pctx context.Context, w *worker, pl *placement) {
	ci, h := pl.cell, w.remote.host
	if s.attempted[ci] == nil {
		s.attempted[ci] = make(map[string]bool)
	}
	s.attempted[ci][h.Name()] = true
	if d := s.rc.Config.HostTimeout; d > 0 {
		s.after(d, pctx.Done(), func() {
			pl.timedOut.Store(true)
			pl.cancel()
		})
	}
	go func() {
		out, err := h.Run(pctx, remote.Job{
			Command: cmdRunCell,
			Args:    map[string]string{"run": s.route, "cell": strconv.Itoa(ci)},
		})
		var shard *runlog.Shard
		if err == nil {
			// The command output is the fetched shard log. Parsing it
			// validates it: a corrupted or truncated transfer must fail
			// the cell with host attribution, never merge garbage
			// records silently into the run log. The parsed shard
			// merges through the same Append path as local cells.
			var perr error
			if shard, perr = runlog.ParseShard(out.Log); perr != nil {
				c := s.p.cells[ci]
				err = fmt.Errorf("cluster: host %s: cell %s/%s [%s]: corrupt shard transfer: %w",
					h.Name(), c.workload.Suite(), c.workload.Name(), c.buildType, perr)
			}
		}
		s.events <- func() { s.handleResult(pl, shard, err) }
	}()
}

// isHostFault classifies a remote placement error as a host fault: the
// host was unreachable, failed to provision, or blew the per-cell
// deadline (the watchdog cancelled the placement). A context error
// without the watchdog mark is the run's own cancellation — a genuine
// abort. Local workers have no host to fault.
func (s *sched) isHostFault(pl *placement, err error) bool {
	if s.workers[pl.worker].remote == nil {
		return false
	}
	if errors.Is(err, remote.ErrUnreachable) || errors.Is(err, errHostProvision) {
		return true
	}
	return pl.timedOut.Load() && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// faultKind renders a host fault's cause for the -v failover line.
func faultKind(pl *placement, err error) string {
	switch {
	case errors.Is(err, errHostProvision):
		return "failed provisioning"
	case pl.timedOut.Load() && !errors.Is(err, remote.ErrUnreachable):
		return "timed out"
	default:
		return "unreachable"
	}
}

// hostFault drives the state machine on a host fault. Unreachability and
// deadline expiry move the host to probation with an immediate first
// probe; provisioning failures evict immediately — they are
// deterministic, so a probe (which only proves reachability) would
// re-admit a host that can never run a cell.
func (s *sched) hostFault(wi int, cause error) {
	w := s.workers[wi]
	if w.phase != hostHealthy {
		return
	}
	name := w.remote.host.Name()
	if errors.Is(cause, errHostProvision) {
		w.phase = hostEvicted
		s.vrc.logf("cluster: host %s evicted: %v", name, cause)
		s.requeue() // the eviction may exhaust a waiting cell
		return
	}
	w.phase = hostProbation
	w.probeFails = 0
	s.vrc.logf("cluster: host %s entering probation", name)
	s.scheduleProbe(wi, 0)
}

// scheduleProbe arms one reprobe of a probation host after delay on the
// scheduler clock. The probe is a transport-level Ping bounded by the
// probe timeout (-host-timeout, or a default), so probing a hung host
// terminates.
func (s *sched) scheduleProbe(wi int, delay time.Duration) {
	if s.stop {
		return
	}
	h := s.workers[wi].remote.host
	timeout := s.rc.Config.HostTimeout
	if timeout <= 0 {
		timeout = defaultProbeTimeout
	}
	s.after(delay, s.ctx.Done(), func() {
		pctx, cancel := context.WithCancel(s.ctx)
		pdone := make(chan struct{})
		s.after(timeout, pdone, cancel)
		err := h.Ping(pctx)
		close(pdone)
		cancel()
		select {
		case s.events <- func() { s.handleProbe(wi, err) }:
		case <-s.ctx.Done():
		}
	})
}

// handleProbe advances a probation host's state machine with one
// reprobe's outcome: a successful probe returns it to the idle pool; a
// failed one backs off exponentially until maxProbeFails evicts it.
func (s *sched) handleProbe(wi int, err error) {
	w := s.workers[wi]
	if s.stop || w.phase != hostProbation {
		return
	}
	w.stats.Probes++
	name := w.remote.host.Name()
	if err == nil {
		w.phase = hostHealthy
		w.probeFails = 0
		s.vrc.logf("cluster: host %s recovered; re-admitted after %d probes", name, w.stats.Probes)
		// A recovered host is a fresh candidate: clear it from unsettled
		// cells' attempted sets, so a cell that faulted on it before the
		// outage (or timed out under transient load) can retry there
		// instead of counting it toward exhaustion.
		for ci, tried := range s.attempted {
			if tried != nil && s.p.shards[ci] == nil {
				delete(tried, name)
			}
		}
		s.idle = append(s.idle, wi)
		s.emitHosts()
		return
	}
	w.probeFails++
	if w.probeFails >= maxProbeFails {
		w.phase = hostEvicted
		s.vrc.logf("cluster: host %s evicted after %d failed probes", name, w.probeFails)
		s.requeue() // waiting cells settle their fate now
		s.emitHosts()
		return
	}
	s.scheduleProbe(wi, probeBaseDelay<<(w.probeFails-1))
}

// handleJoin admits a host Ensure'd into the cluster mid-run (a new
// -hosts-file name, or the serve hosts API) into the idle pool, where it
// takes queued cells at the next dispatch. Known names are ignored.
func (s *sched) handleJoin(h *remote.Host) {
	if s.stop {
		return
	}
	for _, w := range s.workers {
		if w.remote != nil && w.remote.host.Name() == h.Name() {
			return
		}
	}
	if err := s.admitWorker(&clusterWorker{host: h}); err != nil {
		s.vrc.logf("cluster: host %s failed to join: %v", h.Name(), err)
		return
	}
	s.vrc.logf("cluster: host %s joined mid-run", h.Name())
	s.emitHosts()
}

// triedHosts renders the hosts a cell was attempted on, in worker order,
// for error attribution.
func (s *sched) triedHosts(ci int) string {
	var tried []string
	for _, w := range s.workers {
		if w.remote != nil && s.attempted[ci][w.remote.host.Name()] {
			tried = append(tried, w.remote.host.Name())
		}
	}
	return strings.Join(tried, ", ")
}

// anyHealthy reports whether any remote worker is in the healthy phase.
func (s *sched) anyHealthy() bool {
	for _, w := range s.workers {
		if w.remote != nil && w.phase == hostHealthy {
			return true
		}
	}
	return false
}

// remoteEligible reports whether the cell still has an untried
// non-evicted host — the exhaustion criterion for failing (or locally
// degrading) a cell.
func (s *sched) remoteEligible(ci int) bool {
	for _, w := range s.workers {
		if w.remote != nil && w.phase != hostEvicted && !s.attempted[ci][w.remote.host.Name()] {
			return true
		}
	}
	return false
}

// enqueue adds one released cell to the shared queue, at the back, or at
// the front for a cell failing over. A cluster cell that has no untried
// non-evicted host left, and no -degrade local worker to wait for, fails
// the run instead, with the exhaustion error naming every host tried.
func (s *sched) enqueue(ci int, front bool) {
	if s.stop {
		return
	}
	if s.cluster && !s.remoteEligible(ci) && s.rc.Config.Degrade != "local" {
		c := s.p.cells[ci]
		err := fmt.Errorf("cluster: cell %s/%s [%s]: no reachable host left of %s (tried %s): %w",
			c.workload.Suite(), c.workload.Name(), c.buildType,
			strings.Join(s.rc.Config.Hosts, ", "), s.triedHosts(ci), remote.ErrUnreachable)
		s.failRun(ci, err)
		return
	}
	if front {
		s.queue = slices.Insert(s.queue, 0, ci)
		return
	}
	s.queue = append(s.queue, ci)
}

// placeable reports whether worker wi is a healthy remote worker cell ci
// has not been attempted on.
func (s *sched) placeable(wi, ci int) bool {
	w := s.workers[wi]
	return w.remote != nil && w.phase == hostHealthy && !s.attempted[ci][w.remote.host.Name()]
}

// requeue re-checks every queued cell after an eviction, in queue order:
// each stays queued or, with its last untried host gone, fails the run.
func (s *sched) requeue() {
	q := s.queue
	s.queue = nil
	for _, ci := range q {
		s.enqueue(ci, false)
	}
}

// maybeSpeculate runs the straggler detector: with the queue drained,
// spare idle workers, and enough completed remote cells for a meaningful
// median, a cell whose only placement has run longer than
// max(specFactor×median, specMinElapsed) on a remote worker is
// duplicated onto an idle untried host — first result wins, loser
// cancelled. Stragglers are considered in canonical cell order. When no
// straggler is due yet, a timer on the scheduler clock re-arms the check
// at the earliest future threshold crossing.
func (s *sched) maybeSpeculate() {
	s.stopSpecTimer()
	if s.stop || s.rc.Config.NoSpeculate || len(s.queue) > 0 ||
		len(s.durations) < specMinSamples {
		return
	}
	durs := append([]time.Duration(nil), s.durations...)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	threshold := specFactor * medianDuration(durs)
	if threshold < specMinElapsed {
		threshold = specMinElapsed
	}
	var stragglers []*placement
	for _, w := range s.workers {
		if pl := w.pl; pl != nil && w.remote != nil && !pl.speculative &&
			s.p.shards[pl.cell] == nil && s.placementsOf(pl.cell) == 1 {
			stragglers = append(stragglers, pl)
		}
	}
	sort.Slice(stragglers, func(i, j int) bool { return stragglers[i].cell < stragglers[j].cell })
	now := s.clk.Now()
	var earliest time.Time
	pendingWake := false
	for _, pl := range stragglers {
		ci := pl.cell
		if now.Sub(pl.start) < threshold {
			due := pl.start.Add(threshold)
			if !pendingWake || due.Before(earliest) {
				earliest = due
				pendingWake = true
			}
			continue
		}
		for ii, wi := range s.idle {
			if s.placeable(wi, ci) {
				s.idle = append(s.idle[:ii], s.idle[ii+1:]...)
				c := s.p.cells[ci]
				s.vrc.logf("cluster: speculating %s/%s [%s] on %s (straggling on %s)",
					c.workload.Suite(), c.workload.Name(), c.buildType,
					s.workers[wi].remote.host.Name(), s.workers[pl.worker].remote.host.Name())
				s.launch(wi, ci, true)
				break
			}
		}
	}
	// Re-arm whenever a future crossing exists, even with the idle pool
	// momentarily empty: backToPool wakes the detector when a worker
	// frees up, and the timer covers the case where every worker is idle
	// but no straggler is due yet.
	if pendingWake {
		s.specTmr = s.after(earliest.Sub(now), s.ctx.Done(), s.wakeSpec)
	}
}

// stopSpecTimer disarms the pending speculation wakeup, if any.
func (s *sched) stopSpecTimer() {
	if s.specTmr != nil {
		s.specTmr.Stop()
		s.specTmr = nil
	}
}

// medianDuration returns the median of an already-sorted, non-empty
// slice; an even count averages the two middle elements (not the upper
// one, which would bias the speculation threshold high on even sample
// counts).
func medianDuration(durs []time.Duration) time.Duration {
	n := len(durs)
	if n%2 == 1 {
		return durs[n/2]
	}
	return (durs[n/2-1] + durs[n/2]) / 2
}

// hostSnapshot renders the per-host counters for progress events and the
// -v summary, in worker order; the -degrade local worker reports as host
// "local".
func (s *sched) hostSnapshot() []HostStatus {
	out := make([]HostStatus, 0, len(s.workers))
	for _, w := range s.workers {
		hs := w.stats
		hs.State = phaseNames[w.phase]
		out = append(out, hs)
	}
	return out
}

// emitHosts publishes a host-state progress event (probation, eviction,
// recovery, join, speculation outcomes) so service callers see cluster
// health between cell completions.
func (s *sched) emitHosts() {
	if !s.cluster {
		return
	}
	ev := s.p.event("hosts")
	ev.Hosts = s.hostSnapshot()
	s.rc.reportProgress(ev)
}

// logSummary drains the per-host log retention (run.py's final "fetch
// the logs": every shard already reached the coordinator via the command
// output) and writes the end-of-run per-host summary to the -v stream.
func (s *sched) logSummary() {
	for _, w := range s.workers {
		if w.remote != nil {
			w.remote.host.FetchLogs()
		}
	}
	for _, hs := range s.hostSnapshot() {
		s.vrc.logf("== cluster: host %s: %s, %d cells, %d failovers, %d probes, %d spec wins, %d spec losses",
			hs.Host, hs.State, hs.Cells, hs.Failovers, hs.Probes, hs.SpecWins, hs.SpecLosses)
	}
}
