package core

// This file is the scheduler's remote half: cluster workers and the
// policies that apply only to them. The paper lists distributed
// experiments as future work ("e.g., using the Fabric library", §IV-B);
// remote workers realize them over the in-process cluster model of
// internal/remote, inside the one scheduler of schedule.go, so the
// determinism contract of local execution holds unchanged.
//
// Topology: one remote worker per configured host (-hosts h1,h2,...). A
// remote worker is the host-side half of the experiment — a private
// container cloned from the coordinator's (the "ship the image to each
// host" step), its own build system over that container, and a
// registered "run-cell" command standing in for the SSH session that
// executes one experiment cell remotely. The scheduler places (build
// type, benchmark) cells onto remote workers, fetches each cell's shard
// log from the Host.Run output, and commits the shards into the main log
// in canonical loop order — so a cluster run's stored log and CSV are
// byte-identical to a serial local run's. Store replays are resolved on
// the coordinator before placement, in one batched plan-ahead pass
// (planReplays in schedule.go): replayed cells are never dispatched, and
// the hosts never touch the result store.
//
// Self-healing: each remote worker carries a host state machine (healthy
// → probation → evicted). A host fault — remote.ErrUnreachable, a
// per-cell deadline expiry (-host-timeout), or a provisioning failure —
// fails the stranded cell over to another host and moves the faulty host
// to probation, where an exponential-backoff reprobe schedule (on the
// injected clock, so tests advance it deterministically) re-admits it
// once it answers again; only maxProbeFails consecutive failed probes
// evict it for the run (provisioning failures evict immediately: they
// are deterministic, a probe proves nothing). Hosts Ensure'd into the
// cluster mid-run — a new name in -hosts-file, or the serve hosts API —
// join the pool and absorb queued cells. When spare idle workers exist,
// a cell that has run far longer than the run's median cell duration is
// speculatively duplicated on another host, first result wins, loser
// cancelled (-no-speculate is the ablation); losing shards are discarded
// before the merge and never persisted, so byte-identity is unaffected.
// With -degrade local one extra local worker executes the cells no
// remote worker can serve while every host is down or probing, instead
// of failing the run.
//
// Load-aware placement: healing is reactive; placement is proactive.
// Each host's state keeps EWMAs of its recent cell durations and probe
// round-trips, read live by the loop, and each cell is routed to the
// healthy untried host with the lowest expected finish — EWMA × (backlog
// + 1) — so a chronically slow host (loaded, distant, underpowered, but
// never faulting) absorbs proportionally fewer cells instead of full
// rate until a deadline trips. Cells queue per host; an idle worker
// first drains its own backlog, then steals the deepest
// queued-behind-busy cell from the most backlogged host (-no-steal is
// the ablation; -no-load-aware falls back to round-robin placement).
// Placement order changes under load; merge order never does — shards
// still merge in canonical loop order, so the byte-identity contract
// holds under any load skew.
//
// Only when a cell has no untried non-evicted host left does the run
// fail, with an error that names the cell and every host tried. None of
// the fault handling ever writes to the run log — health transitions,
// failovers, speculation, steals, and the end-of-run per-host summary go
// to the -v stream only, and per-host counters ride on progress events.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	// ewmaNum/ewmaDen set the load EWMAs' smoothing factor (alpha =
	// 3/10): new observations move the average by 30%, so a recovering
	// host sheds its slow history within a few cells while one outlier
	// cannot erase it.
	ewmaNum = 3
	ewmaDen = 10
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

// clusterWorker is one host's execution side: the remote host handle
// plus, once the first cell lands on it, a private container cloned from
// the coordinator and a build system bound to that container. Every cell
// dispatched to the worker builds and runs against this private state,
// so workers share nothing mutable.
type clusterWorker struct {
	host *remote.Host
	fx   *Fex

	// Provisioning (container clone + build system assembly) is lazy:
	// it runs on the worker's first placement, so spare failover hosts
	// that never receive a cell cost nothing.
	provision sync.Once
	build     *buildsys.System
	provErr   error
}

// buildSystem provisions the worker on first use — the "ship the image
// to the host" step: clone the coordinator container (after its
// CleanBuild, so every worker starts from the same pristine,
// fully-installed state) and assemble a build system over the clone.
func (w *clusterWorker) buildSystem() (*buildsys.System, error) {
	w.provision.Do(func() {
		name := w.host.Name()
		ctr, err := w.fx.ctr.Clone("worker-" + name)
		if err != nil {
			w.provErr = fmt.Errorf("cluster: provision %s: %w", name, err)
			return
		}
		inst, err := installer.New(w.fx.repo, ctr)
		if err != nil {
			w.provErr = fmt.Errorf("cluster: provision %s: %w", name, err)
			return
		}
		fsys, err := ctr.FS()
		if err != nil {
			w.provErr = fmt.Errorf("cluster: provision %s: %w", name, err)
			return
		}
		w.build, w.provErr = newBenchBuildSystem(fsys, inst.IsInstalled, w.fx.registry)
	})
	return w.build, w.provErr
}

// hostState is the scheduler's view of one worker's host: its
// state-machine phase, consecutive probe failures since entering
// probation, the counters surfaced through progress events and the -v
// summary, and the load signals placement scores by.
type hostState struct {
	phase      int
	probeFails int
	stats      HostStatus
	// cellEWMA and rttEWMA are moving averages of the host's recent cell
	// durations and probe round-trips; zero until the first observation.
	// samples counts the cell durations folded into cellEWMA.
	cellEWMA time.Duration
	rttEWMA  time.Duration
	samples  int
}

// observeCell folds one completed cell's duration into the host's EWMA.
func (h *hostState) observeCell(d time.Duration) {
	if d >= 0 {
		h.cellEWMA = ewma(h.cellEWMA, h.samples > 0, d)
		h.samples++
	}
}

// observeRTT folds one probe round-trip into the host's RTT EWMA.
func (h *hostState) observeRTT(d time.Duration) {
	if d >= 0 {
		h.rttEWMA = ewma(h.rttEWMA, h.rttEWMA != 0, d)
	}
}

// ewma moves avg toward observation d by alpha; the first observation
// (seeded false) seeds the average directly.
func ewma(avg time.Duration, seeded bool, d time.Duration) time.Duration {
	if !seeded {
		return d
	}
	return avg + (d-avg)*ewmaNum/ewmaDen
}

// cost is the host's per-cell cost estimate: cell duration plus probe
// round-trip EWMAs; zero without history.
func (h *hostState) cost() time.Duration { return h.cellEWMA + h.rttEWMA }

// startCluster resolves the configured hosts, ensuring they exist in the
// framework cluster, and admits one remote worker per host. The returned
// stop, always non-nil, tears the run-cell sessions down and ends the
// join subscription: the handler closures capture the workers' cloned
// containers and build caches, which must not outlive the run on the
// long-lived cluster hosts.
func (s *sched) startCluster() (stop func(), err error) {
	rc := s.rc
	// Subscribe before resolving the initial workers so a host Ensure'd
	// concurrently is either resolved below or delivered as a join (known
	// names dedupe in handleJoin).
	joins, unsubscribe := rc.Fex.cluster.Subscribe(len(rc.Config.Hosts) + 16)
	s.joins = joins
	stop = func() {
		// s.workers includes hosts that joined mid-run.
		for _, w := range s.workers {
			if w.remote != nil {
				w.remote.host.UnregisterCommand(cmdRunCell)
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
	// Ensuring a host creates it in the framework cluster; the heavyweight
	// per-host state is provisioned lazily by buildSystem.
	for _, name := range rc.Config.Hosts {
		h, err := rc.Fex.cluster.Ensure(name)
		if err != nil {
			return stop, fmt.Errorf("cluster: host %q: %w", name, err)
		}
		if err := s.admitWorker(&clusterWorker{host: h, fx: rc.Fex}); err != nil {
			return stop, err
		}
	}
	return stop, nil
}

// admitWorker registers the run-cell command on a host and adds its
// remote worker to the pool as healthy and idle.
func (s *sched) admitWorker(w *clusterWorker) error {
	// The handler executes one cell against the worker's private build
	// system and ships the shard text back as the command's log output.
	// It observes the placement's context (not the run's), so deadline
	// expiry and speculation-loser cancellation stop it between
	// repetitions.
	handler := func(ctx context.Context, job remote.Job) (remote.Output, error) {
		i, err := strconv.Atoi(job.Args["cell"])
		if err != nil || i < 0 || i >= len(s.p.cells) {
			return remote.Output{}, fmt.Errorf("cluster: bad cell index %q", job.Args["cell"])
		}
		build, err := w.buildSystem()
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
	if err := w.host.RegisterCommand(cmdRunCell, handler); err != nil {
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
			Args:    map[string]string{"cell": strconv.Itoa(ci)},
		})
		var shard *runlog.Shard
		if err == nil {
			// The command output is the fetched shard log. Validate it
			// before rebuilding the shard: a corrupted transfer must fail
			// the cell with host attribution, never merge garbage records
			// silently into the run log.
			if verr := runlog.ValidateText(out.Log); verr != nil {
				c := s.p.cells[ci]
				err = fmt.Errorf("cluster: host %s: cell %s/%s [%s]: corrupt shard transfer: %w",
					h.Name(), c.workload.Suite(), c.workload.Name(), c.buildType, verr)
			} else {
				// Rebuild the shard so it merges through the same Append
				// path as local cells.
				shard = runlog.RestoreShard(out.Log)
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
		s.drainQueue(wi)
		s.replaceOverflow() // the eviction may exhaust a waiting cell
		return
	}
	w.phase = hostProbation
	w.probeFails = 0
	s.vrc.logf("cluster: host %s entering probation", name)
	s.scheduleProbe(wi, 0)
	// Cells queued behind the faulted host never launched there: re-place
	// them silently (no failover line — that is reserved for the one
	// placement the fault actually stranded).
	s.drainQueue(wi)
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
		pstart := s.clk.Now()
		err := h.Ping(pctx)
		rtt := s.clk.Now().Sub(pstart)
		close(pdone)
		cancel()
		select {
		case s.events <- func() { s.handleProbe(wi, rtt, err) }:
		case <-s.ctx.Done():
		}
	})
}

// handleProbe advances a probation host's state machine with one
// reprobe's outcome: a successful probe re-admits it to the placement
// pool, and its round-trip on the scheduler clock feeds the host's RTT
// average; a failed one backs off exponentially until maxProbeFails
// evicts it.
func (s *sched) handleProbe(wi int, rtt time.Duration, err error) {
	w := s.workers[wi]
	if s.stop || w.phase != hostProbation {
		return
	}
	w.stats.Probes++
	name := w.remote.host.Name()
	if err == nil {
		w.phase = hostHealthy
		w.probeFails = 0
		w.observeRTT(rtt)
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
		s.replaceOverflow()
		s.emitHosts()
		return
	}
	w.probeFails++
	if w.probeFails >= maxProbeFails {
		w.phase = hostEvicted
		s.vrc.logf("cluster: host %s evicted after %d failed probes", name, w.probeFails)
		s.replaceOverflow() // waiting cells settle their fate now
		s.emitHosts()
		return
	}
	s.scheduleProbe(wi, probeBaseDelay<<(w.probeFails-1))
}

// handleJoin admits a host Ensure'd into the cluster mid-run (a new
// -hosts-file name, or the serve hosts API); it immediately absorbs
// queued cells. Known names are ignored.
func (s *sched) handleJoin(h *remote.Host) {
	if s.stop {
		return
	}
	for _, w := range s.workers {
		if w.remote != nil && w.remote.host.Name() == h.Name() {
			return
		}
	}
	if err := s.admitWorker(&clusterWorker{host: h, fx: s.rc.Fex}); err != nil {
		s.vrc.logf("cluster: host %s failed to join: %v", h.Name(), err)
		return
	}
	s.vrc.logf("cluster: host %s joined mid-run", h.Name())
	s.replaceOverflow()
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

// place routes one released cell. In a local run every cell joins the
// shared queue. In a cluster run a cell goes onto the queue of the host
// with the lowest expected finish when a healthy untried host exists,
// into the shared queue when every untried host is in probation (a probe
// outcome will resolve it) or the cell waits for the -degrade local
// worker, and into failRun — with the exhaustion error naming every host
// tried — when no untried non-evicted host remains and local degradation
// is off.
func (s *sched) place(ci int) {
	if s.stop {
		return
	}
	if !s.cluster {
		s.queue = append(s.queue, ci)
		return
	}
	if !s.remoteEligible(ci) {
		if s.rc.Config.Degrade == "local" {
			s.queue = append(s.queue, ci)
			return
		}
		c := s.p.cells[ci]
		err := fmt.Errorf("cluster: cell %s/%s [%s]: no reachable host left of %s (tried %s): %w",
			c.workload.Suite(), c.workload.Name(), c.buildType,
			strings.Join(s.rc.Config.Hosts, ", "), s.triedHosts(ci), remote.ErrUnreachable)
		s.failRun(ci, err)
		return
	}
	wi := s.pickHost(ci)
	if wi < 0 {
		s.queue = append(s.queue, ci)
		return
	}
	s.workers[wi].queue = append(s.workers[wi].queue, ci)
}

// placeable reports whether worker wi is a healthy remote worker cell ci
// has not been attempted on.
func (s *sched) placeable(wi, ci int) bool {
	w := s.workers[wi]
	return w.remote != nil && w.phase == hostHealthy && !s.attempted[ci][w.remote.host.Name()]
}

// pickHost chooses the healthy untried host with the lowest expected
// finish time for a cell: per-cell cost (duration EWMA + probe RTT EWMA,
// falling back to the fleet mean and then a neutral constant when a host
// has no history) times the host's backlog depth. Strict less-than keeps
// the lowest worker index on ties, so a fresh fleet places round-robin-
// like and deterministically. With -no-load-aware it degrades to plain
// round-robin over healthy untried hosts. Returns -1 when no healthy
// untried host exists.
func (s *sched) pickHost(ci int) int {
	if s.rc.Config.NoLoadAware {
		n := len(s.workers)
		for k := 0; k < n; k++ {
			wi := (s.rrNext + k) % n
			if s.placeable(wi, ci) {
				s.rrNext = (wi + 1) % n
				return wi
			}
		}
		return -1
	}
	fallback := s.ewmaFallback()
	best := -1
	var bestScore time.Duration
	for wi := range s.workers {
		if !s.placeable(wi, ci) {
			continue
		}
		sc := s.hostScore(wi, fallback)
		if best < 0 || sc < bestScore {
			best, bestScore = wi, sc
		}
	}
	return best
}

// hostScore is a host's expected finish time for one more cell: its
// per-cell cost EWMA times the number of cells ahead of the new one
// (queued + in flight + itself).
func (s *sched) hostScore(wi int, fallback time.Duration) time.Duration {
	w := s.workers[wi]
	per := w.cost()
	if per <= 0 {
		per = fallback
	}
	depth := len(w.queue) + 1
	if w.pl != nil {
		depth++
	}
	return per * time.Duration(depth)
}

// ewmaFallback scores hosts with no history yet: the fleet-mean per-cell
// cost, or a neutral constant when nothing has completed anywhere (which
// reduces scoring to least-loaded placement).
func (s *sched) ewmaFallback() time.Duration {
	var sum time.Duration
	n := 0
	for _, w := range s.workers {
		if per := w.cost(); w.remote != nil && per > 0 {
			sum += per
			n++
		}
	}
	if n == 0 {
		return time.Millisecond
	}
	return sum / time.Duration(n)
}

// steal picks the cell an idle remote worker should take from another
// host's backlog: the tail of the deepest queue holding a cell the thief
// has not attempted (the tail is the cell that would otherwise wait
// longest). Ascending victim scan with strict depth comparison keeps the
// choice deterministic. Reports ok=false when nothing is stealable.
func (s *sched) steal(wi int) (ci, victim int, ok bool) {
	if s.workers[wi].remote == nil {
		return 0, 0, false
	}
	name := s.workers[wi].remote.host.Name()
	bestV, bestDepth, bestIdx := -1, 0, -1
	for v, vw := range s.workers {
		if v == wi || len(vw.queue) <= bestDepth {
			continue
		}
		for k := len(vw.queue) - 1; k >= 0; k-- {
			if !s.attempted[vw.queue[k]][name] {
				bestV, bestDepth, bestIdx = v, len(vw.queue), k
				break
			}
		}
	}
	if bestV < 0 {
		return 0, 0, false
	}
	q := s.workers[bestV].queue
	ci = q[bestIdx]
	s.workers[bestV].queue = append(q[:bestIdx], q[bestIdx+1:]...)
	return ci, bestV, true
}

// drainQueue empties a faulted host's queue, re-placing each cell. The
// drained cells never launched on the host, so nothing is logged for
// them and their attempted sets are untouched.
func (s *sched) drainQueue(wi int) {
	q := s.workers[wi].queue
	s.workers[wi].queue = nil
	s.replace(q)
}

// replaceOverflow re-routes every shared-queue cell after a topology
// change (probe recovery, eviction, mid-run join): each either lands on
// a host queue, fails the run on exhaustion, or returns to the shared
// queue to keep waiting.
func (s *sched) replaceOverflow() {
	q := s.queue
	s.queue = nil
	s.replace(q)
}

// replace re-places cells until a failure stops the run.
func (s *sched) replace(cells []int) {
	for _, ci := range cells {
		if s.stop {
			return
		}
		s.place(ci)
	}
}

// maybeSpeculate runs the straggler detector: with the queues drained,
// spare idle workers, and enough completed remote cells for a meaningful
// median, a cell whose only placement has run longer than
// max(specFactor×median, specMinElapsed) on a remote worker is
// duplicated onto an idle untried host — first result wins, loser
// cancelled. Stragglers are considered in canonical cell order. When no
// straggler is due yet, a timer on the scheduler clock re-arms the check
// at the earliest future threshold crossing.
func (s *sched) maybeSpeculate() {
	s.stopSpecTimer()
	if s.stop || s.rc.Config.NoSpeculate || s.queuedTotal() > 0 ||
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
		hs.Queued = len(w.queue)
		hs.LoadEWMAMillis = float64(w.cost()) / float64(time.Millisecond)
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
		s.vrc.logf("== cluster: host %s: %s, %d cells, %d failovers, %d probes, %d spec wins, %d spec losses, %d steals",
			hs.Host, hs.State, hs.Cells, hs.Failovers, hs.Probes, hs.SpecWins, hs.SpecLosses, hs.Steals)
	}
}
