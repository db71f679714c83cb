// Package serve is the experiment service in front of the core framework:
// a long-running process accepting experiment configurations over an
// HTTP/JSON API, executing them through one shared core.Fex, and exposing
// run status, streaming logs, and artifacts.
//
// The service is deliberately a thin queue over the reentrant library:
//
//   - Submissions land on a bounded queue and are executed by a single
//     executor goroutine. Experiment execution is serialized because the
//     framework's build system (CleanBuild, artifact cache) is shared
//     mutable state; concurrency lives at the HTTP layer, and overlap
//     between submissions is resolved by the result store instead — serve
//     forces Resume on every run, so cells another submission already
//     measured replay as cache hits (kernels are deterministic by
//     contract, and the merged-log determinism contract makes the replayed
//     bytes identical to a cold run's).
//   - Every run gets a collision-free artifact directory under
//     core.RunsDir, keyed by the service-assigned run ID.
//   - Cancellation is first-class: DELETE on a queued run settles it
//     immediately; on a running one it cancels the run's context, which
//     every execution tier observes between units of work.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fex/internal/core"
)

// Run statuses, in lifecycle order.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Errors the submission path reports; the HTTP layer maps them to status
// codes.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (503).
	ErrQueueFull = errors.New("serve: run queue is full")
	// ErrClosed rejects submissions after Close (503).
	ErrClosed = errors.New("serve: server is shut down")
)

// DefaultQueueDepth bounds the pending-run queue when Options.QueueDepth
// is zero.
const DefaultQueueDepth = 16

// Options configures the service.
type Options struct {
	// QueueDepth bounds the number of queued (not yet running) runs;
	// submissions beyond it are rejected with ErrQueueFull. Zero selects
	// DefaultQueueDepth.
	QueueDepth int
	// OnRunFinished, when set, is called from the executor after each run
	// settles (done, failed, or cancelled) — the CLI persists container
	// state here so completed cells survive a restart.
	OnRunFinished func(id string, err error)
}

// Server owns the run queue, the run records, and the single executor
// goroutine driving the shared framework.
type Server struct {
	fx   *core.Fex
	opts Options

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // insertion order, for stable cursor pagination
	seq    uint64
	sealed bool // no further submissions (Close started)

	queue chan *run

	baseCtx    context.Context
	baseCancel context.CancelFunc
	execDone   chan struct{}
}

// run is one submission's record. mu guards all mutable fields; cond is
// signalled on every visible change (log bytes, progress, settlement) and
// drives the streaming log endpoint.
type run struct {
	id  string
	cfg core.Config

	mu       sync.Mutex
	cond     *sync.Cond
	status   string
	progress core.ProgressEvent
	hasPlan  bool
	// hosts is the latest per-host cluster health snapshot; events other
	// than cluster ones leave it untouched, so the final state survives
	// run settlement in status responses.
	hosts   []core.HostStatus
	report  *core.RunReport
	errMsg  string
	logBuf  []byte
	settled bool

	ctx    context.Context
	cancel context.CancelFunc
}

// New starts the service over an existing framework instance. The caller
// keeps ownership of fx; Close stops the executor but leaves fx usable.
func New(fx *core.Fex, opts Options) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		fx:         fx,
		opts:       opts,
		runs:       make(map[string]*run),
		queue:      make(chan *run, opts.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		execDone:   make(chan struct{}),
	}
	go s.executor()
	return s
}

// Close seals the queue, cancels the in-flight run, and waits for the
// executor to drain. Queued runs settle as cancelled. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.sealed {
		s.mu.Unlock()
		<-s.execDone
		return
	}
	s.sealed = true
	close(s.queue)
	s.mu.Unlock()
	s.baseCancel()
	<-s.execDone
}

// Submit validates a specification, assigns a run ID, and enqueues it.
func (s *Server) Submit(spec RunSpec) (*RunStatus, error) {
	cfg, err := spec.config(s.fx)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil, ErrClosed
	}
	// Continue after the highest ID a loaded state held (its older runs'
	// directories may be gone), and skip IDs whose run directory exists.
	s.seq = max(s.seq, s.fx.LoadedRunHigh("r-"))
	for s.fx.RunExists(fmt.Sprintf("r-%06d", s.seq+1)) {
		s.seq++
	}
	id := fmt.Sprintf("r-%06d", s.seq+1)
	ctx, cancel := context.WithCancel(s.baseCtx)
	r := &run{id: id, cfg: cfg, status: StatusQueued, ctx: ctx, cancel: cancel}
	r.cond = sync.NewCond(&r.mu)
	// Snapshot before enqueueing: once queued, the executor may already
	// mark the run running, and the submission must report it queued.
	st := r.snapshot()
	select {
	case s.queue <- r:
	default:
		cancel()
		return nil, ErrQueueFull
	}
	s.seq++
	s.runs[id] = r
	s.order = append(s.order, id)
	return st, nil
}

// Cancel cancels a run: a queued run settles immediately, a running run's
// context is cancelled and it settles when the framework returns. Returns
// the post-cancel status, or false if the run is unknown or already
// settled.
func (s *Server) Cancel(id string) (*RunStatus, bool) {
	s.mu.Lock()
	r := s.runs[id]
	s.mu.Unlock()
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	if r.settled {
		r.mu.Unlock()
		return nil, false
	}
	if r.status == StatusQueued {
		// Settle now; the executor skips settled records when it drains
		// them from the queue.
		r.status = StatusCancelled
		r.errMsg = context.Canceled.Error()
		r.settled = true
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	r.cancel()
	return r.snapshot(), true
}

// Status returns one run's current status snapshot.
func (s *Server) Status(id string) (*RunStatus, bool) {
	s.mu.Lock()
	r := s.runs[id]
	s.mu.Unlock()
	if r == nil {
		return nil, false
	}
	return r.snapshot(), true
}

// List returns run statuses in submission order, starting after the
// cursor (an earlier response's NextCursor; empty starts at the oldest),
// at most limit entries. NextCursor is non-empty when more remain.
func (s *Server) List(cursor string, limit int) (statuses []*RunStatus, nextCursor string) {
	if limit <= 0 {
		limit = 50
	}
	s.mu.Lock()
	start := 0
	if cursor != "" {
		for i, id := range s.order {
			if id == cursor {
				start = i + 1
				break
			}
		}
	}
	page := make([]*run, 0, limit)
	for _, id := range s.order[start:] {
		if len(page) == limit {
			nextCursor = page[len(page)-1].id
			break
		}
		page = append(page, s.runs[id])
	}
	s.mu.Unlock()
	for _, r := range page {
		statuses = append(statuses, r.snapshot())
	}
	return statuses, nextCursor
}

// executor is the single run-execution loop: it serializes framework use
// (the build system is shared mutable state) and settles each record.
func (s *Server) executor() {
	defer close(s.execDone)
	for r := range s.queue {
		r.mu.Lock()
		if r.settled { // cancelled while queued
			r.mu.Unlock()
			s.finished(r.id, context.Canceled)
			continue
		}
		r.status = StatusRunning
		r.cond.Broadcast()
		r.mu.Unlock()

		// Same convenience as the `fex run` verb: compiler prerequisites
		// install implicitly. Runs on the executor goroutine, so the
		// shared build system is never touched concurrently.
		var report *core.RunReport
		err := s.fx.InstallPrerequisites(r.cfg.BuildTypes...)
		if err == nil {
			report, err = s.fx.RunWithHooks(r.ctx, r.cfg, core.RunHooks{
				RunID:    r.id,
				Progress: r.onProgress,
				LogSink:  (*runLogSink)(r),
			})
		}
		r.settle(report, err)
		s.finished(r.id, err)
	}
}

// finished invokes the settlement callback, if any.
func (s *Server) finished(id string, err error) {
	if s.opts.OnRunFinished != nil {
		s.opts.OnRunFinished(id, err)
	}
}

// settle records the framework's verdict: done, cancelled (the error
// unwraps to the context's), or failed.
func (r *run) settle(report *core.RunReport, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		r.status = StatusDone
		r.report = report
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.status = StatusCancelled
		r.errMsg = err.Error()
	default:
		r.status = StatusFailed
		r.errMsg = err.Error()
	}
	r.settled = true
	r.cond.Broadcast()
}

// onProgress implements core.RunHooks.Progress. Events arrive in order on
// the run's goroutine; the lock guards the record against status readers.
func (r *run) onProgress(ev core.ProgressEvent) {
	r.mu.Lock()
	if ev.Hosts != nil {
		r.hosts = ev.Hosts
	}
	// Host-state transitions ("hosts" events) refresh the snapshot above
	// without regressing the cell counters shown as run progress.
	if ev.Stage != "hosts" {
		r.progress = ev
		r.hasPlan = true
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// runLogSink adapts a run record to core.RunHooks.LogSink: the run log's
// bytes accumulate on the record as cells settle, and every append wakes
// the streaming log readers.
type runLogSink run

func (l *runLogSink) Write(p []byte) (int, error) {
	r := (*run)(l)
	r.mu.Lock()
	r.logBuf = append(r.logBuf, p...)
	r.cond.Broadcast()
	r.mu.Unlock()
	return len(p), nil
}
