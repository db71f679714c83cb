package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"time"

	"fex/internal/core"
	"fex/internal/workload"
)

// RunSpec is the submission body of POST /api/v1/runs. Args carries the
// run's flags exactly as `fex run` takes them, read through core's flag
// table; a run status's "args" resubmits verbatim. The named fields are
// the older JSON shorthand for a subset of those flags, kept frozen for
// existing clients. A spec uses one form or the other.
type RunSpec struct {
	Args []string `json:"args,omitempty"`

	Experiment string   `json:"experiment"`
	BuildTypes []string `json:"build_types,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Threads    []int    `json:"threads,omitempty"`
	Reps       int      `json:"reps,omitempty"`
	Input      string   `json:"input,omitempty"`
	Tool       string   `json:"tool,omitempty"`
	Jobs       int      `json:"jobs,omitempty"`
	Hosts      []string `json:"hosts,omitempty"`
	// HostTimeoutMS bounds each remote cell placement in milliseconds; a
	// placement exceeding it fails over and the host enters probation.
	HostTimeoutMS int `json:"host_timeout_ms,omitempty"`
	// NoSpeculate disables speculative straggler re-execution.
	NoSpeculate bool `json:"no_speculate,omitempty"`
	// NoSteal disables work-stealing by idle cluster workers.
	NoSteal bool `json:"no_steal,omitempty"`
	// NoLoadAware disables latency-weighted placement (falls back to
	// round-robin).
	NoLoadAware bool `json:"no_load_aware,omitempty"`
	// Degrade selects the no-healthy-host policy: "" fails the run,
	// "local" executes queued cells on the coordinator.
	Degrade   string `json:"degrade,omitempty"`
	Debug     bool   `json:"debug,omitempty"`
	Verbose   bool   `json:"verbose,omitempty"`
	NoBuild   bool   `json:"no_build,omitempty"`
	ModelTime bool   `json:"modeled_time,omitempty"`
}

// config validates the specification against the framework and produces
// the run's Config. Resume is forced on: the service's submissions share
// one result store, so any cell an earlier run already measured replays
// as a cache hit instead of re-executing — by the determinism contract
// the replayed bytes are identical to a cold run's.
func (spec RunSpec) config(fx *core.Fex) (core.Config, error) {
	cfg, err := spec.parse()
	if err != nil {
		return cfg, err
	}
	cfg.Resume = true
	cfg, _, err = fx.ResolveConfig(cfg)
	return cfg, err
}

// parse reads whichever form the spec uses into a Config. Args must
// leave nothing over: a flag the table does not know is an error, not
// something to ignore.
func (spec RunSpec) parse() (core.Config, error) {
	fields := spec
	fields.Args = nil
	if spec.Args == nil {
		return fields.fieldConfig()
	}
	if !reflect.ValueOf(fields).IsZero() {
		return core.Config{}, errors.New("serve: run spec sets both args and named fields (use one form)")
	}
	cfg, rest, err := core.ParseArgs(spec.Args)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("serve: run spec args: unexpected %q", rest[0])
	}
	return cfg, err
}

// fieldConfig maps the named-field shorthand onto a Config.
func (spec RunSpec) fieldConfig() (core.Config, error) {
	cfg := core.Config{
		Experiment:  spec.Experiment,
		BuildTypes:  spec.BuildTypes,
		Benchmarks:  spec.Benchmarks,
		Threads:     spec.Threads,
		Reps:        spec.Reps,
		Tool:        spec.Tool,
		Jobs:        spec.Jobs,
		Hosts:       spec.Hosts,
		HostTimeout: time.Duration(spec.HostTimeoutMS) * time.Millisecond,
		NoSpeculate: spec.NoSpeculate,
		NoSteal:     spec.NoSteal,
		NoLoadAware: spec.NoLoadAware,
		Degrade:     spec.Degrade,
		Debug:       spec.Debug,
		Verbose:     spec.Verbose,
		NoBuild:     spec.NoBuild,
		ModelTime:   spec.ModelTime,
	}
	var err error
	cfg.Input, err = workload.ParseSizeClass(spec.Input)
	return cfg, err
}

// Progress is the JSON rendering of the latest core.ProgressEvent.
type Progress struct {
	Stage    string `json:"stage"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Replayed int    `json:"replayed"`
	Deduped  int    `json:"deduped"`
}

// Artifacts locates a finished run's outputs inside the container FS.
type Artifacts struct {
	Log    string `json:"log"`
	CSV    string `json:"csv"`
	RunLog string `json:"run_log"`
	RunCSV string `json:"run_csv"`
}

// RunStatus is one run's status snapshot — the GET /api/v1/runs/{id}
// response body and the listing's element type.
type RunStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Config is the equivalent fex command line (reproducibility).
	Config string `json:"config"`
	// Args is the run's flags as `fex run` takes them; POSTing them back
	// as {"args": [...]} resubmits the same run.
	Args     []string  `json:"args"`
	Progress *Progress `json:"progress,omitempty"`
	// Hosts carries per-host cluster health and counters (cells
	// completed, failovers, probes, speculation outcomes); only present
	// for cluster runs, and kept current as the scheduler's state machine
	// transitions.
	Hosts        []core.HostStatus `json:"hosts,omitempty"`
	Error        string            `json:"error,omitempty"`
	Measurements int               `json:"measurements,omitempty"`
	Artifacts    *Artifacts        `json:"artifacts,omitempty"`
}

// snapshot renders the record's current state under its lock.
func (r *run) snapshot() *RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &RunStatus{
		ID:     r.id,
		Status: r.status,
		Config: r.cfg.String(),
		Args:   r.cfg.Args(),
		Hosts:  r.hosts,
		Error:  r.errMsg,
	}
	if r.hasPlan {
		st.Progress = &Progress{
			Stage:    r.progress.Stage,
			Done:     r.progress.Done,
			Total:    r.progress.Total,
			Replayed: r.progress.Replayed,
			Deduped:  r.progress.Deduped,
		}
	}
	if r.report != nil {
		st.Measurements = r.report.Measurements
		st.Artifacts = &Artifacts{
			Log:    r.report.LogPath,
			CSV:    r.report.CSVPath,
			RunLog: r.report.RunLogPath,
			RunCSV: r.report.RunCSVPath,
		}
	}
	return st
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/runs", s.handleList)
	mux.HandleFunc("GET /api/v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /api/v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/runs/{id}/log", s.handleLog)
	mux.HandleFunc("GET /api/v1/runs/{id}/csv", s.handleCSV)
	mux.HandleFunc("GET /api/v1/hosts", s.handleHosts)
	mux.HandleFunc("POST /api/v1/hosts", s.handleAddHost)
	return mux
}

// handleHosts lists the framework cluster's host names.
func (s *Server) handleHosts(w http.ResponseWriter, req *http.Request) {
	hosts := s.fx.Cluster().Hosts()
	if hosts == nil {
		hosts = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"hosts": hosts})
}

// handleAddHost Ensures a host into the framework cluster. A cluster run
// in flight observes the join through its subscription and admits the
// host mid-run, so it absorbs queued cells immediately.
func (s *Server) handleAddHost(w http.ResponseWriter, req *http.Request) {
	var body struct {
		Host string `json:"host"`
	}
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode host spec: %w", err))
		return
	}
	if body.Host == "" {
		writeError(w, http.StatusBadRequest, errors.New("host spec requires a host name"))
		return
	}
	if _, err := s.fx.Cluster().Ensure(body.Host); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"hosts": s.fx.Cluster().Hosts()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec RunSpec
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode run spec: %w", err))
		return
	}
	st, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	limit := 0
	if v := req.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	statuses, next := s.List(req.URL.Query().Get("cursor"), limit)
	if statuses == nil {
		statuses = []*RunStatus{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"runs":        statuses,
		"next_cursor": next,
	})
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	st, ok := s.Status(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	st, ok := s.Cancel(id)
	if !ok {
		if st, found := s.Status(id); found {
			// Known but already settled: cancellation is a no-op conflict.
			writeJSON(w, http.StatusConflict, st)
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleLog streams the run log: the bytes already produced immediately,
// then — unless ?follow=0 — each cell's records as they settle, until the
// run finishes or the client disconnects. The stream observes exactly the
// bytes of the stored log, in order.
func (s *Server) handleLog(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	r := s.runs[req.PathValue("id")]
	s.mu.Unlock()
	if r == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	follow := req.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	flusher, _ := w.(http.Flusher)

	// A departing client must not leave this handler parked on the cond.
	stop := context.AfterFunc(req.Context(), func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stop()

	off := 0
	r.mu.Lock()
	for {
		for off < len(r.logBuf) {
			chunk := r.logBuf[off:]
			off = len(r.logBuf)
			r.mu.Unlock()
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			r.mu.Lock()
		}
		if !follow || r.settled || req.Context().Err() != nil {
			break
		}
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// handleCSV serves a finished run's collected CSV from its run-scoped
// artifact path.
func (s *Server) handleCSV(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	r := s.runs[req.PathValue("id")]
	s.mu.Unlock()
	if r == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	r.mu.Lock()
	report := r.report
	status := r.status
	r.mu.Unlock()
	if report == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("run %s has no artifacts (status %s)", r.id, status))
		return
	}
	data, err := s.fx.ReadResult(report.RunCSVPath)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	_, _ = w.Write(data)
}
