package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fex/internal/core"
	"fex/internal/testutil"
)

// newServeFex builds a framework on the fixed clock, so runs submitted
// through the service are byte-comparable with fresh serial runs.
func newServeFex(t *testing.T) *core.Fex {
	t.Helper()
	fx, err := core.New(core.Options{Now: testutil.Clock()})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func installAll(t *testing.T, fx *core.Fex, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, err := fx.Install(n); err != nil {
			t.Fatalf("install %s: %v", n, err)
		}
	}
}

// blockingRunner parks until the run's context is cancelled — the
// deterministic cancellation target: it never finishes on its own. A
// non-nil entered receives a value once the run reaches the runner;
// after it, the executor makes no filesystem operations until the
// cancellation.
type blockingRunner struct{ entered chan<- struct{} }

func (b blockingRunner) Run(rc *core.RunContext) error {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	<-rc.Context().Done()
	return rc.Context().Err()
}

func registerBlocking(t *testing.T, fx *core.Fex, name string) {
	t.Helper()
	registerRunner(t, fx, name, blockingRunner{})
}

func registerRunner(t *testing.T, fx *core.Fex, name string, r core.Runner) {
	t.Helper()
	if err := fx.RegisterExperiment(&core.Experiment{
		Name:         name,
		Kind:         core.KindPerformance,
		DefaultTypes: []string{"gcc_native"},
		NewRunner: func(*core.Fex) (core.Runner, error) {
			return r, nil
		},
		Collect: core.GenericCollect,
	}); err != nil {
		t.Fatal(err)
	}
}

// splashSpec is the standard real-workload submission the tests reuse:
// modeled time plus the fixed clock make its artifacts byte-deterministic.
func splashSpec(benches ...string) RunSpec {
	return RunSpec{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: benches,
		Threads:    []int{1, 2},
		Reps:       2,
		Input:      "test",
	}
}

func postRun(t *testing.T, ts *httptest.Server, spec RunSpec) RunStatus {
	t.Helper()
	st, code := tryPostRun(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /api/v1/runs = %d, want 202", code)
	}
	return st
}

func tryPostRun(t *testing.T, ts *httptest.Server, spec RunSpec) (RunStatus, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) RunStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET run %s = %d", id, resp.StatusCode)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitStatus polls until the run reaches one of the wanted statuses.
func waitStatus(t *testing.T, ts *httptest.Server, id string, want ...string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, id)
		for _, w := range want {
			if st.Status == w {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in status %q (want one of %v)", id, st.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getBody(t *testing.T, ts *httptest.Server, path string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func deleteRun(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestServeRunLifecycle walks one submission end to end: accepted with a
// run ID, executed, and its artifacts — status, streamed log, CSV — all
// consistent with the stored run-scoped copies.
func TestServeRunLifecycle(t *testing.T) {
	fx := newServeFex(t)
	installAll(t, fx, "gcc-6.1")
	s := New(fx, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := postRun(t, ts, splashSpec("fft", "lu"))
	if st.ID == "" || st.Status != StatusQueued {
		t.Fatalf("submission = %+v, want queued with an ID", st)
	}
	if !strings.Contains(st.Config, "fex run -n splash") || !strings.Contains(st.Config, "-resume") {
		t.Errorf("config line %q: missing command or forced -resume", st.Config)
	}

	final := waitStatus(t, ts, st.ID, StatusDone, StatusFailed)
	if final.Status != StatusDone {
		t.Fatalf("run settled as %s: %s", final.Status, final.Error)
	}
	if final.Artifacts == nil || final.Measurements == 0 {
		t.Fatalf("done run has no artifacts or measurements: %+v", final)
	}
	if final.Progress == nil || final.Progress.Done != final.Progress.Total || final.Progress.Total == 0 {
		t.Fatalf("done run progress %+v, want done == total > 0", final.Progress)
	}

	// The streamed log is exactly the stored run-scoped log; the default
	// (follow) stream ends on its own once the run has settled.
	gotLog := getBody(t, ts, "/api/v1/runs/"+st.ID+"/log", http.StatusOK)
	storedLog, err := fx.ReadResult(final.Artifacts.RunLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLog, storedLog) {
		t.Errorf("streamed log differs from stored run log:\n--- streamed ---\n%s\n--- stored ---\n%s", gotLog, storedLog)
	}
	gotCSV := getBody(t, ts, "/api/v1/runs/"+st.ID+"/csv", http.StatusOK)
	storedCSV, err := fx.ReadResult(final.Artifacts.RunCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, storedCSV) {
		t.Errorf("served CSV differs from stored run CSV")
	}
}

// TestServeCancelRunningRun cancels an in-flight run deterministically:
// the runner blocks until the cancellation reaches it, so the run can
// only settle as cancelled — and the next queued run still executes.
func TestServeCancelRunningRun(t *testing.T) {
	fx := newServeFex(t)
	installAll(t, fx, "gcc-6.1")
	registerBlocking(t, fx, "block")
	s := New(fx, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocked := postRun(t, ts, RunSpec{Experiment: "block"})
	follower := postRun(t, ts, splashSpec("fft"))

	waitStatus(t, ts, blocked.ID, StatusRunning)
	if code := deleteRun(t, ts, blocked.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE running run = %d, want 202", code)
	}
	st := waitStatus(t, ts, blocked.ID, StatusCancelled, StatusFailed, StatusDone)
	if st.Status != StatusCancelled {
		t.Fatalf("cancelled run settled as %s: %s", st.Status, st.Error)
	}
	// A second DELETE on a settled run is a conflict, not a crash.
	if code := deleteRun(t, ts, blocked.ID); code != http.StatusConflict {
		t.Errorf("DELETE settled run = %d, want 409", code)
	}
	// The executor moved on to the queued submission.
	if st := waitStatus(t, ts, follower.ID, StatusDone, StatusFailed); st.Status != StatusDone {
		t.Fatalf("follower settled as %s: %s", st.Status, st.Error)
	}
}

// TestServeCancelQueuedRun cancels a run that has not started: it settles
// immediately and the executor never touches it.
func TestServeCancelQueuedRun(t *testing.T) {
	fx := newServeFex(t)
	registerBlocking(t, fx, "block")
	s := New(fx, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocker := postRun(t, ts, RunSpec{Experiment: "block"})
	waitStatus(t, ts, blocker.ID, StatusRunning)
	queued := postRun(t, ts, RunSpec{Experiment: "block"})

	if code := deleteRun(t, ts, queued.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE queued run = %d, want 202", code)
	}
	if st := getStatus(t, ts, queued.ID); st.Status != StatusCancelled {
		t.Fatalf("queued run is %s after DELETE, want cancelled immediately", st.Status)
	}
	deleteRun(t, ts, blocker.ID)
	waitStatus(t, ts, blocker.ID, StatusCancelled)
}

// TestServeConcurrentOverlappingSubmissions is the service's store-sharing
// contract under -race: N clients POST overlapping configurations
// concurrently, every distinct experiment cell executes exactly once
// across all runs (later submissions replay it from the shared store),
// and every run's artifacts are byte-identical to a fresh serial run of
// the same configuration.
func TestServeConcurrentOverlappingSubmissions(t *testing.T) {
	fx := newServeFex(t)
	installAll(t, fx, "gcc-6.1")
	s := New(fx, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two configs sharing the lu cell; three submissions each. Distinct
	// cells across everything: fft, lu, radix.
	specA, specB := splashSpec("fft", "lu"), splashSpec("lu", "radix")
	specs := []RunSpec{specA, specA, specB, specB, specA, specB}
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec RunSpec) {
			defer wg.Done()
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("POST %d = %d", i, resp.StatusCode)
				return
			}
			var st RunStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Errorf("POST %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i, spec)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("submission failed")
	}

	executed := 0
	logs := make([]string, len(specs))
	for i, id := range ids {
		st := waitStatus(t, ts, id, StatusDone, StatusFailed)
		if st.Status != StatusDone {
			t.Fatalf("run %s settled as %s: %s", id, st.Status, st.Error)
		}
		if st.Progress == nil {
			t.Fatalf("run %s reported no progress", id)
		}
		executed += st.Progress.Total - st.Progress.Replayed - st.Progress.Deduped
		logs[i] = string(getBody(t, ts, "/api/v1/runs/"+id+"/log", http.StatusOK))
	}
	// Three distinct (build type, benchmark) cells exist across all six
	// submissions; the shared store must have measured each exactly once.
	if executed != 3 {
		t.Errorf("submissions executed %d cells in total, want 3 (everything else replayed)", executed)
	}

	// Byte-identity: same-config runs agree with each other and with a
	// fresh, serial, single-run framework on the same fixed clock.
	for _, group := range []struct {
		spec    RunSpec
		indices []int
	}{
		{specA, []int{0, 1, 4}},
		{specB, []int{2, 3, 5}},
	} {
		ref := serialRunLog(t, group.spec)
		for _, i := range group.indices {
			if logs[i] != ref {
				t.Errorf("run %s log differs from fresh serial run:\n--- serve ---\n%s\n--- serial ---\n%s",
					ids[i], logs[i], ref)
			}
		}
	}
}

// serialRunLog executes the spec on a fresh framework without the service
// and returns the stored log bytes.
func serialRunLog(t *testing.T, spec RunSpec) string {
	t.Helper()
	fx := newServeFex(t)
	installAll(t, fx, "gcc-6.1")
	cfg, err := spec.config(fx)
	if err != nil {
		t.Fatal(err)
	}
	report, err := fx.Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := fx.ReadResult(report.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(lg)
}

// TestServeQueueFullRejects bounds the queue: with depth 1 and the
// executor parked on a blocking run, the second pending submission is
// rejected with 503 and nothing is recorded for it.
func TestServeQueueFullRejects(t *testing.T) {
	fx := newServeFex(t)
	registerBlocking(t, fx, "block")
	s := New(fx, Options{QueueDepth: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocker := postRun(t, ts, RunSpec{Experiment: "block"})
	waitStatus(t, ts, blocker.ID, StatusRunning)
	queued := postRun(t, ts, RunSpec{Experiment: "block"}) // fills the queue

	if _, code := tryPostRun(t, ts, RunSpec{Experiment: "block"}); code != http.StatusServiceUnavailable {
		t.Fatalf("submission beyond queue depth = %d, want 503", code)
	}
	for _, id := range []string{queued.ID, blocker.ID} {
		deleteRun(t, ts, id)
		waitStatus(t, ts, id, StatusCancelled)
	}
}

// TestServeListPagination walks the run listing with a cursor: submission
// order, no duplicates, no gaps.
func TestServeListPagination(t *testing.T) {
	fx := newServeFex(t)
	registerBlocking(t, fx, "block")
	s := New(fx, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var want []string
	for i := 0; i < 5; i++ {
		want = append(want, postRun(t, ts, RunSpec{Experiment: "block"}).ID)
	}
	var got []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("cursor never terminated")
		}
		var page struct {
			Runs       []RunStatus `json:"runs"`
			NextCursor string      `json:"next_cursor"`
		}
		if err := json.Unmarshal(getBody(t, ts, "/api/v1/runs?limit=2&cursor="+cursor, http.StatusOK), &page); err != nil {
			t.Fatal(err)
		}
		for _, st := range page.Runs {
			got = append(got, st.ID)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("paginated listing = %v, want %v", got, want)
	}
	for _, id := range want {
		deleteRun(t, ts, id)
	}
}

// TestServeRejectsBadRequests pins the API's error surface: malformed
// JSON, unknown fields (the removed cluster placement switches among
// them), unknown experiments, and unknown run IDs.
func TestServeRejectsBadRequests(t *testing.T) {
	fx := newServeFex(t)
	s := New(fx, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"malformed json":     "{",
		"unknown field":      `{"experiment": "splash", "nope": 1}`,
		"removed no_steal":   `{"experiment": "splash", "hosts": ["w1"], "no_steal": true}`,
		"removed load_aware": `{"experiment": "splash", "hosts": ["w1"], "no_load_aware": true}`,
		"removed as args":    `{"args": ["-n", "splash", "-no-steal"]}`,
		"missing experiment": `{}`,
		"unknown experiment": `{"experiment": "no_such_thing"}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400", name, resp.StatusCode)
		}
	}
	getBody(t, ts, "/api/v1/runs/r-999999", http.StatusNotFound)
	getBody(t, ts, "/api/v1/runs/r-999999/log", http.StatusNotFound)
	getBody(t, ts, "/api/v1/runs/r-999999/csv", http.StatusNotFound)
	if code := deleteRun(t, ts, "r-999999"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown run = %d, want 404", code)
	}
}

// TestServeHostsAPI exercises the cluster hosts endpoints: listing starts
// empty, POST Ensures a host into the framework cluster (the mid-run join
// path of the self-healing scheduler), and bad submissions are rejected.
func TestServeHostsAPI(t *testing.T) {
	fx := newServeFex(t)
	s := New(fx, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var listing struct {
		Hosts []string `json:"hosts"`
	}
	if err := json.Unmarshal(getBody(t, ts, "/api/v1/hosts", http.StatusOK), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Hosts) != 0 {
		t.Fatalf("fresh cluster lists hosts %v, want none", listing.Hosts)
	}

	resp, err := http.Post(ts.URL+"/api/v1/hosts", "application/json", strings.NewReader(`{"host": "w9"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST host = %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Hosts) != 1 || listing.Hosts[0] != "w9" {
		t.Errorf("after POST, hosts = %v, want [w9]", listing.Hosts)
	}
	if _, err := fx.Cluster().Host("w9"); err != nil {
		t.Errorf("posted host not in framework cluster: %v", err)
	}

	for name, body := range map[string]string{
		"malformed json": "{",
		"unknown field":  `{"name": "w1"}`,
		"empty host":     `{"host": ""}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/hosts", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST host = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestServeClusterRunReportsHostCounters submits a cluster run and
// asserts the run status carries the per-host health snapshot — every
// host named, healthy, with the completed cells accounted for — and that
// the fault-tolerance knobs round-trip into the rendered config line.
func TestServeClusterRunReportsHostCounters(t *testing.T) {
	fx := newServeFex(t)
	installAll(t, fx, "gcc-6.1")
	s := New(fx, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := splashSpec("fft", "lu")
	spec.Hosts = []string{"w1", "w2"}
	spec.HostTimeoutMS = 60000
	spec.NoSpeculate = true
	st := postRun(t, ts, spec)
	for _, want := range []string{"-hosts w1,w2", "-host-timeout 1m0s", "-no-speculate"} {
		if !strings.Contains(st.Config, want) {
			t.Errorf("config %q does not render %q", st.Config, want)
		}
	}

	final := waitStatus(t, ts, st.ID, StatusDone, StatusFailed)
	if final.Status != StatusDone {
		t.Fatalf("cluster run failed: %s", final.Error)
	}
	if len(final.Hosts) != 2 {
		t.Fatalf("run status reports %d hosts, want 2: %+v", len(final.Hosts), final.Hosts)
	}
	cells := 0
	for _, h := range final.Hosts {
		if h.Host != "w1" && h.Host != "w2" {
			t.Errorf("unexpected host %q in snapshot", h.Host)
		}
		if h.State != "healthy" {
			t.Errorf("host %s state %q, want healthy", h.Host, h.State)
		}
		cells += h.Cells
	}
	if cells != 2 {
		t.Errorf("hosts completed %d cells in total, want 2", cells)
	}

	// Hosts take cells from one shared queue: the steals counter stays
	// in the JSON for earlier readers, always 0, and the removed backlog
	// and cost fields are gone.
	body := string(getBody(t, ts, "/api/v1/runs/"+st.ID, http.StatusOK))
	if !strings.Contains(body, `"steals": 0`) {
		t.Errorf("run status JSON lacks a zero steals counter:\n%s", body)
	}
	for _, key := range []string{`"queued":`, `"load_ewma_ms":`} {
		if strings.Contains(body, key) {
			t.Errorf("run status JSON carries removed host field %s:\n%s", key, body)
		}
	}
}

// TestServeSkipsRunIDsOfLoadedState restarts the service over a saved
// state, as `fex serve --state F` does after a restart: the new server's
// first run must not reuse a loaded run's ID, and the loaded run's
// artifacts must stay byte-identical.
func TestServeSkipsRunIDsOfLoadedState(t *testing.T) {
	fx := newServeFex(t)
	installAll(t, fx, "gcc-6.1")
	s := New(fx, Options{})
	ts := httptest.NewServer(s.Handler())
	first := waitStatus(t, ts, postRun(t, ts, splashSpec("fft")).ID, StatusDone, StatusFailed)
	ts.Close()
	s.Close()
	if first.Status != StatusDone {
		t.Fatalf("first run settled as %s: %s", first.Status, first.Error)
	}
	firstLog, err := fx.ReadResult(first.Artifacts.RunLog)
	if err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := fx.SaveState(&state); err != nil {
		t.Fatal(err)
	}

	next := newServeFex(t)
	if err := next.LoadState(&state); err != nil {
		t.Fatal(err)
	}
	s2 := New(next, Options{})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	st := postRun(t, ts2, splashSpec("lu"))
	if st.ID == first.ID {
		t.Fatalf("restarted service reused run ID %s", st.ID)
	}
	if final := waitStatus(t, ts2, st.ID, StatusDone, StatusFailed); final.Status != StatusDone {
		t.Fatalf("second run settled as %s: %s", final.Status, final.Error)
	}
	got, err := next.ReadResult(first.Artifacts.RunLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, firstLog) {
		t.Errorf("loaded run %s log was overwritten", first.ID)
	}
}

// submitOps is the number of filesystem operations of one Submit of a
// splash run: one RunExists probe of the next ID. It does not depend on
// how many runs a loaded state holds.
const submitOps = 1

// measureSubmitOps parks a first run in the executor, then returns the
// IDs of both submissions and the filesystem operations of the second.
func measureSubmitOps(t *testing.T, fx *core.Fex) (parkedID, id string, ops uint64) {
	t.Helper()
	entered := make(chan struct{}, 1)
	registerRunner(t, fx, "park", blockingRunner{entered: entered})
	fsys, err := fx.Container().FS()
	if err != nil {
		t.Fatal(err)
	}
	s := New(fx, Options{})
	defer s.Close()
	parked, err := s.Submit(RunSpec{Experiment: "park"})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	before := fsys.Ops()
	st, err := s.Submit(splashSpec("fft"))
	if err != nil {
		t.Fatal(err)
	}
	return parked.ID, st.ID, fsys.Ops() - before
}

// TestServeRunIDsContinueAfterLoadedHistory loads a state holding
// r-000001 … r-000040 into a fresh service: LoadState keeps the newest 32
// of them, the first submission continues at r-000041 instead of reusing
// a removed run's ID, and a Submit costs the same filesystem operations
// as on a service without a loaded state.
func TestServeRunIDsContinueAfterLoadedHistory(t *testing.T) {
	_, _, freshOps := measureSubmitOps(t, newServeFex(t))
	if freshOps != submitOps {
		t.Errorf("Submit on a fresh service made %d filesystem operations, want %d", freshOps, submitOps)
	}

	src := newServeFex(t)
	srcFS, err := src.Container().FS()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 40; n++ {
		if err := srcFS.WriteFile(fmt.Sprintf("%s/r-%06d/note", core.RunsDir, n), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var state bytes.Buffer
	if err := src.SaveState(&state); err != nil {
		t.Fatal(err)
	}

	fx := newServeFex(t)
	if err := fx.LoadState(&state); err != nil {
		t.Fatal(err)
	}
	fsys, err := fx.Container().FS()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := fsys.ReadDir(core.RunsDir)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, e := range entries {
		kept = append(kept, e.Name)
	}
	if len(kept) != 32 || kept[0] != "r-000009" || kept[31] != "r-000040" {
		t.Errorf("loaded run directories %v, want r-000009 … r-000040", kept)
	}

	parked, id, ops := measureSubmitOps(t, fx)
	if parked != "r-000041" || id != "r-000042" {
		t.Errorf("submissions after the loaded history got IDs %s and %s, want r-000041 and r-000042", parked, id)
	}
	if ops != submitOps {
		t.Errorf("Submit after loading 40 runs made %d filesystem operations, want %d", ops, submitOps)
	}
}
