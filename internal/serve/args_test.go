package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServeArgsFormResubmitsVerbatim submits a run in the args form with
// the flags the named-field shorthand cannot carry, checks the status
// line renders every one of them, and resubmits the finished run's
// status args: the second run must replay every cell, execute none, and
// serve a byte-identical CSV.
func TestServeArgsFormResubmitsVerbatim(t *testing.T) {
	fx := newServeFex(t)
	installAll(t, fx, "gcc-6.1")
	s := New(fx, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := postRun(t, ts, RunSpec{Args: []string{
		"-n", "splash", "-t", "gcc_native", "-b", "fft", "-i", "test",
		"-r", "3", "-no-memo", "-no-dedup",
	}})
	for _, want := range []string{"-n splash", "-t gcc_native", "-b fft", "-i test",
		"-r 3", "-no-memo", "-no-dedup", "-resume"} {
		if !strings.Contains(first.Config, want) {
			t.Errorf("config line %q does not render %q", first.Config, want)
		}
	}
	done := waitStatus(t, ts, first.ID, StatusDone, StatusFailed)
	if done.Status != StatusDone {
		t.Fatalf("args-form run settled as %s: %s", done.Status, done.Error)
	}
	if p := done.Progress; p == nil || p.Total == 0 || p.Replayed != 0 {
		t.Fatalf("first run progress %+v, want every cell executed cold", p)
	}

	second := postRun(t, ts, RunSpec{Args: done.Args})
	if second.Config != first.Config {
		t.Errorf("resubmitted config line %q, want %q", second.Config, first.Config)
	}
	again := waitStatus(t, ts, second.ID, StatusDone, StatusFailed)
	if again.Status != StatusDone {
		t.Fatalf("resubmitted run settled as %s: %s", again.Status, again.Error)
	}
	if p := again.Progress; p == nil || p.Total == 0 || p.Replayed != p.Total {
		t.Errorf("resubmitted run progress %+v, want every cell replayed and none executed", p)
	}
	csv1 := getBody(t, ts, "/api/v1/runs/"+first.ID+"/csv", http.StatusOK)
	csv2 := getBody(t, ts, "/api/v1/runs/"+second.ID+"/csv", http.StatusOK)
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("resubmitted run's CSV differs:\n--- first ---\n%s\n--- resubmitted ---\n%s", csv1, csv2)
	}
}

// TestServeArgsFormRejects pins the args form's 400s: both forms in one
// spec, and anything the flag table leaves over.
func TestServeArgsFormRejects(t *testing.T) {
	fx := newServeFex(t)
	s := New(fx, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"both forms":       `{"experiment": "splash", "args": ["-n", "splash"]}`,
		"unknown flag":     `{"args": ["-n", "splash", "-o", "out"]}`,
		"stray positional": `{"args": ["-n", "splash", "gcc_native"]}`,
		"missing value":    `{"args": ["-n", "splash", "-jobs"]}`,
		"empty args":       `{"args": []}`,
		"uncarriable host": `{"experiment": "splash", "hosts": ["a,b"]}`,
		"retired -r auto":  `{"args": ["-n", "splash", "-r", "auto"]}`,
		"retired flag":     `{"args": ["-n", "splash", "--modeled-time"]}`,
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
}
