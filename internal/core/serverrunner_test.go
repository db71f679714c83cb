package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fex/internal/remote"
)

// This file pins the one-shot-state regressions of ServerBenchRunner: the
// runner struct must stay pure configuration (no calibration write-back
// between runs), a calibrated sweep must not be stored, and the
// load-generation client must live on the framework cluster (so injected
// faults apply to it) and serve one run at a time.

// registerServerBench registers a throughput-latency experiment backed by
// the given shared runner instance.
func registerServerBench(t *testing.T, fx *Fex, name string, r *ServerBenchRunner) {
	t.Helper()
	if err := fx.RegisterExperiment(&Experiment{
		Name: name,
		Kind: KindThroughputLatency,
		NewRunner: func(fx *Fex) (Runner, error) {
			return r, nil
		},
		Collect: NetCollect,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestServerRunnerRecalibratesPerRun is the regression test for the
// calibrated sweep leaking between runs through the shared runner struct
// (r.Rates = rates): the same runner instance, driven twice with a ~200x
// difference in per-request cost, must calibrate each run against the
// current server — the cheap run's sweep reaches far higher offered rates
// than the expensive one's — and must leave the struct untouched.
func TestServerRunnerRecalibratesPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("network experiment")
	}
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1", "memcached-1.4.25")
	runner := &ServerBenchRunner{
		App:           "memcached",
		RateFractions: []float64{0.5, 1.0},
		Duration:      120 * time.Millisecond,
		BaseWorkUnits: 20,
	}
	registerServerBench(t, fx, "recal", runner)
	cfg := Config{Experiment: "recal", BuildTypes: []string{"gcc_native"}}

	maxRate := func(report *RunReport) float64 {
		t.Helper()
		rates, err := report.Table.Floats("offered_rate")
		if err != nil {
			t.Fatal(err)
		}
		max := 0.0
		for _, r := range rates {
			if r > max {
				max = r
			}
		}
		return max
	}

	cheap, err := fx.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Second run of the same instance against a much slower server: a
	// runner that cached the first calibration would replay the cheap
	// sweep verbatim.
	runner.BaseWorkUnits = 4000
	expensive, err := fx.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cheapMax, expensiveMax := maxRate(cheap), maxRate(expensive)
	if expensiveMax >= cheapMax {
		t.Errorf("second run swept up to %.0f req/s, first up to %.0f: calibration leaked between runs",
			expensiveMax, cheapMax)
	}
	if len(runner.Rates) != 0 {
		t.Errorf("Run wrote the calibrated sweep onto the shared runner struct: %v", runner.Rates)
	}
}

// TestServerRunnerCalibratedSweepNotStored runs an auto-calibrated
// experiment twice. Each run measures its own rates, which join the cell
// fingerprint, so no later lookup can hit its cells: neither run may leave
// a store record, and compaction has none to keep.
func TestServerRunnerCalibratedSweepNotStored(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1", "memcached-1.4.25")
	registerServerBench(t, fx, "calibrated", &ServerBenchRunner{
		App:           "memcached",
		RateFractions: []float64{0.5, 1.0},
		Duration:      30 * time.Millisecond,
	})
	for i := 0; i < 2; i++ {
		if _, err := fx.Run(context.Background(), Config{Experiment: "calibrated", BuildTypes: []string{"gcc_native"}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fx.CompactStore(); err != nil {
		t.Fatal(err)
	}
	records, err := fx.ResultStore().Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Errorf("two auto-calibrated runs left %d store records after compaction, want 0", len(records))
	}
}

// TestServerRunnerClientOnFrameworkCluster is the regression test for the
// runner building a private throwaway cluster: the load-generation client
// must resolve through Fex.Cluster(), so a fault injected on the client
// host applies. An unreachable client1 must fail the run with the
// transport's error — the old private-cluster code never saw the fault
// and sailed through.
func TestServerRunnerClientOnFrameworkCluster(t *testing.T) {
	cluster := remote.NewCluster()
	client, err := cluster.AddHost("client1")
	if err != nil {
		t.Fatal(err)
	}
	client.SetUnreachable(true)
	fx, err := New(Options{Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	installAll(t, fx, "gcc-6.1", "memcached-1.4.25")
	registerServerBench(t, fx, "down_client", &ServerBenchRunner{
		App:      "memcached",
		Rates:    []float64{100},
		Duration: 50 * time.Millisecond,
	})
	_, err = fx.Run(context.Background(), Config{
		Experiment: "down_client",
		BuildTypes: []string{"gcc_native"},
	})
	if !errors.Is(err, remote.ErrUnreachable) {
		t.Fatalf("run with unreachable client returned %v, want remote.ErrUnreachable", err)
	}
}

// TestServerRunnerClientLatencyApplies injects per-job latency on the
// client host and checks it shapes the run: with 2 offered rates the
// sweep issues 2 remote jobs, so the run must take at least 2x the
// injected latency longer than the measurement intervals alone.
func TestServerRunnerClientLatencyApplies(t *testing.T) {
	if testing.Short() {
		t.Skip("network experiment")
	}
	cluster := remote.NewCluster()
	client, err := cluster.AddHost("client1")
	if err != nil {
		t.Fatal(err)
	}
	const latency = 150 * time.Millisecond
	client.SetLatency(latency)
	fx, err := New(Options{Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	installAll(t, fx, "gcc-6.1", "memcached-1.4.25")
	registerServerBench(t, fx, "slow_client", &ServerBenchRunner{
		App:      "memcached",
		Rates:    []float64{100, 200},
		Duration: 50 * time.Millisecond,
	})
	start := time.Now()
	report, err := fx.Run(context.Background(), Config{
		Experiment: "slow_client",
		BuildTypes: []string{"gcc_native"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*latency {
		t.Errorf("run finished in %v despite %v injected per-job latency on the client", elapsed, latency)
	}
	if report.Table.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", report.Table.NumRows())
	}
}

// TestServerRunnerConcurrentRunsOwnTheirClient runs two fixed-rate
// memcached experiments at once on one framework. Both drive the one
// loadgen command on the shared client host and drain its one log
// buffer, so each run must hold the client for its whole session: every
// run logs exactly its own three rates, in order, and exactly its own
// three client notes. A run waiting for the client must still end when
// it is cancelled.
func TestServerRunnerConcurrentRunsOwnTheirClient(t *testing.T) {
	fx, err := New(Options{Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	installAll(t, fx, "gcc-6.1", "memcached-1.4.25")
	rates := map[string][]float64{"mcA": {101, 202, 303}, "mcB": {111, 222, 333}}
	for name, r := range rates {
		registerServerBench(t, fx, name, &ServerBenchRunner{App: "memcached", Rates: r, Duration: 30 * time.Millisecond})
	}
	var wg sync.WaitGroup
	logs := map[string]string{}
	errs := map[string]error{}
	var mu sync.Mutex
	for name := range rates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			report, err := fx.Run(context.Background(), Config{Experiment: name, BuildTypes: []string{"gcc_native"}})
			var lg []byte
			if err == nil {
				lg, err = fx.ReadResult(report.LogPath)
			}
			mu.Lock()
			defer mu.Unlock()
			logs[name], errs[name] = string(lg), err
		}()
	}
	wg.Wait()
	for name, want := range rates {
		if errs[name] != nil {
			t.Errorf("%s: %v", name, errs[name])
			continue
		}
		var offered []float64
		var notes []string
		for _, line := range strings.Split(logs[name], "\n") {
			if note, ok := strings.CutPrefix(line, "NOTE|"+clientHost+": "); ok {
				notes = append(notes, note)
				continue
			}
			if !strings.HasPrefix(line, "RUN|") {
				continue
			}
			for _, f := range strings.Split(line, "|") {
				if v, ok := strings.CutPrefix(f, "offered_rate="); ok {
					rate, err := strconv.ParseFloat(v, 64)
					if err != nil {
						t.Fatalf("%s: %q: %v", name, line, err)
					}
					offered = append(offered, rate)
				}
			}
		}
		if !slices.Equal(offered, want) {
			t.Errorf("%s logged offered rates %v, want %v", name, offered, want)
		}
		if len(notes) != len(want) {
			t.Errorf("%s logged %d client notes, want %d: %q", name, len(notes), len(want), notes)
		}
		for i, note := range notes {
			if i < len(want) && !strings.Contains(note, fmt.Sprintf(" rate=%.0f ", want[i])) {
				t.Errorf("%s client note %d is not its own rate %.0f: %q", name, i, want[i], note)
			}
		}
	}

	// A run waiting for the client sees its cancellation: with the
	// client held elsewhere, cancelling the run ends it with the
	// context's error instead of leaving it blocked. Its rates are new,
	// so it cannot replay the records above without the client.
	registerServerBench(t, fx, "mcC", &ServerBenchRunner{App: "memcached", Rates: []float64{123}, Duration: 30 * time.Millisecond})
	fx.clientSlot <- struct{}{}
	defer func() { <-fx.clientSlot }()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := fx.Run(ctx, Config{Experiment: "mcC", BuildTypes: []string{"gcc_native"}})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("run ended while the client was held: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled run waiting for the client returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run still waiting for the client after 10s")
	}
}
