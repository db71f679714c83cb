package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fex/internal/apps/httpd"
	"fex/internal/apps/kvcache"
	"fex/internal/apps/loadgen"
	"fex/internal/measure"
	"fex/internal/remote"
	"fex/internal/runlog"
	"fex/internal/toolchain"
	"fex/internal/workload"
)

// clientHost names the remote client machine the load generator runs on
// (§IV-B: "start a client on a separate machine via SSH"). It is resolved
// through the framework cluster, so tests that inject a pre-built cluster
// can pre-register it with latency or reachability faults.
const clientHost = "client1"

// ServerBenchRunner is the throughput–latency runner for the standalone
// applications (§IV-B): it pre-configures the server side, starts a load
// generator on a remote client host, waits for the sweep to finish, and
// fetches the client logs — the shape of the paper's Nginx run.py.
//
// The runner struct is pure configuration: Run never writes to it, so one
// instance can back any number of Runs (a registered experiment's runner,
// a long-running service) without leaking one run's calibration into the
// next.
type ServerBenchRunner struct {
	// App selects the server application ("nginx", "apache", "memcached").
	App string
	// Rates is the offered-rate sweep (requests/second). Leave empty to
	// auto-calibrate: the runner probes the server's capacity closed-loop
	// and sweeps fractions of it, so the saturation knee is visible on any
	// host. Calibration is per-Run state — each Run re-probes.
	Rates []float64
	// RateFractions are the capacity fractions swept when Rates is empty.
	RateFractions []float64
	// Duration is the measurement interval per rate.
	Duration time.Duration
	// Workers is the server worker count.
	Workers int
	// BaseWorkUnits calibrates per-request CPU work for the baseline
	// build type; other types scale it by their modeled codegen cost.
	BaseWorkUnits int
}

func (r *ServerBenchRunner) defaults() {
	if len(r.RateFractions) == 0 {
		r.RateFractions = []float64{0.2, 0.4, 0.6, 0.8, 0.95, 1.1}
	}
	if r.Duration <= 0 {
		r.Duration = 400 * time.Millisecond
	}
	if r.Workers <= 0 {
		r.Workers = 4
	}
	if r.BaseWorkUnits <= 0 {
		r.BaseWorkUnits = 150
	}
}

// costFactorOf probes a build type's relative codegen cost: the ratio of
// modeled cycles for the app workload under this artifact versus the GCC
// native baseline.
func costFactorOf(artifact *toolchain.Artifact, w workload.Workload) (float64, error) {
	counters, err := w.Run(w.DefaultInput(workload.SizeTest), 1)
	if err != nil {
		return 0, err
	}
	got, err := measure.Model(counters, artifact.Cost, 1)
	if err != nil {
		return 0, err
	}
	base, err := measure.Model(counters, measure.Baseline(), 1)
	if err != nil {
		return 0, err
	}
	if base.Cycles == 0 {
		return 0, errors.New("core: zero baseline cycles")
	}
	return got.Cycles / base.Cycles, nil
}

// Run implements Runner: one cell per (app, build type) through
// runExperiment. The offered rates, the measurement interval, the worker
// count and the per-request work all join the cell fingerprint, so
// -resume replays a fixed-rate sweep only while none of them changed; an
// auto-calibrated sweep, whose rates every run measures anew, is not stored.
func (r *ServerBenchRunner) Run(rc *RunContext) error {
	sr := *r // Run never writes the runner struct
	sr.defaults()
	appW, err := rc.Fex.registry.Lookup(appSuite, sr.App)
	if err != nil {
		return err
	}
	rates := sr.Rates
	if len(rates) == 0 {
		// Calibrate once per Run, before planning. Calibrating runs the
		// server, so its sources must be installed.
		if err := requireSources(rc, []workload.Workload{appW}); err != nil {
			return err
		}
		if rates, err = sr.calibrateRates(rc, appW); err != nil {
			return fmt.Errorf("%s [%s]: %w", sr.App, rc.Config.BuildTypes[0], err)
		}
	}
	dims := fmt.Sprintf("rates=%v;duration=%v;workers=%d;work=%d", rates, sr.Duration, sr.Workers, sr.BaseWorkUnits)
	// Cells measure live latency, and two servers must never be measured
	// at once: they run one at a time on the coordinator, whatever -jobs
	// and -hosts say.
	serial := rc.child(rc.Log, rc.Verbose)
	serial.Config.Jobs, serial.Config.Hosts = 1, nil
	serial.ephemeral = len(sr.Rates) == 0
	return runExperiment(serial, []workload.Workload{appW}, dims, noPerType, func(crc *RunContext, c cell) error {
		if err := sr.runCell(crc, c, rates); err != nil {
			return fmt.Errorf("%s [%s]: %w", sr.App, c.buildType, err)
		}
		return nil
	})
}

// holdClient waits for the framework's load-generation client and
// returns the function that releases it, or the run's context error if
// the run is cancelled while another run holds the client.
func (rc *RunContext) holdClient() (release func(), err error) {
	select {
	case rc.Fex.clientSlot <- struct{}{}:
		return func() { <-rc.Fex.clientSlot }, nil
	case <-rc.Context().Done():
		return nil, rc.Context().Err()
	}
}

// calibrateRates estimates the capacity of the run's first build type's
// server with a short closed-loop burst (offered load far above capacity,
// in-flight bounded near the worker count) and returns RateFractions of
// it: both curves of the figure share one x-axis sweep.
func (r *ServerBenchRunner) calibrateRates(rc *RunContext, appW workload.Workload) ([]float64, error) {
	release, err := rc.holdClient()
	if err != nil {
		return nil, err
	}
	defer release()
	target, stop, err := r.startServer(rc, appW, rc.Config.BuildTypes[0])
	if err != nil {
		return nil, err
	}
	defer stop()
	res, err := loadgen.Run(rc.Context(), loadgen.Config{
		Rate:        1e6,
		Duration:    r.Duration,
		MaxInFlight: r.Workers * 4,
		Do:          target,
	})
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	if res.Throughput <= 0 {
		return nil, errors.New("calibrate: server completed no requests")
	}
	rc.logf("== %s [%s] calibrated capacity %.0f req/s", r.App, rc.Config.BuildTypes[0], res.Throughput)
	rates := make([]float64, len(r.RateFractions))
	for i, f := range r.RateFractions {
		rates[i] = res.Throughput * f
	}
	return rates, nil
}

// runCell measures one build type's sweep: it starts the server, drives
// the offered rates from the remote client, writes one record per rate,
// and fetches the client logs, as run.py does after the experiment. It
// holds the framework's client session throughout, so a concurrent run's
// jobs and client notes never mix with its own.
func (r *ServerBenchRunner) runCell(rc *RunContext, c cell, rates []float64) error {
	release, err := rc.holdClient()
	if err != nil {
		return err
	}
	defer release()
	// The remote client machine (§IV-B: "start a client on a separate
	// machine via SSH") — resolved through the framework cluster, per the
	// Options.Cluster contract: an injected cluster's latency and
	// reachability faults apply to the load-generation client too.
	client, err := rc.Fex.Cluster().Ensure(clientHost)
	if err != nil {
		return err
	}
	target, stop, err := r.startServer(rc, c.workload, c.buildType)
	if err != nil {
		return err
	}
	defer stop()
	results, err := r.driveFromClient(rc.Context(), client, c.buildType, target, rates)
	if err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	for i, res := range results {
		rc.Log.WriteMeasurement(runlog.Measurement{
			Suite:     appSuite,
			Benchmark: r.App,
			BuildType: c.buildType,
			Threads:   r.Workers,
			Rep:       i,
			Values: measure.FromMap(map[string]float64{
				"offered_rate": res.OfferedRate, "throughput": res.Throughput,
				"latency_ms": ms(res.Mean), "p50_ms": ms(res.P50), "p95_ms": ms(res.P95), "p99_ms": ms(res.P99),
				"completed": float64(res.Completed), "errors": float64(res.Errors), "dropped": float64(res.Dropped),
			}),
		})
	}
	for _, lg := range client.FetchLogs() {
		rc.Log.WriteNote(clientHost + ": " + lg)
	}
	return nil
}

// startServer builds the application for one build type and starts its
// server, scaling the per-request work by the type's codegen cost. It
// returns the load generator's target and a function that stops the
// server.
func (r *ServerBenchRunner) startServer(rc *RunContext, appW workload.Workload, buildType string) (func(context.Context) error, func(), error) {
	artifact, err := rc.Artifact(appW, buildType, rc.Config.Debug)
	if err != nil {
		return nil, nil, err
	}
	factor, err := costFactorOf(artifact, appW)
	if err != nil {
		return nil, nil, err
	}
	workUnits := max(int(float64(r.BaseWorkUnits)*factor+0.5), 1)
	rc.logf("== %s [%s] workUnits=%d (cost factor %.3f)", r.App, buildType, workUnits, factor)
	var srv interface{ Stop(context.Context) error }
	closePool := func() {}
	stop := func() {
		closePool()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Stop(ctx)
	}
	switch r.App {
	case "nginx", "apache":
		model := httpd.ModelEventWorkers
		if r.App == "apache" {
			model = httpd.ModelPerConnection
		}
		h, err := httpd.Start(httpd.Config{Pages: httpd.StaticSite(), WorkUnits: workUnits, Workers: r.Workers, Model: model})
		if err != nil {
			return nil, nil, err
		}
		srv = h
		return loadgen.HTTPTarget(h.URL() + "/index.html"), stop, nil
	case "memcached":
		kv, err := kvcache.Start(kvcache.Config{WorkUnits: workUnits, Shards: r.Workers})
		if err != nil {
			return nil, nil, err
		}
		srv = kv
		target, closeKV, err := loadgen.KVTarget(kv.Addr(), "bench-key", 1024)
		if err != nil {
			stop()
			return nil, nil, err
		}
		closePool = closeKV
		return target, stop, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown server application %q", r.App)
	}
}

// driveFromClient registers and invokes the loadgen command on the remote
// host, one job per offered rate, and returns the results in rate order.
func (r *ServerBenchRunner) driveFromClient(ctx context.Context, client *remote.Host, buildType string, target func(context.Context) error, rates []float64) ([]loadgen.Result, error) {
	results := make([]loadgen.Result, 0, len(rates))
	err := client.RegisterCommand("loadgen", func(ctx context.Context, job remote.Job) (remote.Output, error) {
		var rate float64
		if _, err := fmt.Sscanf(job.Args["rate"], "%f", &rate); err != nil {
			return remote.Output{}, fmt.Errorf("bad rate %q: %w", job.Args["rate"], err)
		}
		res, err := loadgen.Run(ctx, loadgen.Config{
			Rate:     rate,
			Duration: r.Duration,
			Do:       target,
		})
		if err != nil {
			return remote.Output{}, err
		}
		results = append(results, res)
		return remote.Output{
			Log: fmt.Sprintf("[%s] rate=%.0f tput=%.0f lat=%.3fms completed=%d errors=%d",
				buildType, rate, res.Throughput, res.Mean.Seconds()*1000, res.Completed, res.Errors),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// Tear the session down when the sweep ends: the handler closure
	// captures this sweep's target and results, which must not outlive it
	// on the long-lived (possibly injected) cluster host.
	defer client.UnregisterCommand("loadgen")
	for _, rate := range rates {
		if _, err := client.Run(ctx, remote.Job{
			Command: "loadgen",
			Args:    map[string]string{"rate": fmt.Sprintf("%f", rate)},
		}); err != nil {
			return nil, err
		}
	}
	return results, nil
}
