package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"fex/internal/container"
	"fex/internal/core"
	"fex/internal/runlog"
	"fex/internal/store"
)

// maxProbes is about how many per-layer probe rounds one traced pass
// makes: operations are probed at a stride, so a workload of many cheap
// operations is probed across its whole window without spending it on
// probes.
const maxProbes = 40

// probeStride spreads about maxProbes probes over n operations.
func probeStride(n int) int {
	if n <= maxProbes {
		return 1
	}
	return n / maxProbes
}

// memInterval is how often a pass samples its memory.
const memInterval = 20 * time.Millisecond

// sampleMemory samples the live heap and the resident set size every
// memInterval until the returned stop function is called; stop returns
// once the sampler has exited. The live heap is what the last garbage
// collection found reachable, so its median is the memory the workload
// holds, whatever the timing of collections; the resident set also
// counts garbage not yet collected and memory not yet returned, so it
// swings with that timing.
func (p *pass) sampleMemory() (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(exited)
		tick := time.NewTicker(memInterval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				metrics.Read(live)
				if live[0].Value.Kind() == metrics.KindUint64 {
					p.heapMB = append(p.heapMB, float64(live[0].Value.Uint64())/(1<<20))
				}
				if mb, ok := residentMB(); ok {
					p.rssMB = append(p.rssMB, mb)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// residentMB reads the process's resident set size; ok is false where
// /proc is not available.
func residentMB() (float64, bool) {
	statm, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(statm))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// timed runs fn inside a span of the given layer and returns its
// duration.
func (p *pass) timed(layer, name string, fn func() error) (time.Duration, error) {
	done := p.tr.begin(laneClient, layer, name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	done()
	return d, err
}

// prober holds what the per-layer probes reuse across operations: a
// separate framework for build and execute probes, so probing never
// touches the measured framework's artifacts, and an index of stored
// fingerprints.
type prober struct {
	fx  *core.Fex
	fps map[string][]store.Fingerprint
}

func newProber() (*prober, error) {
	fx, err := newFramework()
	if err != nil {
		return nil, err
	}
	return &prober{fx: fx}, nil
}

func policyKey(experiment, reps, input string) string { return experiment + "|" + reps + "|" + input }

// fingerprints returns the stored fingerprints of cfg's cells.
func (pr *prober) fingerprints(st *store.Store, cfg core.Config) ([]store.Fingerprint, error) {
	key := policyKey(cfg.Experiment, strconv.Itoa(cfg.Reps), cfg.Input.String())
	if _, ok := pr.fps[key]; !ok {
		recs, err := st.Records()
		if err != nil {
			return nil, err
		}
		pr.fps = map[string][]store.Fingerprint{}
		for _, r := range recs {
			k := policyKey(r.Fingerprint.Experiment, r.Fingerprint.Reps, r.Fingerprint.Input)
			pr.fps[k] = append(pr.fps[k], r.Fingerprint)
		}
	}
	in := func(s string, set []string) bool {
		if len(set) == 0 {
			return true
		}
		for _, x := range set {
			if x == s {
				return true
			}
		}
		return false
	}
	var out []store.Fingerprint
	for _, fp := range pr.fps[key] {
		if in(fp.Benchmark, cfg.Benchmarks) && in(fp.BuildType, cfg.BuildTypes) {
			out = append(out, fp)
		}
	}
	return out, nil
}

// probeOptions says which layer calls the operation already makes
// itself, so their probes would only repeat it.
type probeOptions struct {
	ownSave, ownLoad bool
}

// probe measures each layer once around a finished operation: collect,
// runlog parse and validate, a store bulk read of the op's cells, a
// container clone and a store put at the current store size, state
// save and load, and a build and execute of the op's first artifact.
func (p *pass) probe(op, stride int, fx *core.Fex, cfg core.Config, report *core.RunReport, opt probeOptions) error {
	pr := p.prober
	if pr == nil || op%stride != 0 {
		return nil
	}
	done := p.tr.begin(laneClient, "fexbench", "probes")
	defer done()

	d, err := p.timed("core", "Collect", func() error { _, err := fx.Collect(cfg.Experiment); return err })
	if err != nil {
		return err
	}
	p.sample("core.collect_ms", ms(d))

	if report != nil {
		logText, err := fx.ReadResult(report.RunLogPath)
		if err != nil {
			return err
		}
		d, err = p.timed("runlog", "Parse", func() error { _, err := runlog.Parse(bytes.NewReader(logText)); return err })
		if err != nil {
			return err
		}
		p.sample("runlog.parse_ms", ms(d))
		d, err = p.timed("runlog", "ValidateText", func() error { return runlog.ValidateText(string(logText)) })
		if err != nil {
			return err
		}
		p.sample("runlog.validate_ms", ms(d))
	}

	fps, err := pr.fingerprints(fx.ResultStore(), cfg)
	if err != nil {
		return err
	}
	if len(fps) > 0 {
		d, err = p.timed("store", "BulkGet", func() error {
			res, err := fx.ResultStore().BulkGet(fps)
			for i, r := range res {
				if err == nil && !r.Present {
					err = fmt.Errorf("fexbench: stored cell %s missing", fps[i].Key())
				}
			}
			return err
		})
		if err != nil {
			return err
		}
		p.sample("store.bulkget_ms", ms(d))
	}

	if err := p.probeCloneAndPut(fx); err != nil {
		return err
	}
	if !opt.ownSave || !opt.ownLoad {
		if err := p.probeState(fx, opt); err != nil {
			return err
		}
	}
	return p.probeBuild(pr, cfg)
}

// probeCloneAndPut clones the measured container, as cluster
// provisioning does, and times a store put into the clone's store, whose
// index is as large as the measured one.
func (p *pass) probeCloneAndPut(fx *core.Fex) error {
	var clone *container.Container
	d, err := p.timed("vfs", "Container.Clone", func() (err error) {
		clone, err = fx.Container().Clone("fexbench-probe")
		return err
	})
	if err != nil {
		return fmt.Errorf("fexbench: clone probe: %w", err)
	}
	defer clone.Stop()
	p.sample("vfs.clone_ms", ms(d))
	fsys, err := clone.FS()
	if err != nil {
		return err
	}
	st := store.New(fsys, core.StoreDir)
	payload := bytes.Repeat([]byte("m|probe|wall_ns=1\n"), 128)
	fp := func(i int) store.Fingerprint {
		return store.Fingerprint{Experiment: "fexbench-probe", Suite: "probe", Benchmark: strconv.Itoa(i),
			BuildType: "gcc_native", Threads: []int{1}, Reps: "1", Input: "test", Tool: "time", ConfigHash: "probe"}
	}
	if err := st.Put(fp(0), payload); err != nil { // loads the index
		return err
	}
	d, err = p.timed("store", "Put", func() error { return st.Put(fp(1), payload) })
	if err != nil {
		return err
	}
	p.sample("store.put_us", float64(d)/float64(time.Microsecond))
	return nil
}

// probeState times saving the measured state and loading it into a
// fresh framework, for operations that do not save or load themselves.
func (p *pass) probeState(fx *core.Fex, opt probeOptions) error {
	var buf bytes.Buffer
	d, err := p.timed("vfs", "SaveState", func() error { return fx.SaveState(&buf) })
	if err != nil {
		return err
	}
	if !opt.ownSave {
		p.sample("vfs.save_ms", ms(d))
	}
	if opt.ownLoad {
		return nil
	}
	fresh, err := newFramework()
	if err != nil {
		return err
	}
	d, err = p.timed("vfs", "LoadState", func() error { return fresh.LoadState(&buf) })
	if err != nil {
		return err
	}
	p.sample("vfs.load_ms", ms(d))
	return nil
}

// probeBuild builds the op's first artifact after a clean build on the
// probe framework, then executes it once uncached and once from the
// memo.
func (p *pass) probeBuild(pr *prober, cfg core.Config) error {
	bench := ""
	if len(cfg.Benchmarks) > 0 {
		bench = cfg.Benchmarks[0]
	} else {
		ws, err := pr.fx.Registry().Suite(cfg.Experiment)
		if err != nil {
			return err
		}
		bench = ws[0].Name()
	}
	w, err := pr.fx.Registry().Lookup(cfg.Experiment, bench)
	if err != nil {
		return err
	}
	bld := pr.fx.BuildSystem()
	if err := bld.CleanBuild(); err != nil {
		return err
	}
	d, err := p.timed("buildsys", "Build", func() error { _, err := bld.Build(w, cfg.BuildTypes[0], false); return err })
	if err != nil {
		return err
	}
	p.sample("buildsys.build_ms", ms(d))
	a := bld.Cached(w, cfg.BuildTypes[0], false)
	in := w.DefaultInput(cfg.Input)
	d, err = p.timed("toolchain", "ExecuteUncached", func() error { _, err := a.ExecuteUncached(in, 1); return err })
	if err != nil {
		return err
	}
	p.sample("toolchain.execute_miss_ms", ms(d))
	if _, err := a.Execute(in, 1); err != nil { // fills the memo
		return err
	}
	d, err = p.timed("toolchain", "Execute", func() error { _, err := a.Execute(in, 1); return err })
	if err != nil {
		return err
	}
	p.sample("toolchain.execute_hit_us", float64(d)/float64(time.Microsecond))
	return nil
}

// kernelExecs sums the memo sizes of the framework's cached artifacts
// for the given configs' cells: each memo entry is one physical kernel
// execution.
func kernelExecs(fx *core.Fex, cfgs []core.Config) (int64, error) {
	seen := map[string]bool{}
	var n int64
	for _, cfg := range cfgs {
		ws, err := fx.Registry().Suite(cfg.Experiment)
		if err != nil {
			return 0, err
		}
		for _, w := range ws {
			if len(cfg.Benchmarks) > 0 && !contains(cfg.Benchmarks, w.Name()) {
				continue
			}
			for _, bt := range cfg.BuildTypes {
				key := w.Suite() + "/" + w.Name() + "/" + bt
				if seen[key] {
					continue
				}
				seen[key] = true
				if a := fx.BuildSystem().Cached(w, bt, false); a != nil {
					n += int64(a.MemoLen())
				}
			}
		}
	}
	return n, nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// stateBytes is the size of the framework's saved state.
func stateBytes(fx *core.Fex) (int64, error) {
	var n countingWriter
	err := fx.SaveState(&n)
	return int64(n), err
}

type countingWriter int64

func (c *countingWriter) Write(b []byte) (int, error) {
	*c += countingWriter(len(b))
	return len(b), nil
}

// storeCounts adds the store's exact footprint counters.
func (p *pass) storeCounts(fx *core.Fex) error {
	st, err := fx.ResultStore().Stats()
	if err != nil {
		return err
	}
	p.count("store.records", int64(st.Records))
	p.count("store.bytes", st.Bytes)
	return nil
}

// remoteCounts adds a cluster Run's final per-host counters.
func (p *pass) remoteCounts(hosts []core.HostStatus) {
	for _, h := range hosts {
		prefix := "remote." + strings.ReplaceAll(h.Host, ".", "_") + "."
		p.count(prefix+"cells", int64(h.Cells))
		p.count(prefix+"failovers", int64(h.Failovers))
		p.count(prefix+"steals", int64(h.Steals))
		p.count(prefix+"spec_wins", int64(h.SpecWins))
		p.count(prefix+"spec_losses", int64(h.SpecLosses))
		p.count("remote.settled", int64(h.Cells))
		p.count("remote.launched", int64(h.Cells+h.Failovers+h.SpecLosses))
	}
}
