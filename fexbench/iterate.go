package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"fex/internal/core"
	"fex/internal/vfs"
)

// Sizes of warm-iterate: the history sweeps historyPolicies repetition
// policies over three suites at the test input (3840 stored cells, a
// state of about 34 MB), and one iteration in every newEvery adds a new
// policy. A block of newEvery iterations takes about iterateBlock on the
// reference machine; a run makes whole blocks.
const (
	historyPolicies = 40
	newEvery        = 21
	iterateBlock    = 4600 * time.Millisecond
	// countedOps is how many leading operations the exact counters cover.
	countedOps = 10
)

// iterateWorkload is the CLI edit-and-rerun loop on a long-lived state
// file: each operation is one invocation that constructs a framework,
// loads the state, runs serially with -resume and saves the state. The
// state file is kept in memory so disk noise stays out of the timings.
type iterateWorkload struct {
	seed    int64
	history []core.Config
	state   []byte
}

var iterateSuites = []string{"splash", "parsec", "phoenix"}

func newWarmIterate(seed int64) *iterateWorkload {
	r := rand.New(rand.NewSource(seed))
	return &iterateWorkload{seed: seed, history: policyCampaign(r, iterateSuites, historyPolicies)}
}

// setup builds the history state anew.
func (w *iterateWorkload) setup() error {
	w.state = nil
	state, err := w.historyState()
	w.state = state
	return err
}

// historyState runs the history campaign on a fresh framework and
// returns the state it leaves.
func (w *iterateWorkload) historyState() ([]byte, error) {
	fx, err := newFramework()
	if err != nil {
		return nil, err
	}
	for _, cfg := range w.history {
		cfg.Jobs = 2
		if _, err := fx.Run(context.Background(), cfg); err != nil {
			return nil, fmt.Errorf("fexbench: history run %s: %w", cfg.String(), err)
		}
	}
	var buf bytes.Buffer
	if err := fx.SaveState(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (w *iterateWorkload) close() { w.state = nil }

func (w *iterateWorkload) measure(p *pass) error {
	stream := iterateStream(rand.New(rand.NewSource(w.seed+1)), w.history, newEvery*units(p.window, iterateBlock), newEvery)
	for i := range stream {
		if err := w.iterate(p, i, stream[i]); err != nil {
			return err
		}
		// Building a spare history after every block spreads the set-up
		// samples over the run: three taken back to back spread by a
		// quarter between runs.
		if (i+1)%newEvery == 0 {
			if err := p.timeSetupFunc(func() error { _, err := w.historyState(); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}

// iterate is one CLI-shaped invocation.
func (w *iterateWorkload) iterate(p *pass, i int, cfg core.Config) error {
	p.attempted++
	done := p.tr.begin(laneClient, "fexbench", "iterate")
	start := time.Now()
	var (
		fx                  *core.Fex
		report              *core.RunReport
		obs                 *runObservation
		loadD, saveD        time.Duration
		opsBefore, opsAfter uint64
		next                bytes.Buffer
		err                 error
	)
	_, err = p.timed("core", "New", func() (err error) {
		fx, err = core.New(core.Options{Now: func() time.Time { return startedAt }})
		return
	})
	var fsys *vfs.FS
	if err == nil {
		fsys, err = fx.Container().FS()
	}
	if err == nil {
		opsBefore = fsys.Ops()
		loadD, err = p.timed("vfs", "LoadState", func() error { return fx.LoadState(bytes.NewReader(w.state)) })
		if err == nil {
			err = fx.InstallPrerequisites(cfg.BuildTypes...)
		}
		if err == nil {
			report, obs, err = p.run(fx, cfg, "")
		}
		if err == nil {
			saveD, err = p.timed("vfs", "SaveState", func() error { return fx.SaveState(&next) })
		}
		opsAfter = fsys.Ops()
	}
	latency := time.Since(start)
	done()
	if err != nil {
		p.fail("iterate %d (%s): %v", i, cfg.String(), err)
		return nil
	}
	w.state = next.Bytes()
	p.opDone(latency, obs.plan.Total)
	p.unitDone(obs.plan.Total, latency)
	p.sample("vfs.load_ms", ms(loadD))
	p.sample("vfs.save_ms", ms(saveD))
	if i < countedOps {
		if err := w.count(p, fx, cfg, report, obs, opsAfter-opsBefore, i == countedOps-1); err != nil {
			return err
		}
	}
	csv, err := fx.ReadResult(report.RunCSVPath)
	if err != nil {
		return err
	}
	p.checks = append(p.checks, check{op: fmt.Sprintf("iterate %d", i), cfg: cfg, csv: csv})
	return p.probe(i, 1, fx, cfg, report, probeOptions{ownSave: true, ownLoad: true})
}

func (w *iterateWorkload) count(p *pass, fx *core.Fex, cfg core.Config, report *core.RunReport, obs *runObservation, ops uint64, last bool) error {
	if !p.counting {
		return nil
	}
	p.count("vfs.ops", int64(ops))
	p.countRun(obs)
	p.count("toolchain.reps", int64(obs.executed()*cfg.Reps))
	execs, err := kernelExecs(fx, []core.Config{cfg})
	if err != nil {
		return err
	}
	p.count("toolchain.kernel_execs", execs)
	p.count("buildsys.builds", int64(fx.BuildSystem().Builds()))
	p.count("buildsys.compiles", int64(fx.BuildSystem().Compiles()))
	logText, err := fx.ReadResult(report.RunLogPath)
	if err != nil {
		return err
	}
	p.count("runlog.log_bytes", int64(len(logText)))
	if last {
		p.count("vfs.state_bytes", int64(len(w.state)))
		return p.storeCounts(fx)
	}
	return nil
}
