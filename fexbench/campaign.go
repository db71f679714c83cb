package main

import (
	"fmt"
	"math/rand"
	"time"

	"fex/internal/core"
)

// campaignWorkload runs whole campaigns of Fex.Run, each on a fresh
// framework with an empty store, as many as fill the pass's window on
// the reference machine. One operation is one Run. cold-campaign and
// cluster-fanout are both campaigns; they differ in the Runs they
// generate.
type campaignWorkload struct {
	seed    int64
	nominal time.Duration // one campaign on the reference machine
	// campaign generates one campaign's Runs from the workload's
	// random stream.
	campaign func(r *rand.Rand, ss suites) []core.Config
	suites   []string

	fx *core.Fex
	ss suites
}

func newColdCampaign(seed int64) *campaignWorkload {
	order := []string{"splash", "parsec"}
	return &campaignWorkload{seed: seed, nominal: 4800 * time.Millisecond, suites: order, campaign: func(r *rand.Rand, ss suites) []core.Config {
		return coldCampaign(r, ss, order, 3)
	}}
}

// clusterPolicies is the number of repetition policies cluster-fanout
// sweeps per suite: 40 policies over 3 suites and 4 build types make
// about 3.8k cells per campaign.
const clusterPolicies = 40

func newClusterFanout(seed int64) *campaignWorkload {
	order := []string{"splash", "parsec", "phoenix"}
	return &campaignWorkload{seed: seed, nominal: 4 * time.Second, suites: order, campaign: func(r *rand.Rand, ss suites) []core.Config {
		cfgs := policyCampaign(r, order, clusterPolicies)
		for i := range cfgs {
			cfgs[i].Hosts = []string{"w1", "w2"}
		}
		return cfgs
	}}
}

func (w *campaignWorkload) setup() error {
	fx, err := newFramework()
	if err != nil {
		return err
	}
	if w.ss == nil {
		if w.ss, err = registrySuites(fx, w.suites...); err != nil {
			return err
		}
	}
	w.fx = fx
	return nil
}

func (w *campaignWorkload) close() { w.fx = nil }

func (w *campaignWorkload) measure(p *pass) error {
	r := rand.New(rand.NewSource(w.seed))
	for n := 0; n < units(p.window, w.nominal); n++ {
		if n > 0 { // every campaign starts cold
			if err := p.timeSetup(w); err != nil {
				return err
			}
		}
		if err := w.runCampaign(p, w.campaign(r, w.ss), n == 0); err != nil {
			return err
		}
	}
	return nil
}

// runCampaign runs one campaign's Runs in order. The first campaign of
// a pass is its counted prefix.
func (w *campaignWorkload) runCampaign(p *pass, cfgs []core.Config, first bool) error {
	fx := w.fx
	fsys, err := fx.Container().FS()
	if err != nil {
		return err
	}
	counting := p.counting && first
	builds, compiles := fx.BuildSystem().Builds(), fx.BuildSystem().Compiles()
	for i, cfg := range cfgs {
		p.attempted++
		ops := fsys.Ops()
		start := time.Now()
		report, obs, err := p.run(fx, cfg, "")
		latency := time.Since(start)
		if err != nil {
			p.fail("run %d (%s): %v", i, cfg.String(), err)
			continue
		}
		p.opDone(latency, obs.plan.Total)
		p.unitDone(obs.plan.Total, latency)
		if counting {
			p.count("vfs.ops", int64(fsys.Ops()-ops))
			p.countRun(obs)
			p.count("toolchain.reps", int64(obs.executed()*cfg.Reps))
			p.remoteCounts(obs.hosts)
			logText, err := fx.ReadResult(report.RunLogPath)
			if err != nil {
				return err
			}
			p.count("runlog.log_bytes", int64(len(logText)))
		}
		csv, err := fx.ReadResult(report.RunCSVPath)
		if err != nil {
			return err
		}
		p.checks = append(p.checks, check{op: fmt.Sprintf("run %d", i), cfg: cfg, csv: csv})
		// Two campaigns fill a traced pass's half window.
		if err := p.probe(i, probeStride(2*len(cfgs)), fx, cfg, report, probeOptions{}); err != nil {
			return err
		}
		// A campaign's set-up is a fresh framework. Constructing a spare
		// one after every Run spreads the set-up samples over the whole
		// run: all taken within a tenth of a second, their median moved
		// with the machine's state at that moment.
		if err := p.timeSetupFunc(func() error { _, err := newFramework(); return err }); err != nil {
			return err
		}
	}
	if !counting {
		return nil
	}
	execs, err := kernelExecs(fx, cfgs)
	if err != nil {
		return err
	}
	p.count("toolchain.kernel_execs", execs)
	p.count("buildsys.builds", int64(fx.BuildSystem().Builds()-builds))
	p.count("buildsys.compiles", int64(fx.BuildSystem().Compiles()-compiles))
	if err := p.storeCounts(fx); err != nil {
		return err
	}
	size, err := stateBytes(fx)
	p.count("vfs.state_bytes", size)
	return err
}
