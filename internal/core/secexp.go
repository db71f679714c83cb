package core

import (
	"errors"

	"fex/internal/measure"
	"fex/internal/runlog"
	"fex/internal/security"
	"fex/internal/table"
	"fex/internal/workload"
)

// SecurityRunner executes the RIPE testbed (§IV-C): for each build type it
// compiles the RIPE program and runs all 850 attack forms against the
// resulting binary's security profile, recording successful and failed
// counts — the data behind Table II.
type SecurityRunner struct{}

// Run implements Runner: one cell per build type, through the same
// planner and scheduler as the benchmark suites.
func (SecurityRunner) Run(rc *RunContext) error {
	ripeW, err := rc.Fex.registry.Lookup(securitySuite, "ripe")
	if err != nil {
		return err
	}
	return runExperiment(rc, []workload.Workload{ripeW}, "", noPerType, ripeCell)
}

// ripeCell compiles RIPE for one build type and runs the testbed against
// the binary's security profile, writing one record of its counts.
func ripeCell(rc *RunContext, c cell) error {
	artifact, err := rc.Artifact(c.workload, c.buildType, rc.Config.Debug)
	if err != nil {
		return err
	}
	res := security.RunTestbed(c.buildType, artifact.Security)
	rc.logf("== ripe [%s]: %d successful / %d failed", c.buildType, res.Successful, res.Failed)
	values := measure.NewMetricVector()
	values.Set("successful", float64(res.Successful))
	values.Set("failed", float64(res.Failed))
	values.Set("total", float64(res.Total()))
	for code, n := range res.ByCode {
		values.Set("success_"+code, float64(n))
	}
	rc.Log.WriteMeasurement(runlog.Measurement{
		Suite:     securitySuite,
		Benchmark: "ripe",
		BuildType: c.buildType,
		Threads:   1,
		Rep:       0,
		Values:    values,
	})
	return nil
}

// ripeCollect is RIPE's specialized collect stage (the 17-LoC collect.py
// of §IV-C): one row per build type with success/failure counts —
// exactly Table II's columns.
func ripeCollect(lg *runlog.Log) (*table.Table, error) {
	if len(lg.Measurements) == 0 {
		return nil, errors.New("core: log contains no measurements")
	}
	b, err := table.NewBuilder(
		[]string{"type", "successful", "failed", "total"},
		[]table.Kind{table.String, table.Float, table.Float, table.Float},
	)
	if err != nil {
		return nil, err
	}
	for _, m := range lg.Measurements {
		if err := b.Append(m.BuildType, m.Values.Value("successful"), m.Values.Value("failed"), m.Values.Value("total")); err != nil {
			return nil, err
		}
	}
	return b.Table()
}

// registerSecurityExperiment installs the ripe experiment. Note that it
// registers no plot: "for this security experiment, we do not need any
// plot" (§IV-C).
func (fx *Fex) registerSecurityExperiment() error {
	return fx.RegisterExperiment(&Experiment{
		Name:         "ripe",
		Description:  "RIPE security testbed: 850 attack forms per build type (Table II)",
		Kind:         KindSecurity,
		DefaultTypes: []string{"gcc_native", "clang_native"},
		NewRunner:    func(fx *Fex) (Runner, error) { return SecurityRunner{}, nil },
		Collect:      ripeCollect,
	})
}
