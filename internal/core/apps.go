package core

import (
	"fmt"

	"fex/internal/workload"
)

// appWorkload is the pseudo-workload standing in for a standalone
// application's sources in the build system: compiling it with a build
// type yields the artifact whose cost vector and security profile describe
// that application's binary under that type. Its Run method executes a
// small deterministic server-shaped operation mix, used to probe the
// relative codegen cost of a build type.
type appWorkload struct {
	suite string
	name  string
	desc  string
}

var _ workload.Workload = appWorkload{}

// Name implements workload.Workload.
func (a appWorkload) Name() string { return a.name }

// Suite implements workload.Workload.
func (a appWorkload) Suite() string { return a.suite }

// Description implements workload.Workload.
func (a appWorkload) Description() string { return a.desc }

// DefaultInput implements workload.Workload.
func (a appWorkload) DefaultInput(class workload.SizeClass) workload.Input {
	switch class {
	case workload.SizeTest:
		return workload.Input{N: 1 << 8, Seed: 99}
	case workload.SizeSmall:
		return workload.Input{N: 1 << 12, Seed: 99}
	default:
		return workload.Input{N: 1 << 16, Seed: 99}
	}
}

// Run implements workload.Workload: a request-processing-shaped mix of
// parsing (branches, int ops), buffer copies (memory traffic), and light
// hashing.
func (a appWorkload) Run(in workload.Input, threads int) (workload.Counters, error) {
	threads, err := workload.ValidateThreads(threads)
	if err != nil {
		return workload.Counters{}, err
	}
	n := in.N
	if n < 16 {
		return workload.Counters{}, fmt.Errorf("%w: app workload size %d", workload.ErrBadInput, n)
	}
	buf := make([]byte, 2048)
	for i := range buf {
		buf[i] = byte(i)
	}
	total := workload.ParallelFor(n, threads, func(ctr *workload.Counters, _, lo, hi int) {
		var sum uint64
		for r := lo; r < hi; r++ {
			// "Parse" a request line.
			for i := 0; i < 64; i++ {
				if buf[i] == byte(r) {
					sum++
				}
			}
			// "Copy" the response body.
			var h uint64 = 1469598103934665603
			for i := 0; i < len(buf); i += 8 {
				h = (h ^ uint64(buf[i])) * 1099511628211
			}
			sum ^= h
		}
		span := uint64(hi - lo)
		ctr.Branches += 64 * span
		ctr.IntOps += (64 + 512) * span
		ctr.MemReads += (64 + 256) * span
		ctr.MemWrites += 8 * span
		ctr.Checksum = workload.Mix(ctr.Checksum, sum^uint64(lo))
	})
	total.AllocBytes += 2048
	total.AllocCount++
	return total, nil
}

// appSuite and securitySuite group the standalone programs in the
// workload registry (they live under src/applications/ in the paper's
// directory tree, and RIPE under src/).
const (
	appSuite      = "applications"
	securitySuite = "security"
)

// appWorkloads returns the registered standalone applications and the
// security testbed program.
func appWorkloads() []workload.Workload {
	return []workload.Workload{
		appWorkload{suite: appSuite, name: "nginx", desc: "Nginx web server (event workers)"},
		appWorkload{suite: appSuite, name: "apache", desc: "Apache web server (per-connection model)"},
		appWorkload{suite: appSuite, name: "memcached", desc: "Memcached key-value cache"},
		appWorkload{suite: securitySuite, name: "ripe", desc: "RIPE runtime intrusion prevention evaluator"},
	}
}

// installArtifacts maps each application to the installer artifact that
// provides its sources (the paper installs these from the Internet rather
// than shipping them under src/).
var installArtifacts = map[string]string{
	"nginx": "nginx-1.4.1", "apache": "apache-2.4.18", "memcached": "memcached-1.4.25", "ripe": "ripe",
}

// requireSources fails unless every application among benches has its
// sources installed. Suite benchmarks ship their sources, so checking them
// reads nothing.
func requireSources(rc *RunContext, benches []workload.Workload) error {
	for _, w := range benches {
		artifactName, ok := installArtifacts[w.Name()]
		if !ok {
			continue
		}
		have, err := rc.Fex.Installed(artifactName)
		if err != nil {
			return err
		}
		if !have {
			return fmt.Errorf("core: %s sources not installed (run: fex install -n %s)", w.Name(), artifactName)
		}
	}
	return nil
}
