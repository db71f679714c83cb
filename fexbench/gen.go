package main

import (
	"math/rand"
	"time"

	"fex/internal/core"
	"fex/internal/workload"
)

// buildTypes are the four shipped build configurations.
var buildTypes = []string{"gcc_native", "clang_native", "gcc_asan", "clang_asan"}

// suites maps a suite name to its benchmark names in registry order.
type suites map[string][]string

func registrySuites(fx *core.Fex, names ...string) (suites, error) {
	out := suites{}
	for _, s := range names {
		ws, err := fx.Registry().Suite(s)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			out[s] = append(out[s], w.Name())
		}
	}
	return out, nil
}

func shuffled(r *rand.Rand, xs []string) []string {
	out := append([]string(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldCampaign is one pass over every benchmark of the given suites, one
// Run per benchmark with all four build types: the seed permutes the
// benchmark order and each Run's build-type order. Every Run executes
// kernels no earlier Run of the pass has executed.
func coldCampaign(r *rand.Rand, ss suites, order []string, reps int) []core.Config {
	type cell struct{ suite, bench string }
	var cells []cell
	for _, s := range order {
		for _, b := range ss[s] {
			cells = append(cells, cell{s, b})
		}
	}
	r.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	cfgs := make([]core.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = core.Config{Experiment: c.suite, Benchmarks: []string{c.bench}, BuildTypes: shuffled(r, buildTypes),
			Reps: reps, Input: workload.SizeNative, ModelTime: true, Jobs: 2}
	}
	return cfgs
}

// policyCampaign is one Run per (suite, repetition policy) at the test
// input: every -r value from 1 to policies over every suite, in seeded
// order, each Run with a seeded build-type order.
func policyCampaign(r *rand.Rand, order []string, policies int) []core.Config {
	var cfgs []core.Config
	for _, s := range order {
		for reps := 1; reps <= policies; reps++ {
			cfgs = append(cfgs, core.Config{Experiment: s, BuildTypes: shuffled(r, buildTypes), Reps: reps,
				Input: workload.SizeTest, ModelTime: true})
		}
	}
	r.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	return cfgs
}

// iterateStream draws n edit-and-rerun configs from a history
// campaign. Operations cycle through the suites in a seeded order, so
// every stream has the same mix, and each repeats a seeded history Run of
// its suite (fully warm). One operation in every newEvery, at a seeded
// place in its block, instead adds a new repetition policy (cold cells
// beside warm ones); the k-th new policy goes to the k-th suite of the
// cycle. newEvery must be a multiple of the number of suites.
func iterateStream(r *rand.Rand, history []core.Config, n, newEvery int) []core.Config {
	bySuite := map[string][]core.Config{}
	var order []string
	next := 0
	for _, c := range history {
		if _, ok := bySuite[c.Experiment]; !ok {
			order = append(order, c.Experiment)
		}
		bySuite[c.Experiment] = append(bySuite[c.Experiment], c)
		if c.Reps > next {
			next = c.Reps
		}
	}
	k := len(order)
	out := make([]core.Config, n)
	newAt := -1
	for i := range out {
		if i%newEvery == 0 {
			newAt = i + k*r.Intn(newEvery/k) + (i/newEvery)%k
		}
		suite := bySuite[order[i%k]]
		c := suite[r.Intn(len(suite))]
		c.BuildTypes = append([]string(nil), c.BuildTypes...)
		if i == newAt {
			next++
			c.Reps = next
		}
		c.Resume, c.Jobs = true, 1
		out[i] = c
	}
	return out
}

// typePairs are the build-type pairs serve-stream specs take; each
// shares a type with the pairs beside it in the ring, and pairs i and
// i+2 together cover all four types.
var typePairs = [][]string{
	{"gcc_native", "clang_native"}, {"clang_native", "clang_asan"},
	{"clang_asan", "gcc_asan"}, {"gcc_asan", "gcc_native"},
}

// serveWindow is how many adjacent benchmarks one serve-stream spec runs.
const serveWindow = 4

// servePool is the overlapping set of run specs serve-stream submits:
// for every window of serveWindow adjacent benchmarks of each suite, two
// specs whose build-type pairs cover all four types. The k-th window
// takes pairs k and k+2 of the ring, so a spec shares cells with the
// specs of neighbouring windows. The pool does not depend on the seed,
// so every run submits the same work.
func servePool(ss suites, order []string) []core.Config {
	var pool []core.Config
	k := 0
	for _, s := range order {
		names := ss[s]
		for at := 0; at+serveWindow <= len(names); at++ {
			for _, pair := range []int{k % 4, (k + 2) % 4} {
				pool = append(pool, core.Config{Experiment: s, Benchmarks: append([]string(nil), names[at:at+serveWindow]...),
					BuildTypes: typePairs[pair], Reps: 1, Input: workload.SizeSmall, ModelTime: true})
			}
			k++
		}
	}
	return pool
}

// specSequence returns n pool indices in which every newEvery-th
// submission introduces a spec not submitted before, in seeded order,
// and every other one repeats a seeded earlier spec. Executions are
// spread evenly through the stream between replays, and every run
// introduces the same specs at the same places.
func specSequence(r *rand.Rand, poolSize, n, newEvery int) []int {
	perm := r.Perm(poolSize)
	out := make([]int, n)
	seen := 0
	for i := range out {
		if (i%newEvery == 0 && seen < poolSize) || seen == 0 {
			out[i] = perm[seen]
			seen++
			continue
		}
		out[i] = perm[r.Intn(seen)]
	}
	return out
}

// poissonArrivals draws the due times of n arrivals of a Poisson
// process at rate per second, relative to the start of the loop.
func poissonArrivals(r *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	var at time.Duration
	for i := range out {
		at += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		out[i] = at
	}
	return out
}
