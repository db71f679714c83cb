package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func testSuites(t *testing.T) suites {
	t.Helper()
	fx, err := newFramework()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := registrySuites(fx, "splash", "parsec", "phoenix")
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// generated renders every generator's output for one seed.
func generated(ss suites, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	history := policyCampaign(r, iterateSuites, historyPolicies)
	out := map[string]any{
		"cold":     coldCampaign(r, ss, []string{"splash", "parsec"}, 3),
		"history":  history,
		"iterate":  iterateStream(r, history, 3*newEvery, newEvery),
		"specs":    specSequence(r, len(servePool(ss, serveSuites)), 100, serveNewEvery),
		"arrivals": poissonArrivals(r, serveRate, 100),
	}
	data, _ := json.Marshal(out)
	return string(data)
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	ss := testSuites(t)
	if a, b := generated(ss, 7), generated(ss, 7); a != b {
		t.Fatal("same seed generated different inputs")
	}
	if generated(ss, 7) == generated(ss, 8) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestColdCampaignCoversEveryBenchmarkOnce(t *testing.T) {
	ss := testSuites(t)
	cfgs := coldCampaign(rand.New(rand.NewSource(1)), ss, []string{"splash", "parsec"}, 3)
	seen := map[string]int{}
	for _, c := range cfgs {
		seen[c.Experiment+"/"+c.Benchmarks[0]]++
		if len(c.BuildTypes) != len(buildTypes) {
			t.Fatalf("run %v has %d build types", c.Benchmarks, len(c.BuildTypes))
		}
	}
	if len(seen) != len(ss["splash"])+len(ss["parsec"]) || len(cfgs) != len(seen) {
		t.Fatalf("campaign of %d runs covers %d benchmarks", len(cfgs), len(seen))
	}
}

func TestIterateStreamKeepsTheMix(t *testing.T) {
	history := policyCampaign(rand.New(rand.NewSource(1)), iterateSuites, historyPolicies)
	for seed := int64(1); seed <= 5; seed++ {
		stream := iterateStream(rand.New(rand.NewSource(seed)), history, 3*newEvery, newEvery)
		perSuite := map[string]int{}
		newPolicies := map[string]int{}
		for _, c := range stream {
			perSuite[c.Experiment]++
			if c.Reps > historyPolicies {
				newPolicies[c.Experiment]++
			}
		}
		for _, s := range iterateSuites {
			if perSuite[s] != newEvery || newPolicies[s] != 1 {
				t.Fatalf("seed %d: suite %s has %d iterations, %d new policies", seed, s, perSuite[s], newPolicies[s])
			}
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		level float64
		ok    bool
	}{{19, 0, false}, {20, 0.50, true}, {39, 0.50, true}, {40, 0.75, true}, {99, 0.75, true}, {100, 0.90, true},
		{200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted input
		}
		v, level, ok := tail(xs)
		if ok != tc.ok || level != tc.level {
			t.Fatalf("n=%d: level %v ok %v, want %v %v", tc.n, level, ok, tc.level, tc.ok)
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%v=%v has %d samples beyond", tc.n, 100*level, v, beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1, 7, 2}, 1.25, 6.125},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Fatalf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	reqs := []openLoopSample{
		{due: at(0), sent: at(0), settled: at(5)},
		// The generator stalled: sent 5ms late, and the wait counts.
		{due: at(10), sent: at(15), settled: at(30)},
		// Sent a little early: no lag, latency still from due.
		{due: at(20), sent: at(19), settled: at(40)},
	}
	lat, lag := openLoopLatency(reqs)
	if want := []float64{5, 20, 20}; !reflect.DeepEqual(lat, want) {
		t.Fatalf("latency %v, want %v", lat, want)
	}
	if want := []float64{0, 5, 0}; !reflect.DeepEqual(lag, want) {
		t.Fatalf("lag %v, want %v", lag, want)
	}
}

func TestFIFOStartsWaitForPredecessor(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	submit := []time.Time{at(0), at(1), at(10)}
	settle := []time.Time{at(5), at(8), at(12)}
	starts := fifoStarts(submit, settle)
	// Run 2 queued behind run 1 until 5ms; run 3 found the executor idle.
	if want := []time.Time{at(0), at(5), at(10)}; !reflect.DeepEqual(starts, want) {
		t.Fatalf("starts %v, want %v", starts, want)
	}
}

func TestTraceIsChromeTraceEventJSON(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	root := tr.record(laneClient, "fexbench", "iterate", at(0), at(100), 0)
	tr.record(laneClient, "vfs", "LoadState", at(10), at(40), root)
	tr.record(laneClient, "core", "Run", at(30), at(60), root) // overlaps LoadState
	done := tr.begin(laneExecutor, "serve", "POST")
	tr.begin(laneExecutor, "store", "BulkGet")() // nested in POST
	done()
	tr.mark(laneClient, "core", "plan", map[string]any{"total": 4})

	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, map[string]any{"workload": "test"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	ids := map[float64]float64{} // span id -> parent
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %v lacks %q", ev, key)
			}
		}
		switch ph {
		case "X":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("span %v has no numeric ts", ev)
			}
			if d, ok := ev["dur"].(float64); !ok || d < 0 {
				t.Fatalf("span %v has no duration", ev)
			}
			args := ev["args"].(map[string]any)
			ids[args["id"].(float64)] = args["parent"].(float64)
		case "i":
			if ev["s"] != "t" {
				t.Fatalf("instant %v not thread-scoped", ev)
			}
		}
	}
	if phases["X"] != 5 || phases["i"] != 1 || phases["M"] != 2 || doc.Unit != "ms" {
		t.Fatalf("event phases %v, unit %q", phases, doc.Unit)
	}
	if ids[2] != 1 || ids[5] != 4 || ids[4] != 0 {
		t.Fatalf("parents %v", ids)
	}

	self := map[string]float64{}
	for _, row := range tr.selfTimes() {
		self[row.layer] = row.selfMS
	}
	// iterate: 100ms minus the union [10,60] of its children.
	if self["fexbench"] != 50 || self["vfs"] != 30 || self["core"] != 30 {
		t.Fatalf("self times %v", self)
	}
}

func TestVerdictRule(t *testing.T) {
	def := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		name string
		cand []float64
		want string
	}{
		{"faster in every pair", shift(base, -20), improved},
		{"slower in every pair", shift(base, 20), worse},
		{"same runs", base, unchanged},
		// Wins 8 of 10 pairs only: not improved, and within the bound.
		{"mostly faster", []float64{95, 96, 94, 95, 97, 93, 95, 96, 110, 110}, unchanged},
	} {
		if got := verdict(base, tc.cand, def); got != tc.want {
			t.Fatalf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	wide := []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}
	if got := verdict(wide, shift(wide, 5), def); got != unresolved {
		t.Fatalf("wide base: verdict %s, want %s", got, unresolved)
	}
}

// exactCounters are the counters a later change may claim by count:
// they must repeat exactly for one seed.
var exactCounters = []string{"vfs.ops", "toolchain.kernel_execs", "buildsys.builds", "buildsys.compiles",
	"store.records", "vfs.state_bytes", "core.cells_executed", "core.cells_replayed", "core.cells_deduped",
	"runlog.log_bytes"}

func TestCountersRepeatForOneSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's counted prefix twice")
	}
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{
		{"cold-campaign", time.Nanosecond}, // one whole campaign
		{"cluster-fanout", time.Nanosecond},
		{"warm-iterate", 3 * time.Second}, // at least countedOps iterations
		{"serve-stream", time.Second},
	} {
		var got [2]map[string]int64
		for i := range got {
			w, err := newWorkload(tc.name, 3)
			if err != nil {
				t.Fatal(err)
			}
			p, err := runPass(w, nil, tc.window, true)
			w.close()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if p.failed > 0 {
				t.Fatalf("%s: %v", tc.name, p.failures)
			}
			got[i] = map[string]int64{}
			for _, c := range exactCounters {
				got[i][c] = p.counts[c]
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("%s: counters differ between runs of one seed:\n%v\n%v", tc.name, got[0], got[1])
		}
		if got[0]["vfs.ops"] == 0 || got[0]["store.records"] == 0 || got[0]["vfs.state_bytes"] == 0 {
			t.Fatalf("%s: counters not measured: %v", tc.name, got[0])
		}
	}
}
