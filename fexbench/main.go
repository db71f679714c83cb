// Command fexbench is Fex's own benchmark: it runs seeded workloads
// through Fex's Go API, checks every output against the serial tier, and
// prints end-to-end metrics (or, traced, per-layer metrics) as one JSON
// line.
//
//	fexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	fexbench compare <base-dir> [<candidate-dir>]
//
// Workloads: cold-campaign, warm-iterate, serve-stream, cluster-fanout.
// BENCHMARK.json at the repository root names the metrics, their units
// and bounds; layers.json beside this file maps each per-layer metric to
// the end-to-end metric and workload it should move.
//
// An untraced run measures the end-to-end metrics. A traced run makes two
// passes of half the window each from a fresh set-up: an untraced one for
// the exact counters and the runtime figures, then a traced one that
// records spans around every call the benchmark makes, probes each layer
// after each operation, and writes a Chrome trace-event file and a
// per-layer self-time table. Its overhead is the median ratio of each
// operation's latency in the traced pass to the same operation's in the
// untraced pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fexbench: read spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("fexbench: parse spec %s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// procsPerWorkload caps GOMAXPROCS while a workload runs. serve-stream's
// executor is single and runs each spec serially; on two processors
// every request's hand-offs between goroutines wake the other CPU, and
// the time that takes, set by the host rather than the program, spread
// the settle latency by a fifth between runs.
var procsPerWorkload = map[string]int{"serve-stream": 1}

func newWorkload(name string, seed int64) (workloadRunner, error) {
	switch name {
	case "cold-campaign":
		return newColdCampaign(seed), nil
	case "warm-iterate":
		return newWarmIterate(seed), nil
	case "serve-stream":
		return newServeStream(seed), nil
	case "cluster-fanout":
		return newClusterFanout(seed), nil
	}
	return nil, fmt.Errorf("fexbench: unknown workload %q", name)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("fexbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "operation time to measure, in seconds")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	outDir := fs.String("out", filepath.Join(".bench_build", "fexbench"), "directory for trace files")
	_ = fs.Parse(os.Args[1:])
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *specPath, *outDir, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and checks its outputs.
func run(name string, seed int64, window time.Duration, traced bool, specPath, outDir string, report io.Writer) (*result, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if n := procsPerWorkload[name]; n > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}

	var passes []*pass
	var values map[string]float64
	if !traced {
		p, err := runPass(w, nil, window, false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		values = endToEnd(p)
	} else {
		a, err := runPass(w, nil, window/2, true)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		b, err := runPass(w, tr, window/2, false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, a, b)
		values = perLayer(a, b)
		if err := writeTrace(tr, outDir, name, seed, report); err != nil {
			return nil, err
		}
	}
	w.close()

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	var failures []string
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		failures = append(failures, p.failures...)
		for _, c := range p.checks {
			if err := ref.verify(c); err != nil {
				res.Failed++
				failures = append(failures, err.Error())
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload %s does not measure end-to-end metric %s", name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	printReport(report, name, seed, window, traced, passes, res, defs, failures)
	return res, nil
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(p *pass) map[string]float64 {
	return map[string]float64{
		"setup_s":        median(p.setupS),
		"cells_per_s":    median(p.cellRate),
		"latency_p50_ms": median(p.latencyMS),
	}
}

// perLayer computes the per-layer metrics: exact counters and runtime
// figures from the untraced pass a, timings from the traced pass b.
func perLayer(a, b *pass) map[string]float64 {
	v := map[string]float64{}
	for name, xs := range b.samples {
		v[name] = median(xs)
	}
	if lag, _, ok := tail(b.samples["serve.gen_lag_ms"]); ok {
		v["serve.gen_lag_ms"] = lag
	}
	v["core.cell_gap_ms"] = median(b.cellGap)
	for name, n := range a.counts {
		v[name] = float64(n)
	}
	ratio := func(num, den string) float64 {
		if a.counts[den] == 0 {
			return 0
		}
		return float64(a.counts[num]) / float64(a.counts[den])
	}
	v["core.store_hit_ratio"] = ratio("core.cells_replayed", "core.cells_total")
	v["toolchain.memo_hit_ratio"] = ratio("toolchain.reps", "toolchain.kernel_execs")
	if a.counts["store.records"] > 0 {
		v["store.bytes_per_record"] = float64(a.counts["store.bytes"] / a.counts["store.records"])
	}
	v["remote.useful_ratio"] = ratio("remote.settled", "remote.launched")
	// The tail latency, the service capacity and memory spread too widely
	// between runs on a shared machine to hold an end-to-end bound; they
	// are reported here, from the untraced pass, without one.
	if t, _, ok := tail(a.latencyMS); ok {
		v["e2e.latency_tail_ms"] = t
	}
	v["serve.capacity_rps"] = a.capacity
	v["go.rss_mb"] = median(a.rssMB)
	v["go.heap_live_mb"] = median(a.heapMB)
	v["go.allocs_per_op"] = a.goAllocs
	v["go.alloc_mb_per_op"] = a.goAllocMB
	v["go.gc_cycles_per_op"] = a.goGC
	// Both passes run the same generated operations in the same order,
	// so operation i of each forms a pair.
	var ratios []float64
	for i := 0; i < len(a.latencyMS) && i < len(b.latencyMS); i++ {
		if a.latencyMS[i] > 0 {
			ratios = append(ratios, b.latencyMS[i]/a.latencyMS[i])
		}
	}
	if len(ratios) > 0 {
		v["trace.overhead_pct"] = 100 * (median(ratios) - 1)
	}
	v["trace.spans"] = float64(len(b.tr.spans))
	return v
}

func writeTrace(tr *tracer, outDir, name string, seed int64, report io.Writer) error {
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.writeChrome(f, map[string]any{"workload": name, "seed": seed})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(report, "trace: %s\n", path)
	writeSelfTable(report, tr.selfTimes())
	return nil
}

// printReport writes the human-readable summary: every metric with its
// unit, sample counts and the failed-operation share.
func printReport(w io.Writer, name string, seed int64, window time.Duration, traced bool, passes []*pass, res *result,
	defs []metricDef, failures []string) {
	mode := "untraced"
	if traced {
		mode = "traced (untraced + traced pass)"
	}
	fmt.Fprintf(w, "== %s seed=%d window=%v %s\n", name, seed, window, mode)
	for i, p := range passes {
		_, level, ok := tail(p.latencyMS)
		tailNote := "no tail percentile: fewer than 20 samples"
		if ok {
			tailNote = fmt.Sprintf("tail = p%g with %d samples beyond", 100*level, int(float64(len(p.latencyMS))*(1-level)))
		}
		fmt.Fprintf(w, "pass %d: %d set-ups, %d operations in %.2fs of operation time (%s), %d cells\n",
			i+1, len(p.setupS), len(p.latencyMS), p.busy.Seconds(), tailNote, p.cells)
	}
	names := make([]string, 0, len(defs))
	units := map[string]string{}
	for _, d := range defs {
		names = append(names, d.Name)
		units[d.Name] = d.Unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, res.Metrics[n].Value, units[n])
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "attempted %d, failed %d (%.1f%%), correct=%t\n", res.Attempted, res.Failed, 100*share, res.Correct)
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(failures)-i)
			break
		}
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}
