package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fex/internal/workload"
)

// cliArgvCases are the command lines of the CLI's parser tests, without
// the action word: the fuzz seed corpus of FuzzParseArgs.
var cliArgvCases = [][]string{
	{"-n", "splash", "-t", "gcc_native", "clang_native", "-b", "fft", "lu", "-m", "1", "2", "4",
		"-r", "10", "-jobs", "4", "-i", "test", "-d", "-v", "--no-build", "-o", "/tmp/out", "--state", "/tmp/state"},
	{"-n"}, {"-t"}, {"-r", "notanum"}, {"-m", "x"}, {"-jobs"}, {"-jobs", "zero"}, {"-jobs", "0"},
	{"--bogus"}, {"-o"}, {"-cpuprofile"}, {"-memprofile"},
	{"-n", "micro", "-t", "gcc_native", "-r", "auto:0.99,0.02", "-resume"},
	{"-n", "micro", "-r", "auto"},
	{"-r", "auto:0.99"}, {"-r", "auto:x,0.05"}, {"-r", "auto:0.95,y"}, {"-r", "auto:0.95,0,1"},
	{"-n", "splash", "-no-memo", "-cpuprofile", "/tmp/cpu.pprof", "-memprofile", "/tmp/mem.pprof"},
	{"-n", "splash", "--no-memo"},
	{"-n", "micro", "-t", "gcc_native", "gcc_asan", "-b", "array_read", "branch_heavy", "-i", "test",
		"-r", "2", "--modeled-time", "--state", "fex.state", "-resume", "-o", "warm"},
	{"-n", "splash", "-t", "gcc_native", "-hosts", "w1, w2,w3", "--modeled-time"},
	{"-hosts"}, {"-hosts", "w1,,w2"},
	{"-n", "splash", "-t", "gcc_native", "-hosts", "w1,w2", "-hosts-file", "hosts.txt",
		"-host-timeout", "30s", "-no-speculate", "-degrade", "local"},
	{"-no-steal"}, {"--no-load-aware"},
	{"-n", "splash", "-no-speculate", "-speculate"},
	{"-host-timeout"}, {"-host-timeout", "banana"}, {"-host-timeout", "-5s"}, {"-hosts-file"}, {"-degrade"},
	{"/tmp/base", "/tmp/cand", "-metric", "cycles", "-alpha", "0.01", "-o", "/tmp/out"},
	{"-baseline", "/tmp/base", "-max-regression", "5", "--higher-is-better"},
	{"-n", "micro", "gcc_native"},
	{"-n", "micro", "-t", "gcc_native", "-b", "fft", "lu", "fft", "-no-dedup", "-tool", "perf-stat-mem"},
}

// roundTrip normalizes cfg, renders it, and parses and normalizes the
// rendering, failing t unless the result equals the normalized cfg and
// the rendered line splits back into the rendered argv.
func roundTrip(t *testing.T, cfg Config) {
	t.Helper()
	args := cfg.Args()
	again, rest, err := ParseArgs(args)
	if err != nil || len(rest) > 0 {
		t.Fatalf("ParseArgs(%q) = rest %q, err %v", args, rest, err)
	}
	if err := again.Normalize(); err != nil {
		t.Fatalf("ParseArgs(%q) does not normalize: %v", args, err)
	}
	if !reflect.DeepEqual(again, cfg) {
		t.Fatalf("ParseArgs(%q)\n got %#v\nwant %#v", args, again, cfg)
	}
	if line := strings.Fields(cfg.String()); !slices.Equal(line[2:], args) {
		t.Fatalf("String() = %q splits into %q, want %q", cfg.String(), line[2:], args)
	}
}

// FuzzParseArgs feeds arbitrary argv (tokens joined by NUL) to the flag
// table: ParseArgs must never panic, and every argv it accepts whose
// config normalizes must survive Args → ParseArgs → Normalize unchanged.
func FuzzParseArgs(f *testing.F) {
	for _, argv := range cliArgvCases {
		f.Add(strings.Join(argv, "\x00"))
	}
	f.Fuzz(func(t *testing.T, s string) {
		var argv []string
		if s != "" {
			argv = strings.Split(s, "\x00")
		}
		cfg, _, err := ParseArgs(argv)
		if err != nil {
			return
		}
		if err := cfg.Normalize(); err != nil {
			return
		}
		roundTrip(t, cfg)
	})
}

// TestParseArgsRoundTripProperty is the property ParseArgs(c.Args()) == c
// over generated normalized configs covering every field of the table.
func TestParseArgsRoundTripProperty(t *testing.T) {
	names := []string{"splash", "gcc_native", "clang_native", "fft", "lu", "w1", "w2", "perf-stat"}
	pick := func(r *rand.Rand, max int) []string {
		var out []string
		for n := r.Intn(max + 1); len(out) < n; {
			out = append(out, names[r.Intn(len(names))]+fmt.Sprint(len(out)))
		}
		return out
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			Experiment:   names[r.Intn(len(names))],
			BuildTypes:   append(pick(r, 3), "gcc_native"),
			Benchmarks:   pick(r, 4),
			Reps:         r.Intn(12),
			Input:        workload.SizeClass(r.Intn(4)),
			Jobs:         r.Intn(6),
			Hosts:        pick(r, 3),
			HostTimeout:  time.Duration(r.Intn(3)) * time.Duration(r.Int63n(int64(time.Hour))),
			NoSpeculate:  r.Intn(2) == 0,
			NoMemo:       r.Intn(2) == 0,
			ModelTime:    r.Intn(2) == 0,
			NoDedup:      r.Intn(2) == 0,
			Resume:       r.Intn(2) == 0,
			AdaptiveReps: r.Intn(3) == 0,
			Debug:        r.Intn(2) == 0,
			Verbose:      r.Intn(2) == 0,
			NoBuild:      r.Intn(2) == 0,
		}
		if r.Intn(2) == 0 {
			cfg.Tool = names[r.Intn(len(names))]
		}
		if r.Intn(2) == 0 {
			cfg.Degrade = "local"
		}
		for i := r.Intn(4); i > 0; i-- {
			cfg.Threads = append(cfg.Threads, 1+r.Intn(64))
		}
		if r.Intn(2) == 0 {
			cfg.RepLevel, cfg.RepRelWidth = r.Float64()*0.98+0.01, r.ExpFloat64()/10+1e-9
		}
		if err := cfg.Normalize(); err != nil {
			t.Logf("seed %d: generated config does not normalize: %v", seed, err)
			return false
		}
		roundTrip(t, cfg)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestParseArgsRest pins what the table leaves to its caller: unknown
// flags and every bare token no flag consumed, in order. The rows are
// flags the table does not know, among them the removed cluster
// placement switches.
func TestParseArgsRest(t *testing.T) {
	for _, flag := range []string{"--bogus", "-no-steal", "--no-steal", "-no-load-aware", "--no-load-aware"} {
		cfg, rest, err := ParseArgs([]string{"-n", "splash", flag, "-v"})
		if err != nil || !slices.Equal(rest, []string{flag}) || cfg.Experiment != "splash" || !cfg.Verbose {
			t.Errorf("ParseArgs(%s) = rest %q, err %v, config %+v; want %s left over", flag, rest, err, cfg, flag)
		}
	}
	cfg, rest, err := ParseArgs([]string{"stray", "-n", "micro", "gcc_native", "-o", "out", "-t", "a", "b", "--state", "f", "-d"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"stray", "gcc_native", "-o", "out", "--state", "f"}; !slices.Equal(rest, want) {
		t.Errorf("rest %q, want %q", rest, want)
	}
	if cfg.Experiment != "micro" || !slices.Equal(cfg.BuildTypes, []string{"a", "b"}) || !cfg.Debug {
		t.Errorf("config %+v", cfg)
	}
	// -hosts accumulates; every other flag's last occurrence wins.
	cfg, _, err = ParseArgs([]string{"-hosts", "w1", "-hosts", "w2,w3", "-r", "auto", "-r", "3", "-b", "x", "-b"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cfg.Hosts, []string{"w1", "w2", "w3"}) || cfg.AdaptiveReps || cfg.Reps != 3 || cfg.Benchmarks != nil {
		t.Errorf("config %+v", cfg)
	}
}

// TestNormalizeRejectsWhatTheLineCannotCarry pins the values Normalize
// refuses because the rendered command line would re-parse them as a
// different run: before the check, this config normalized and rendered
// "-b -d -hosts a,b, c", which reads back as -d (debug), two hosts and a
// stray positional.
func TestNormalizeRejectsWhatTheLineCannotCarry(t *testing.T) {
	base := Config{Experiment: "splash", BuildTypes: []string{"gcc_native"}}
	for _, tc := range []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.Hosts, c.Benchmarks = []string{"a,b", " c"}, []string{"-d"} }, "benchmark (-b)"},
		{func(c *Config) { c.Hosts = []string{"a,b"} }, "cluster host name (-hosts)"},
		{func(c *Config) { c.Hosts = []string{" c"} }, "cluster host name (-hosts)"},
		{func(c *Config) { c.Hosts = []string{""} }, "cluster host name (-hosts)"},
		{func(c *Config) { c.Benchmarks = []string{""} }, "benchmark (-b)"},
		{func(c *Config) { c.Benchmarks = []string{"f ft"} }, "benchmark (-b)"},
		{func(c *Config) { c.BuildTypes = []string{"-d"} }, "build type (-t)"},
		{func(c *Config) { c.BuildTypes = []string{"gcc\tnative"} }, "build type (-t)"},
		{func(c *Config) { c.Tool = "-v" }, "measurement tool (-tool)"},
		{func(c *Config) { c.Experiment = "spl ash" }, "experiment name (-n)"},
	} {
		cfg := base
		tc.mut(&cfg)
		err := cfg.Normalize()
		if err == nil || !strings.HasPrefix(err.Error(), "core: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Normalize() = %v, want a core error naming %s", cfg, err, tc.want)
		}
	}
}
