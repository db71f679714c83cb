package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"fex/internal/workload"
)

// variadic is the arity of a flag that takes every bare token up to the
// next flag (-t, -b, -m).
const variadic = -1

// runFlag is one row of the run-flag table, the one mapping between the
// command line and Config: ParseArgs reads argv through it, Args renders
// a Config back through it, and the CLI and fex serve both go through
// those two functions.
type runFlag struct {
	// names lists the accepted spellings; Args renders the first.
	names []string
	// arity is the number of values the flag takes: 0 (a switch), 1, or
	// variadic.
	arity int
	// want names the missing value in the error for a 1-value flag.
	want string
	// parse applies the flag's values to the config.
	parse func(c *Config, vals []string) error
	// render returns the values Args writes after the flag, and whether
	// the flag is written at all. Nil for a flag Args never writes.
	render func(c Config) ([]string, bool)
}

// runFlags is the flag table. Its order is the render order of Args and
// therefore of Config.String.
var runFlags = []runFlag{
	{names: []string{"-n"}, arity: 1, want: "a value",
		parse:  func(c *Config, v []string) error { c.Experiment = v[0]; return nil },
		render: func(c Config) ([]string, bool) { return []string{c.Experiment}, true }},
	{names: []string{"-t"}, arity: variadic,
		parse: func(c *Config, v []string) error {
			if len(v) == 0 {
				return errors.New("core: -t requires at least one value")
			}
			c.BuildTypes = v
			return nil
		},
		render: func(c Config) ([]string, bool) { return c.BuildTypes, len(c.BuildTypes) > 0 }},
	{names: []string{"-b"}, arity: variadic,
		parse:  func(c *Config, v []string) error { c.Benchmarks = v; return nil },
		render: func(c Config) ([]string, bool) { return c.Benchmarks, len(c.Benchmarks) > 0 }},
	{names: []string{"-m"}, arity: variadic,
		parse: func(c *Config, v []string) (err error) { c.Threads, err = ParseThreadList(v); return err },
		render: func(c Config) ([]string, bool) {
			if len(c.Threads) == 0 || len(c.Threads) == 1 && c.Threads[0] == 1 {
				return nil, false
			}
			vals := make([]string, len(c.Threads))
			for i, t := range c.Threads {
				vals[i] = strconv.Itoa(t)
			}
			return vals, true
		}},
	{names: []string{"-r"}, arity: 1, want: "a value",
		parse: func(c *Config, v []string) (err error) {
			c.Reps, c.AdaptiveReps, c.RepLevel, c.RepRelWidth, err = ParseRepsSpec(v[0])
			return err
		},
		render: renderReps},
	{names: []string{"-i"}, arity: 1, want: "a value",
		parse: func(c *Config, v []string) (err error) { c.Input, err = workload.ParseSizeClass(v[0]); return err },
		render: func(c Config) ([]string, bool) {
			return []string{c.Input.String()}, c.Input != 0 && c.Input != workload.SizeNative
		}},
	stringFlag("-tool", "a measurement-tool name", func(c *Config) *string { return &c.Tool }),
	{names: []string{"-jobs"}, arity: 1, want: "a value",
		parse: func(c *Config, v []string) error {
			n, err := strconv.Atoi(v[0])
			if err != nil || n < 1 {
				return fmt.Errorf("core: bad -jobs value %q (want a positive integer)", v[0])
			}
			c.Jobs = n
			return nil
		},
		render: func(c Config) ([]string, bool) { return []string{strconv.Itoa(c.Jobs)}, c.Jobs > 1 }},
	{names: []string{"-hosts"}, arity: 1, want: "a comma-separated host list",
		parse: func(c *Config, v []string) error {
			for _, h := range strings.Split(v[0], ",") {
				if h = strings.TrimSpace(h); h == "" {
					return fmt.Errorf("core: bad -hosts value %q (empty host name)", v[0])
				}
				c.Hosts = append(c.Hosts, h)
			}
			return nil
		},
		render: func(c Config) ([]string, bool) { return []string{strings.Join(c.Hosts, ",")}, len(c.Hosts) > 0 }},
	{names: []string{"-host-timeout"}, arity: 1, want: "a duration (e.g. 30s)",
		parse: func(c *Config, v []string) error {
			d, err := time.ParseDuration(v[0])
			if err != nil || d <= 0 {
				return fmt.Errorf("core: bad -host-timeout value %q (want a positive duration)", v[0])
			}
			c.HostTimeout = d
			return nil
		},
		render: func(c Config) ([]string, bool) { return []string{c.HostTimeout.String()}, c.HostTimeout > 0 }},
	switchFlag(func(c *Config) *bool { return &c.NoSpeculate }, "-no-speculate", "--no-speculate"),
	// -speculate restores the default after an earlier -no-speculate.
	{names: []string{"-speculate"},
		parse: func(c *Config, _ []string) error { c.NoSpeculate = false; return nil }},
	switchFlag(func(c *Config) *bool { return &c.NoSteal }, "-no-steal", "--no-steal"),
	switchFlag(func(c *Config) *bool { return &c.NoLoadAware }, "-no-load-aware", "--no-load-aware"),
	stringFlag("-degrade", "a mode (local)", func(c *Config) *string { return &c.Degrade }),
	switchFlag(func(c *Config) *bool { return &c.NoMemo }, "-no-memo", "--no-memo"),
	switchFlag(func(c *Config) *bool { return &c.NoDedup }, "-no-dedup", "--no-dedup"),
	switchFlag(func(c *Config) *bool { return &c.ModelTime }, "--modeled-time"),
	switchFlag(func(c *Config) *bool { return &c.Resume }, "-resume"),
	switchFlag(func(c *Config) *bool { return &c.Debug }, "-d"),
	switchFlag(func(c *Config) *bool { return &c.Verbose }, "-v"),
	switchFlag(func(c *Config) *bool { return &c.NoBuild }, "--no-build"),
}

// flagByName indexes runFlags by every spelling.
var flagByName = func() map[string]*runFlag {
	m := make(map[string]*runFlag)
	for i := range runFlags {
		for _, n := range runFlags[i].names {
			m[n] = &runFlags[i]
		}
	}
	return m
}()

// switchFlag is a 0-arity flag that sets a boolean field.
func switchFlag(field func(*Config) *bool, names ...string) runFlag {
	return runFlag{names: names,
		parse:  func(c *Config, _ []string) error { *field(c) = true; return nil },
		render: func(c Config) ([]string, bool) { return nil, *field(&c) }}
}

// stringFlag is a 1-value flag that sets a string field, rendered when
// non-empty.
func stringFlag(name, want string, field func(*Config) *string) runFlag {
	return runFlag{names: []string{name}, arity: 1, want: want,
		parse:  func(c *Config, v []string) error { *field(c) = v[0]; return nil },
		render: func(c Config) ([]string, bool) { return []string{*field(&c)}, *field(&c) != "" }}
}

// renderReps renders the repetition policy: -r auto, with its parameters
// only when they differ from the defaults, or a fixed count above 1.
func renderReps(c Config) ([]string, bool) {
	level, relWidth := c.RepLevel, c.RepRelWidth
	if level == 0 {
		level = DefaultRepLevel
	}
	if relWidth == 0 {
		relWidth = DefaultRepRelWidth
	}
	switch {
	case c.AdaptiveReps && (level != DefaultRepLevel || relWidth != DefaultRepRelWidth):
		return []string{fmt.Sprintf("auto:%g,%g", level, relWidth)}, true
	case c.AdaptiveReps:
		return []string{"auto"}, true
	}
	return []string{strconv.Itoa(c.Reps)}, c.Reps > 1
}

// ParseArgs reads a run's flags from argv through the flag table. A flag
// takes the bare tokens that follow it, up to its arity; a token that
// starts with '-' is never a value. Every token the table does not
// consume — unknown flags, the bare tokens after them, stray positionals
// — is returned in rest, in order, for the caller to interpret or
// reject. Later flags override earlier ones, except -hosts, which
// accumulates. The config is not normalized.
func ParseArgs(argv []string) (cfg Config, rest []string, err error) {
	for i := 0; i < len(argv); {
		tok := argv[i]
		i++
		f, ok := flagByName[tok]
		if !ok {
			rest = append(rest, tok)
			continue
		}
		n := 0
		for i+n < len(argv) && (f.arity == variadic || n < f.arity) && !strings.HasPrefix(argv[i+n], "-") {
			n++
		}
		if n < f.arity {
			return cfg, rest, fmt.Errorf("core: %s requires %s", tok, f.want)
		}
		if err := f.parse(&cfg, append([]string(nil), argv[i:i+n]...)); err != nil {
			return cfg, rest, err
		}
		i += n
	}
	return cfg, rest, nil
}

// Args renders the config as the run flags of the equivalent fex
// command line, in table order. For a normalized config, ParseArgs of
// the result gives back a config that normalizes to the same one.
func (c Config) Args() []string {
	var args []string
	for _, f := range runFlags {
		if f.render == nil {
			continue
		}
		if vals, ok := f.render(c); ok {
			args = append(append(args, f.names[0]), vals...)
		}
	}
	return args
}

// String renders the config as the equivalent fex command line.
func (c Config) String() string {
	return "fex run " + strings.Join(c.Args(), " ")
}
