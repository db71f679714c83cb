package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"fex/internal/core"
)

// reference produces the serial tier's output for a config: the same
// Run with one job, no hosts and no store replay. Under modeled time the
// CSV is a pure function of the config, so every tier, and every replay,
// must reproduce it byte for byte.
type reference struct {
	fx  *core.Fex
	csv map[string][]byte
}

func newReference() (*reference, error) {
	fx, err := newFramework()
	if err != nil {
		return nil, err
	}
	return &reference{fx: fx, csv: map[string][]byte{}}, nil
}

func configKey(cfg core.Config) string {
	return fmt.Sprintf("%s|%s|%s|%d|%s|%v", cfg.Experiment, strings.Join(cfg.BuildTypes, ","),
		strings.Join(cfg.Benchmarks, ","), cfg.Reps, cfg.Input, cfg.ModelTime)
}

// verify compares an operation's CSV with the serial tier's.
func (r *reference) verify(c check) error {
	cfg := c.cfg
	cfg.Jobs, cfg.Hosts, cfg.Resume = 1, nil, false
	key := configKey(cfg)
	want, ok := r.csv[key]
	if !ok {
		report, err := r.fx.Run(context.Background(), cfg)
		if err != nil {
			return fmt.Errorf("%s: serial reference run: %w", c.op, err)
		}
		if want, err = r.fx.ReadResult(report.RunCSVPath); err != nil {
			return fmt.Errorf("%s: serial reference csv: %w", c.op, err)
		}
		r.csv[key] = want
	}
	if bytes.Equal(want, c.csv) {
		return nil
	}
	return fmt.Errorf("%s (%s): CSV differs from the serial tier's: %s", c.op, cfg.String(), firstDiff(want, c.csv))
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	return "same lines, different bytes"
}
