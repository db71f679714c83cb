// Package diff is FEX's cross-run differential analyzer: it compares two
// persisted run sets — the content-addressed cell records the result store
// accumulates (see internal/store) — statistically, cell by cell, and
// renders the verdict as a table, a speedup chart, and a canonical JSON
// report. "fex gate" turns the verdict into a CI exit code, making fex
// self-hosting: a committed baseline run set gates every change to the
// system that produced it.
//
// A run set is loaded either from a live result store (the --state file of
// a previous invocation) or from a directory of record files previously
// written by WriteDir ("fex export"). Cells are joined on the experiment
// configuration surface a user thinks in — (experiment, suite, benchmark,
// build type, thread sweep, input, dims) — deliberately excluding the
// repetition policy, the measurement tool, and the config hash, so a
// baseline taken under an older cost model or a different -r policy still
// joins against today's candidate. Cells present on only one side are
// never silently dropped: the join reports them explicitly.
package diff

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fex/internal/store"
)

// Cell is one persisted experiment cell of a run set.
type Cell struct {
	Fingerprint store.Fingerprint
	// Payload is the cell's run-log shard: the exact RUN records the cell
	// appended when it was measured.
	Payload []byte
}

// RunSet is one loaded run: every stored cell, sorted by content address.
type RunSet struct {
	// Source describes where the run set came from (a directory path, a
	// state file path, or "store") — carried into reports for provenance.
	Source string
	// Cells is sorted by fingerprint key and free of duplicate keys.
	Cells []Cell
}

// NewRunSet assembles a run set from decoded records: it sorts cells by
// content address, rejects duplicate keys, and leaves the records
// otherwise untouched.
func NewRunSet(records []store.Record, source string) (*RunSet, error) {
	rs := &RunSet{Source: source, Cells: make([]Cell, 0, len(records))}
	for _, rec := range records {
		rs.Cells = append(rs.Cells, Cell{Fingerprint: rec.Fingerprint, Payload: rec.Payload})
	}
	sort.Slice(rs.Cells, func(i, j int) bool {
		return rs.Cells[i].Fingerprint.Key() < rs.Cells[j].Fingerprint.Key()
	})
	for i := 1; i < len(rs.Cells); i++ {
		if rs.Cells[i].Fingerprint.Key() == rs.Cells[i-1].Fingerprint.Key() {
			return nil, fmt.Errorf("diff: %s: duplicate cell %s", source, rs.Cells[i].Fingerprint.Key())
		}
	}
	return rs, nil
}

// Digest is a content address for the whole run set: the hex SHA-256 of
// every record's canonical encoding, in key order. Two run sets with the
// same digest hold byte-identical cells, so reports embed it as the
// provenance fingerprint of what exactly was compared.
func (rs *RunSet) Digest() string {
	h := sha256.New()
	for _, c := range rs.Cells {
		h.Write(store.Encode(store.Record{Fingerprint: c.Fingerprint, Payload: c.Payload}))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FromStore loads every record of a live result store as a run set,
// through Records: one walk of the store, then one read per record.
func FromStore(st *store.Store, source string) (*RunSet, error) {
	records, err := st.Records()
	if err != nil {
		return nil, fmt.Errorf("diff: load %s: %w", source, err)
	}
	return NewRunSet(records, source)
}

// LoadDir loads a run set from a host directory of record files — the
// layout WriteDir produces (one file per cell, named by content address,
// sharded by the first key byte pair), though any nesting is accepted.
// Every file must decode as a store record whose embedded fingerprint
// matches its file name, so a tampered or stray file fails the load
// instead of skewing the analysis.
func LoadDir(dir string) (*RunSet, error) {
	var records []store.Record
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "tmp" && path != dir {
				return filepath.SkipDir
			}
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rec, err := store.Decode(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rec.Fingerprint.Key() != d.Name() {
			return fmt.Errorf("%s: record key %s does not match file name", path, rec.Fingerprint.Key())
		}
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("diff: load %s: %w", dir, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("diff: load %s: no run records found", dir)
	}
	return NewRunSet(records, dir)
}

// WriteDir exports the run set to a host directory in the store's sharded
// layout (dir/ab/abcdef...), one record file per cell — the "fex export"
// action. The resulting directory is what CI commits as a baseline and
// what LoadDir reads back; WriteDir∘LoadDir is the identity.
//
// The directory must not already contain anything: stale records from a
// previous export carry different content addresses (any config change
// changes the fingerprint) but the SAME join keys, so mixing exports
// would poison every later diff with "ambiguous cell" errors. Remove the
// old baseline first, deliberately.
//
// The export is all-or-nothing: records are staged into a sibling
// directory and renamed into place (the store's own stage-then-rename
// idiom), so an interrupted export never leaves a partial run set that a
// later load would silently accept as a truncated baseline.
func WriteDir(rs *RunSet, dir string) error {
	if st, err := os.Stat(dir); err == nil && !st.IsDir() {
		return fmt.Errorf("diff: export: %s exists and is not a directory", dir)
	}
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		return fmt.Errorf("diff: export: %s is not empty (remove the old run set first)", dir)
	}
	stage := dir + ".fex-export-stage"
	if err := os.RemoveAll(stage); err != nil {
		return fmt.Errorf("diff: export: %w", err)
	}
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return fmt.Errorf("diff: export: %w", err)
	}
	for _, c := range rs.Cells {
		key := c.Fingerprint.Key()
		shard := filepath.Join(stage, key[:2])
		if err := os.MkdirAll(shard, 0o755); err != nil {
			return fmt.Errorf("diff: export: %w", err)
		}
		data := store.Encode(store.Record{Fingerprint: c.Fingerprint, Payload: c.Payload})
		if err := os.WriteFile(filepath.Join(shard, key), data, 0o644); err != nil {
			return fmt.Errorf("diff: export: %w", err)
		}
	}
	// The target is absent or an empty directory (checked above); clear
	// the empty directory so the staged tree can take its place.
	if err := os.Remove(dir); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("diff: export: %w", err)
	}
	if err := os.Rename(stage, dir); err != nil {
		return fmt.Errorf("diff: export: %w", err)
	}
	return nil
}

// Key is the join key of a cell: the experiment configuration surface two
// runs are compared on. Reps policy, measurement tool, and config hash are
// deliberately absent — a baseline recorded under a different repetition
// policy or cost-model revision still joins against today's run; what must
// match is what the measurement is OF, not how many times it was taken.
type Key struct {
	Experiment string `json:"experiment"`
	Suite      string `json:"suite"`
	Benchmark  string `json:"benchmark"`
	BuildType  string `json:"build_type"`
	// Threads is the canonical thread sweep ("1,2,4").
	Threads string `json:"threads"`
	Input   string `json:"input"`
	Dims    string `json:"dims,omitempty"`
}

// KeyOf projects a fingerprint onto its join key.
func KeyOf(fp store.Fingerprint) Key {
	threads := make([]string, len(fp.Threads))
	for i, t := range fp.Threads {
		threads[i] = fmt.Sprintf("%d", t)
	}
	return Key{
		Experiment: fp.Experiment,
		Suite:      fp.Suite,
		Benchmark:  fp.Benchmark,
		BuildType:  fp.BuildType,
		Threads:    strings.Join(threads, ","),
		Input:      fp.Input,
		Dims:       fp.Dims,
	}
}

// String renders the key for error messages and tables.
func (k Key) String() string {
	s := fmt.Sprintf("%s/%s/%s [%s]", k.Experiment, k.Suite, k.Benchmark, k.BuildType)
	if k.Threads != "" {
		s += " m=" + k.Threads
	}
	if k.Input != "" {
		s += " i=" + k.Input
	}
	if k.Dims != "" {
		s += " dims=" + k.Dims
	}
	return s
}

// less orders keys canonically (field by field, in declaration order).
func (k Key) less(o Key) bool {
	if k.Experiment != o.Experiment {
		return k.Experiment < o.Experiment
	}
	if k.Suite != o.Suite {
		return k.Suite < o.Suite
	}
	if k.Benchmark != o.Benchmark {
		return k.Benchmark < o.Benchmark
	}
	if k.BuildType != o.BuildType {
		return k.BuildType < o.BuildType
	}
	if k.Threads != o.Threads {
		return k.Threads < o.Threads
	}
	if k.Input != o.Input {
		return k.Input < o.Input
	}
	return k.Dims < o.Dims
}

// Pair is one joined cell: the same experiment configuration measured in
// both runs.
type Pair struct {
	Key       Key
	Baseline  Cell
	Candidate Cell
}

// Join is the outcome of matching two run sets cell by cell. Every input
// cell lands in exactly one of Pairs, BaselineOnly, or CandidateOnly —
// unmatched cells are reported, never dropped.
type Join struct {
	Pairs []Pair
	// BaselineOnly and CandidateOnly are the cells with no counterpart on
	// the other side, in canonical key order.
	BaselineOnly  []Cell
	CandidateOnly []Cell
}

// JoinCells matches the cells of two run sets on their join keys. Two
// cells of ONE run set sharing a join key (the same configuration stored
// under, say, two repetition policies) make the comparison ambiguous and
// are rejected with an error.
func JoinCells(base, cand *RunSet) (*Join, error) {
	index := func(rs *RunSet) (map[Key]Cell, []Key, error) {
		m := make(map[Key]Cell, len(rs.Cells))
		order := make([]Key, 0, len(rs.Cells))
		for _, c := range rs.Cells {
			k := KeyOf(c.Fingerprint)
			if prev, dup := m[k]; dup {
				return nil, nil, fmt.Errorf("diff: %s: cells %s and %s share join key %s (ambiguous; clean one)",
					rs.Source, prev.Fingerprint.Key(), c.Fingerprint.Key(), k)
			}
			m[k] = c
			order = append(order, k)
		}
		sort.Slice(order, func(i, j int) bool { return order[i].less(order[j]) })
		return m, order, nil
	}
	bm, bKeys, err := index(base)
	if err != nil {
		return nil, err
	}
	cm, cKeys, err := index(cand)
	if err != nil {
		return nil, err
	}
	j := &Join{}
	for _, k := range bKeys {
		if cc, ok := cm[k]; ok {
			j.Pairs = append(j.Pairs, Pair{Key: k, Baseline: bm[k], Candidate: cc})
		} else {
			j.BaselineOnly = append(j.BaselineOnly, bm[k])
		}
	}
	for _, k := range cKeys {
		if _, ok := bm[k]; !ok {
			j.CandidateOnly = append(j.CandidateOnly, cm[k])
		}
	}
	return j, nil
}
