// Package store is FEX's persistent, content-addressed result store: the
// subsystem that turns one-shot experiment invocations into incremental
// evaluation. Every experiment cell — one (build type, benchmark) pair with
// its thread/repetition sweep — is keyed by a canonical Fingerprint of
// everything that determines its measurements; the cell's run-log shard is
// persisted under that key through the vfs layer. A later -resume run asks
// the store for each cell's fingerprint and replays stored shards instead
// of re-measuring, while any change to the configuration, the cost model,
// or the repetition policy changes the fingerprint and misses cleanly.
//
// The store is deliberately log-shaped rather than value-shaped: what it
// persists is the exact bytes the cell would have appended to the run log,
// so a resumed run's log — and therefore its collected CSV — is
// byte-identical to a cold serial run's. Eviction is wholesale ("fex
// clean"): entries are immutable and content-addressed, so stale results
// are never replayed, only orphaned.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
)

// Fingerprint identifies one experiment cell's full measurement context.
// Two cells with equal fingerprints produce identical run-log records (up
// to live wall-clock noise), so a stored shard under the fingerprint's key
// can stand in for re-measuring the cell.
type Fingerprint struct {
	// Experiment is the experiment name (-n).
	Experiment string
	// Suite and Benchmark name the workload of the cell.
	Suite     string
	Benchmark string
	// BuildType is the cell's build configuration (e.g. "gcc_native").
	BuildType string
	// Threads is the thread sweep executed inside the cell (-m).
	Threads []int
	// Reps is the repetition policy: a fixed count ("4") or the adaptive
	// spec ("auto:<level>,<relwidth>:pilot=5:cap=64").
	Reps string
	// Input is the input size class (-i).
	Input string
	// Tool is the measurement tool name.
	Tool string
	// Dims carries runner-specific extra dimensions (e.g. the input sweep
	// of a variable-input cell); empty for the standard runner.
	Dims string
	// ConfigHash digests the remaining measurement context: the cost-model
	// calibration, debug mode, and modeled-time mode. Any change there
	// invalidates stored cells wholesale.
	ConfigHash string
}

// fieldNames are the fingerprint's field names in canonical order: the
// order of Canonical's lines and of a record's F lines.
var fieldNames = [...]string{"experiment", "suite", "bench", "type", "threads", "reps", "input", "tool", "dims", "confighash"}

// threadsField is the index of the thread list in fieldNames, the one
// field that is not a string.
const threadsField = 4

// values returns the fingerprint's string fields in canonical order;
// the thread list's slot is empty (see appendThreads).
func (fp *Fingerprint) values() [len(fieldNames)]string {
	return [...]string{fp.Experiment, fp.Suite, fp.Benchmark, fp.BuildType, "", fp.Reps, fp.Input, fp.Tool, fp.Dims, fp.ConfigHash}
}

// appendThreads appends the thread list as comma-separated decimals —
// digits, '-' and commas only, so it needs no quoting.
func appendThreads(b []byte, threads []int) []byte {
	for i, t := range threads {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	return b
}

// appendCanonical appends the canonical string (see Canonical) to b.
func (fp *Fingerprint) appendCanonical(b []byte) []byte {
	for i, v := range fp.values() {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, fieldNames[i]...)
		b = append(b, '=')
		if i == threadsField {
			b = append(b, '"')
			b = appendThreads(b, fp.Threads)
			b = append(b, '"')
		} else {
			b = strconv.AppendQuote(b, v)
		}
	}
	return b
}

// appendHeader appends the record header Encode writes ahead of the DATA
// line: the magic line and one F|name|value line per field, quoted with
// strconv.Quote except for the unquoted thread list.
func (fp *Fingerprint) appendHeader(b []byte) []byte {
	b = append(b, recordMagic...)
	b = append(b, '\n')
	for i, v := range fp.values() {
		b = append(b, "F|"...)
		b = append(b, fieldNames[i]...)
		b = append(b, '|')
		if i == threadsField {
			b = appendThreads(b, fp.Threads)
		} else {
			b = strconv.AppendQuote(b, v)
		}
		b = append(b, '\n')
	}
	return b
}

// Canonical renders the fingerprint as a canonical string: one
// name=quoted-value pair per field, in fixed order. Quoting makes the
// encoding injective — no two distinct fingerprints share a canonical
// string, so keying on its digest cannot alias cells whose field values
// merely concatenate alike.
func (fp Fingerprint) Canonical() string {
	var buf [256]byte
	return string(fp.appendCanonical(buf[:0]))
}

// Key returns the fingerprint's content address: the hex SHA-256 of its
// canonical string.
func (fp Fingerprint) Key() string {
	var buf [256]byte
	sum := sha256.Sum256(fp.appendCanonical(buf[:0]))
	return hex.EncodeToString(sum[:])
}

// Equal reports whether two fingerprints are identical: whether their
// canonical strings are equal. A nil and an empty thread list render
// alike, so they are equal.
func (fp Fingerprint) Equal(other Fingerprint) bool {
	return fp.Experiment == other.Experiment && fp.Suite == other.Suite &&
		fp.Benchmark == other.Benchmark && fp.BuildType == other.BuildType &&
		slices.Equal(fp.Threads, other.Threads) && fp.Reps == other.Reps &&
		fp.Input == other.Input && fp.Tool == other.Tool && fp.Dims == other.Dims &&
		fp.ConfigHash == other.ConfigHash
}

// Cell is a fingerprint rendered once: its content address and its record
// header, computed together so that a run's dedup, lookups and puts of
// the cell share one rendering.
type Cell struct {
	Fingerprint Fingerprint
	key         string
	header      []byte
}

// NewCell renders fp's content address and record header.
func NewCell(fp Fingerprint) Cell {
	var buf [512]byte
	return Cell{Fingerprint: fp, key: fp.Key(), header: slices.Clone(fp.appendHeader(buf[:0]))}
}

// Key returns the cell's content address, Fingerprint.Key.
func (c Cell) Key() string { return c.key }
