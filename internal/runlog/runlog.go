// Package runlog defines FEX's on-disk experiment log format and its parser.
//
// The run step of every experiment appends structured records to a log; the
// collect step parses the log back into measurement records which are then
// aggregated into a CSV table (§II-A of the paper: "The collect step parses
// the log, extracts the measurement results, processes them in a
// user-specified way, and stores into a CSV table"). The paper also notes
// that FEX "outputs various environment details, so that the complete
// experimental setup is stored in the log file" — Header records carry that
// setup.
//
// The format is line-oriented: one record per line, fields separated by
// "|", "key=value" measurement fields. It is deliberately greppable, like
// the raw benchmark logs FEX's Python collect scripts consume.
package runlog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fex/internal/measure"
)

// Record kinds.
const (
	kindHeader  = "HDR"
	kindEnv     = "ENV"
	kindMeasure = "RUN"
	kindNote    = "NOTE"
)

// ErrBadRecord reports a malformed log line.
var ErrBadRecord = errors.New("runlog: malformed record")

// Header describes one experiment execution; it is written once at the top
// of a log.
type Header struct {
	Experiment string
	BuildTypes []string
	Benchmarks []string
	Threads    []int
	Reps       int
	Input      string
	StartedAt  time.Time
}

// Measurement is one benchmark execution's results.
type Measurement struct {
	// Benchmark is the benchmark name (e.g. "fft").
	Benchmark string
	// Suite is the suite the benchmark belongs to (e.g. "splash").
	Suite string
	// BuildType identifies the build configuration (e.g. "gcc_native").
	BuildType string
	// Threads is the thread count of this run.
	Threads int
	// Rep is the repetition index (0-based).
	Rep int
	// Values carries the measured metrics (cycles, instructions, wall_ns,
	// …) as a typed vector, sorted by metric name — the order records
	// render in. Writing does not retain the vector, so hot-path callers
	// release pooled vectors right after WriteMeasurement.
	Values *measure.MetricVector
}

// Note is free-form commentary (dry runs, warnings).
type Note struct {
	Text string
}

// Writer serializes records to an io.Writer. It is safe for concurrent
// use: each record is written atomically under an internal lock, so
// parallel experiment cells can share one Writer without tearing lines.
// Record *ordering* under concurrency is whatever the scheduler produces;
// callers that need deterministic logs buffer records per cell in a Shard
// and merge the shards in canonical order via Append.
//
// Records are rendered into a scratch buffer reused across writes
// (strconv.Append* onto []byte, no fmt, no string joining), so the
// measurement hot loop — one WriteMeasurement per repetition — allocates
// nothing once the buffer has grown to record size.
type Writer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte // scratch record buffer, reused under mu
	err error

	// view is the parsed form of every record written so far, kept by a
	// run writer (NewRunWriter) and nil otherwise; lines counts the
	// lines written, so a parse error names the line of the final text.
	view    *Log
	lines   int
	viewErr error
}

// NewWriter returns a log writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// NewRunWriter returns a log writer on w that also keeps the parsed view
// of everything it writes, returned by Log: the collect step's input
// without a second parse of the finished log. Appended shards that carry
// their own parse (ParseShard, Shard.Parse) merge those records; every
// other record — the header, the environment, records written to the
// writer directly and unparsed shards — is parsed once, as it is written.
func NewRunWriter(w io.Writer) *Writer {
	lw := NewWriter(w)
	lw.view = &Log{}
	return lw
}

// Log returns the writer's parsed view: what Parse returns for the text
// written so far, or its error. It is nil for a writer not made by
// NewRunWriter. The view is the writer's own; it stays valid, and must
// not be modified, while the writer is in use.
func (lw *Writer) Log() (*Log, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.viewErr != nil {
		return nil, lw.viewErr
	}
	return lw.view, nil
}

// flushLine writes the scratch buffer (one rendered record, built by the
// caller under lw.mu) terminated with a newline, parsing it into a run
// writer's view.
func (lw *Writer) flushLine(b []byte) {
	if lw.view != nil && lw.viewErr == nil {
		parsedBytes.Add(uint64(len(b) + 1))
		lw.lines++
		if err := lw.view.parseLine(string(b)); err != nil {
			lw.viewErr = fmt.Errorf("line %d: %w", lw.lines, err)
		}
	}
	b = append(b, '\n')
	lw.buf = b[:0]
	if lw.err != nil {
		return
	}
	_, lw.err = lw.w.Write(b)
}

// WriteHeader writes the experiment header record.
func (lw *Writer) WriteHeader(h Header) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	b := lw.buf[:0]
	b = append(b, kindHeader...)
	b = append(b, "|experiment="...)
	b = append(b, h.Experiment...)
	b = append(b, "|types="...)
	for i, t := range h.BuildTypes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, t...)
	}
	b = append(b, "|benchmarks="...)
	for i, bench := range h.Benchmarks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, bench...)
	}
	b = append(b, "|threads="...)
	for i, t := range h.Threads {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	b = append(b, "|reps="...)
	b = strconv.AppendInt(b, int64(h.Reps), 10)
	b = append(b, "|input="...)
	b = append(b, h.Input...)
	b = append(b, "|started="...)
	b = h.StartedAt.UTC().AppendFormat(b, time.RFC3339)
	lw.flushLine(b)
}

// WriteEnv records the resolved environment (for reproducibility).
func (lw *Writer) WriteEnv(vars []string) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	for _, v := range vars {
		b := lw.buf[:0]
		b = append(b, kindEnv...)
		b = append(b, '|')
		b = append(b, v...)
		lw.flushLine(b)
	}
}

// WriteMeasurement appends one measurement record. Metrics render in
// sorted name order — the vector's iteration order.
func (lw *Writer) WriteMeasurement(m Measurement) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	b := lw.buf[:0]
	b = append(b, kindMeasure...)
	b = append(b, "|suite="...)
	b = append(b, m.Suite...)
	b = append(b, "|bench="...)
	b = append(b, m.Benchmark...)
	b = append(b, "|type="...)
	b = append(b, m.BuildType...)
	b = append(b, "|threads="...)
	b = strconv.AppendInt(b, int64(m.Threads), 10)
	b = append(b, "|rep="...)
	b = strconv.AppendInt(b, int64(m.Rep), 10)
	for i := 0; i < m.Values.Len(); i++ {
		name, v := m.Values.At(i)
		b = append(b, '|')
		b = append(b, name...)
		b = append(b, '=')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	lw.flushLine(b)
}

// WriteNote appends a free-form note.
func (lw *Writer) WriteNote(text string) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	b := lw.buf[:0]
	b = append(b, kindNote...)
	b = append(b, '|')
	start := len(b)
	b = append(b, text...)
	for i := start; i < len(b); i++ {
		if b[i] == '\n' {
			b[i] = ' '
		}
	}
	lw.flushLine(b)
}

// Flush flushes buffered records and returns the first error encountered.
func (lw *Writer) Flush() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return lw.err
	}
	return lw.w.Flush()
}

// Shard is an in-memory log fragment: a private Writer one experiment
// cell appends to while running concurrently with other cells. After the
// run, shards are merged into the main log in canonical loop order with
// Writer.Append, which makes a parallel run's log byte-identical to the
// serial run's.
type Shard struct {
	// text holds the shard's records while it has no writer: the text
	// ParseShard was given, kept as is.
	text string
	// w writes into buf; Writer creates both on first use, moving text
	// into buf.
	buf strings.Builder
	w   *Writer
	// log is the shard's parsed records and lines the number of lines
	// of its text, set by Parse (or ParseShard).
	log   *Log
	lines int
}

// NewShard returns an empty log fragment.
func NewShard() *Shard { return &Shard{} }

// Writer returns the shard's record writer. Writing to a parsed shard
// drops its parse, so Append parses the records written since.
func (s *Shard) Writer() *Writer {
	if s.w == nil {
		s.buf.WriteString(s.text)
		s.text = ""
		s.w = NewWriter(&s.buf)
		s.log, s.lines = nil, 0
	}
	return s.w
}

// Text flushes the shard and returns its accumulated records as log text —
// what a cluster worker ships back to the coordinator (the "fetch the
// logs" step of a remote cell).
func (s *Shard) Text() (string, error) {
	if s.w == nil {
		return s.text, nil
	}
	if err := s.w.Flush(); err != nil {
		return "", err
	}
	return s.buf.String(), nil
}

// ParseShard checks that text — a shard's Text fetched from a cluster
// host or read back from the result store — is whole, well-formed log
// records, and returns it as a shard carrying its parse. Non-empty text
// must end in a newline: a transfer cut short mid-record would otherwise
// parse as a shorter, plausible value. The coordinator uses it so a
// corrupted shard fails (or is re-measured) instead of merging garbage
// into a run log, and so the merge does not parse the records again.
// The shard keeps text itself, not a copy.
func ParseShard(text string) (*Shard, error) {
	s := &Shard{text: text}
	if err := s.Parse(); err != nil {
		return nil, err
	}
	return s, nil
}

// Parse flushes the shard and parses its records, so Append merges them
// into a run writer's view without parsing them again. Call it once the
// shard is complete. On error the shard stays unparsed.
func (s *Shard) Parse() error {
	text, err := s.Text()
	if err != nil {
		return err
	}
	lg, n, err := parseShardText(text)
	if err != nil {
		return err
	}
	s.log, s.lines = lg, n
	return nil
}

// parseShardText parses whole shard text, returning its records and
// line count.
func parseShardText(text string) (*Log, int, error) {
	if text != "" && text[len(text)-1] != '\n' {
		return nil, 0, fmt.Errorf("%w: truncated: no newline after the last record", ErrBadRecord)
	}
	lg := &Log{}
	n, err := lg.parseText(text, 0)
	if err != nil {
		return nil, 0, err
	}
	return lg, n, nil
}

// ValidateText reports whether text is whole, well-formed shard text,
// exactly as ParseShard checks it, without keeping the parse. Run paths
// call ParseShard; the benchmark harness times this check.
func ValidateText(text string) error {
	_, _, err := parseShardText(text)
	return err
}

// Append flushes each shard and appends its records to lw in argument
// order. Nil shards (cells that never ran, e.g. after an earlier cell
// failed) are skipped. A run writer merges each shard's parse into its
// view, parsing the text of a shard that carries none. It returns the
// first shard or writer error.
func (lw *Writer) Append(shards ...*Shard) error {
	for _, s := range shards {
		if s == nil {
			continue
		}
		text, err := s.Text()
		if err != nil {
			return err
		}
		lw.mu.Lock()
		if lw.err == nil {
			_, lw.err = lw.w.WriteString(text)
		}
		if lw.view != nil && lw.viewErr == nil {
			lw.record(s, text)
		}
		err = lw.err
		lw.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// record adds a shard's records to the view: its own parse if it has
// one, otherwise a parse of its text. Called under lw.mu.
func (lw *Writer) record(s *Shard, text string) {
	if s.log != nil {
		lw.view.merge(s.log)
		lw.lines += s.lines
		return
	}
	n, err := lw.view.parseText(text, lw.lines)
	lw.lines += n
	lw.viewErr = err
}

// Log is a fully parsed experiment log.
type Log struct {
	Header       Header
	Environment  []string
	Measurements []Measurement
	Notes        []Note
}

// parsedBytes counts the log bytes this process has parsed.
var parsedBytes atomic.Uint64

// ParsedBytes returns the number of log bytes parsed so far in this
// process, by Parse, ParseShard, Shard.Parse and run writers together:
// the counter behind the parse-once contract, read as a difference
// around the work measured.
func ParsedBytes() uint64 { return parsedBytes.Load() }

// Parse reads a complete log from r.
func Parse(r io.Reader) (*Log, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("runlog: read: %w", err)
	}
	out := &Log{}
	if _, err := out.parseText(sb.String(), 0); err != nil {
		return nil, err
	}
	return out, nil
}

// parseText parses the lines of text onto lg and returns how many lines
// it read. Line numbers in errors count from first+1, so a segment of a
// larger log reports the line of the whole. Records keep substrings of
// text.
func (lg *Log) parseText(text string, first int) (int, error) {
	parsedBytes.Add(uint64(len(text)))
	n := 0
	for text != "" {
		line, rest, _ := strings.Cut(text, "\n")
		text = rest
		n++
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if err := lg.parseLine(line); err != nil {
			return n, fmt.Errorf("line %d: %w", first+n, err)
		}
	}
	return n, nil
}

// parseLine parses one non-empty record line onto lg.
func (lg *Log) parseLine(line string) error {
	kind, fields, hasFields := strings.Cut(line, "|")
	switch kind {
	case kindHeader:
		h, err := parseHeader(fields, hasFields)
		if err != nil {
			return err
		}
		lg.Header = h
	case kindEnv:
		if !hasFields {
			return fmt.Errorf("%w: ENV without payload", ErrBadRecord)
		}
		lg.Environment = append(lg.Environment, fields)
	case kindMeasure:
		m, err := parseMeasurement(fields, hasFields)
		if err != nil {
			return err
		}
		lg.Measurements = append(lg.Measurements, m)
	case kindNote:
		lg.Notes = append(lg.Notes, Note{Text: fields})
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadRecord, kind)
	}
	return nil
}

// merge appends another log's records to lg, as if its text followed
// lg's: a later header replaces an earlier one.
func (lg *Log) merge(o *Log) {
	if o.Header.Experiment != "" {
		lg.Header = o.Header
	}
	lg.Environment = append(lg.Environment, o.Environment...)
	lg.Measurements = append(lg.Measurements, o.Measurements...)
	lg.Notes = append(lg.Notes, o.Notes...)
}

func kv(field string) (string, string, error) {
	i := strings.IndexByte(field, '=')
	if i < 0 {
		return "", "", fmt.Errorf("%w: field %q has no '='", ErrBadRecord, field)
	}
	return field[:i], field[i+1:], nil
}

func parseHeader(fields string, more bool) (Header, error) {
	var h Header
	for more {
		var f string
		f, fields, more = strings.Cut(fields, "|")
		k, v, err := kv(f)
		if err != nil {
			return h, err
		}
		switch k {
		case "experiment":
			h.Experiment = v
		case "types":
			if v != "" {
				h.BuildTypes = strings.Split(v, ",")
			}
		case "benchmarks":
			if v != "" {
				h.Benchmarks = strings.Split(v, ",")
			}
		case "threads":
			if v == "" {
				continue
			}
			for _, s := range strings.Split(v, ",") {
				n, err := strconv.Atoi(s)
				if err != nil {
					return h, fmt.Errorf("%w: bad thread count %q", ErrBadRecord, s)
				}
				h.Threads = append(h.Threads, n)
			}
		case "reps":
			n, err := strconv.Atoi(v)
			if err != nil {
				return h, fmt.Errorf("%w: bad reps %q", ErrBadRecord, v)
			}
			h.Reps = n
		case "input":
			h.Input = v
		case "started":
			t, err := time.Parse(time.RFC3339, v)
			if err != nil {
				return h, fmt.Errorf("%w: bad start time %q", ErrBadRecord, v)
			}
			h.StartedAt = t
		}
	}
	if h.Experiment == "" {
		return h, fmt.Errorf("%w: header missing experiment name", ErrBadRecord)
	}
	return h, nil
}

func parseMeasurement(fields string, more bool) (Measurement, error) {
	// Five of the fields are the cell coordinates; the rest are metrics.
	m := Measurement{Values: measure.NewMetricVectorCap(strings.Count(fields, "|") - 4)}
	for more {
		var f string
		f, fields, more = strings.Cut(fields, "|")
		k, v, err := kv(f)
		if err != nil {
			return m, err
		}
		switch k {
		case "suite":
			m.Suite = v
		case "bench":
			m.Benchmark = v
		case "type":
			m.BuildType = v
		case "threads":
			n, err := strconv.Atoi(v)
			if err != nil {
				return m, fmt.Errorf("%w: bad threads %q", ErrBadRecord, v)
			}
			m.Threads = n
		case "rep":
			n, err := strconv.Atoi(v)
			if err != nil {
				return m, fmt.Errorf("%w: bad rep %q", ErrBadRecord, v)
			}
			m.Rep = n
		default:
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return m, fmt.Errorf("%w: bad metric %s=%q", ErrBadRecord, k, v)
			}
			m.Values.Set(k, x)
		}
	}
	if m.Benchmark == "" || m.BuildType == "" {
		return m, fmt.Errorf("%w: measurement missing bench/type", ErrBadRecord)
	}
	return m, nil
}
