package store

import (
	"bytes"
	"fmt"
	"strconv"
)

// A cell repeats its measurement lines: under modeled metrics the lines
// of one thread count differ only in their rep= number. The store writes
// each such run of lines once. A run is a line followed by lines that
// each equal it with its rep= number advanced by one per line (the first
// line's rendering at rep+1, rep+2, …). A record that holds a run is
// written with a FOLD line instead of the DATA line:
//
//	FOLD|<body length>|<line>+<more>,<line>+<more>,…
//
// followed by the body: the payload with every run cut down to its first
// line. Each <line>+<more> entry names a run by its first line's index in
// the body and the count of lines it stands for after that one. Reading
// unfolds the body back to the exact payload bytes. A payload with no run
// is written with the DATA line, byte for byte as before folding existed.
//
// The fold is canonical: every run is folded, and folded whole (the
// greedy fold of foldRuns). A reader accepts a FOLD record only if it is
// the fold of what it unfolds to, so each payload has one FOLD rendering.

// foldTag opens the line of a record whose payload is stored folded.
const foldTag = "FOLD|"

// maxUnfolded caps the payload a FOLD record may unfold to. Put writes a
// larger payload unfolded, so no record it writes exceeds the cap, and a
// damaged count cannot make a read allocate without bound.
const maxUnfolded = 64 << 20

// repKey marks a line's repetition number: the first "|rep=" of the line,
// followed by up to maxRepDigits decimal digits.
const (
	repKey       = "|rep="
	maxRepDigits = 18
)

// repLine is a line split around its repetition number.
type repLine struct {
	prefix, suffix []byte
	rep            uint64
}

// parseRep splits line around its repetition number, if it has one.
func parseRep(line []byte) (repLine, bool) {
	i := bytes.Index(line, []byte(repKey))
	if i < 0 {
		return repLine{}, false
	}
	start := i + len(repKey)
	end := start
	var rep uint64
	for end < len(line) && end-start < maxRepDigits && '0' <= line[end] && line[end] <= '9' {
		rep = rep*10 + uint64(line[end]-'0')
		end++
	}
	if end == start || (end < len(line) && '0' <= line[end] && line[end] <= '9') {
		return repLine{}, false
	}
	return repLine{prefix: line[:start], suffix: line[end:], rep: rep}, true
}

// lineAt returns the length of r's line with repetition number rep at the
// head of data, or 0 when data does not start with it.
func (r *repLine) lineAt(data []byte, rep uint64) int {
	var num [20]byte
	digits := strconv.AppendUint(num[:0], rep, 10)
	n := len(r.prefix) + len(digits) + len(r.suffix)
	if len(data) < n || !bytes.Equal(data[:len(r.prefix)], r.prefix) ||
		!bytes.Equal(data[len(r.prefix):n-len(r.suffix)], digits) || !bytes.Equal(data[n-len(r.suffix):n], r.suffix) {
		return 0
	}
	return n
}

// lineEnd returns the end of the line starting at pos: one past its
// newline, or the end of data for a final line without one.
func lineEnd(data []byte, pos int) int {
	if i := bytes.IndexByte(data[pos:], '\n'); i >= 0 {
		return pos + i + 1
	}
	return len(data)
}

// foldRun is one run of a payload: its first line's index in the folded
// body, the count of lines after it, and the payload byte range of those
// lines, which the body omits.
type foldRun struct {
	line, more int
	from, to   int
}

// foldRuns appends the payload's runs to runs, in payload order. It is
// greedy: a run starts at the first line not in an earlier run and takes
// every following line that continues it. Only a line with a rep number
// can start a run, so the scan jumps from one such line to the next.
func foldRuns(payload []byte, runs []foldRun) []foldRun {
	line := 0 // the body index of the line at pos
	for pos := 0; pos < len(payload); line++ {
		i := bytes.Index(payload[pos:], []byte(repKey))
		if i < 0 {
			break
		}
		skip := bytes.LastIndexByte(payload[pos:pos+i], '\n') + 1
		line += bytes.Count(payload[pos:pos+skip], []byte("\n"))
		pos += skip
		end := lineEnd(payload, pos)
		head, ok := parseRep(payload[pos:end])
		pos = end
		if !ok || payload[end-1] != '\n' {
			continue
		}
		from, more := pos, 0
		for {
			n := head.lineAt(payload[pos:], head.rep+uint64(more)+1)
			if n == 0 {
				break
			}
			pos += n
			more++
		}
		if more > 0 {
			runs = append(runs, foldRun{line: line, more: more, from: from, to: pos})
		}
	}
	return runs
}

// encodeStored renders a record as the store writes it: folded when its
// payload holds a run (and unfolds to at most maxUnfolded bytes), else
// exactly as encode renders it.
func encodeStored(header, payload []byte) []byte {
	if len(payload) > maxUnfolded {
		return encode(header, payload)
	}
	var buf [8]foldRun
	runs := foldRuns(payload, buf[:0])
	if len(runs) == 0 {
		return encode(header, payload)
	}
	bodyLen := len(payload)
	for _, r := range runs {
		bodyLen -= r.to - r.from
	}
	var tag [128]byte
	t := append(tag[:0], foldTag...)
	t = strconv.AppendInt(t, int64(bodyLen), 10)
	for i, r := range runs {
		sep := byte(',')
		if i == 0 {
			sep = '|'
		}
		t = append(t, sep)
		t = strconv.AppendInt(t, int64(r.line), 10)
		t = append(t, '+')
		t = strconv.AppendInt(t, int64(r.more), 10)
	}
	t = append(t, '\n')
	out := make([]byte, 0, len(header)+len(t)+bodyLen)
	out = append(out, header...)
	out = append(out, t...)
	pos := 0
	for _, r := range runs {
		out = append(out, payload[pos:r.from]...)
		pos = r.to
	}
	return append(out, payload[pos:]...)
}

// parseCount parses a canonical decimal count: digits only, no sign, no
// leading zero, at most 18 digits.
func parseCount(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 || (b[0] == '0' && len(b) > 1) {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// decodePayload parses the payload line that follows a record's header,
// and the payload after it, from the head of rest. It returns the payload,
// the bytes consumed and whether the record was folded. A DATA payload
// shares rest's bytes; a folded one is unfolded into a new slice.
func decodePayload(rest []byte) (payload []byte, n int, folded bool, err error) {
	i := bytes.IndexByte(rest, '\n')
	if i < 0 {
		return nil, 0, false, fmt.Errorf("%w: missing DATA header", ErrCorrupt)
	}
	l, body := rest[:i], rest[i+1:]
	if table, ok := bytes.CutPrefix(l, []byte(foldTag)); ok {
		lenStr, table, _ := bytes.Cut(table, []byte("|"))
		size, ok := parseCount(lenStr)
		if !ok {
			return nil, 0, true, fmt.Errorf("%w: bad FOLD length %q", ErrCorrupt, l)
		}
		if len(body) < size {
			return nil, 0, true, fmt.Errorf("%w: body is %d bytes, FOLD header says %d", ErrCorrupt, len(body), size)
		}
		payload, err := unfold(body[:size], table)
		return payload, i + 1 + size, true, err
	}
	lenStr, ok := bytes.CutPrefix(l, []byte(dataTag))
	if !ok {
		return nil, 0, false, fmt.Errorf("%w: missing DATA header", ErrCorrupt)
	}
	size, ok := parseCount(lenStr)
	if !ok {
		return nil, 0, false, fmt.Errorf("%w: bad DATA length %q", ErrCorrupt, l)
	}
	if len(body) < size {
		return nil, 0, false, fmt.Errorf("%w: payload is %d bytes, DATA header says %d", ErrCorrupt, len(body), size)
	}
	return body[:size], i + 1 + size, false, nil
}

// unfold expands a folded body by its run table (the FOLD line after the
// body length) and checks that the record is the canonical fold of the
// payload it unfolds to.
func unfold(body, table []byte) ([]byte, error) {
	if len(table) == 0 {
		return nil, fmt.Errorf("%w: FOLD record folds nothing", ErrCorrupt)
	}
	var buf [8]foldRun
	runs := buf[:0]
	for next := true; next; {
		var entry, lineStr, moreStr []byte
		entry, table, next = bytes.Cut(table, []byte(","))
		lineStr, moreStr, _ = bytes.Cut(entry, []byte("+"))
		line, ok1 := parseCount(lineStr)
		more, ok2 := parseCount(moreStr)
		if !ok1 || !ok2 || more == 0 || more > maxUnfolded || (len(runs) > 0 && line <= runs[len(runs)-1].line) {
			return nil, fmt.Errorf("%w: bad FOLD entry %q", ErrCorrupt, entry)
		}
		runs = append(runs, foldRun{line: line, more: more})
	}
	// Size the payload: each run adds its head line rendered at the next
	// more repetition numbers.
	size, pos, line := len(body), 0, 0
	var headBuf [8]repLine
	heads := headBuf[:0]
	for i := range runs {
		r := &runs[i]
		for ; line < r.line && pos < len(body); line++ {
			pos = lineEnd(body, pos)
		}
		if pos == len(body) {
			return nil, fmt.Errorf("%w: FOLD entry %d+%d past the body's lines", ErrCorrupt, r.line, r.more)
		}
		end := lineEnd(body, pos)
		head, ok := parseRep(body[pos:end])
		if !ok {
			return nil, fmt.Errorf("%w: FOLD entry %d+%d names a line without a rep number", ErrCorrupt, r.line, r.more)
		}
		heads = append(heads, head)
		r.from = end
		size += r.more*(len(head.prefix)+len(head.suffix)) + repDigits(head.rep+1, head.rep+uint64(r.more))
		if size > maxUnfolded {
			return nil, fmt.Errorf("%w: FOLD record unfolds past %d bytes", ErrCorrupt, maxUnfolded)
		}
		pos, line = end, line+1
	}
	out := make([]byte, 0, size)
	pos = 0
	for i, r := range runs {
		out = append(out, body[pos:r.from]...)
		pos = r.from
		head := &heads[i]
		for k := 1; k <= r.more; k++ {
			out = append(out, head.prefix...)
			out = strconv.AppendUint(out, head.rep+uint64(k), 10)
			out = append(out, head.suffix...)
		}
	}
	out = append(out, body[pos:]...)
	// The record is canonical when folding its payload again finds
	// exactly its runs: none left partly or wholly unfolded, none cut
	// short and none that is not a run.
	var again [8]foldRun
	refold := foldRuns(out, again[:0])
	if len(refold) != len(runs) {
		return nil, fmt.Errorf("%w: non-canonical FOLD: %d runs, the payload folds to %d", ErrCorrupt, len(runs), len(refold))
	}
	for i, r := range refold {
		if r.line != runs[i].line || r.more != runs[i].more {
			return nil, fmt.Errorf("%w: non-canonical FOLD entry %d+%d, the payload folds to %d+%d", ErrCorrupt, runs[i].line, runs[i].more, r.line, r.more)
		}
	}
	return out, nil
}

// repDigits returns the total count of decimal digits of the numbers
// first through last.
func repDigits(first, last uint64) int {
	total := 0
	for width, top := 1, uint64(9); first <= last; width, top = width+1, top*10+9 {
		if first <= top {
			end := min(last, top)
			total += int(end-first+1) * width
			first = end + 1
		}
	}
	return total
}
