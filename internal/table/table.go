// Package table is the small typed table FEX's collect and plot stages
// share — the role Pandas plays in the paper. A collect stage builds one
// row by row (Builder) or from whole columns (New) and stores it as CSV;
// the plot stage reads that CSV back (ReadCSV), inferring each column's
// kind.
//
// A Table is column-oriented: every column has a name and a uniform kind
// (string or float64). Rows are addressed by index. A Table is never
// mutated after it is built.
package table

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind is the type of a column.
type Kind int

// Column kinds.
const (
	String Kind = iota + 1
	Float
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Float:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Common errors.
var (
	// ErrNoColumn reports a reference to a column that does not exist.
	ErrNoColumn = errors.New("table: no such column")
	// ErrKindMismatch reports an operation applied to a column of the wrong kind.
	ErrKindMismatch = errors.New("table: column kind mismatch")
	// ErrLengthMismatch reports column length disagreement.
	ErrLengthMismatch = errors.New("table: column length mismatch")
)

// Column is a named, uniformly typed vector.
type Column struct {
	Name    string
	Kind    Kind
	Strings []string  // populated when Kind == String
	Floats  []float64 // populated when Kind == Float
}

// Len returns the column length.
func (c *Column) Len() int {
	if c.Kind == String {
		return len(c.Strings)
	}
	return len(c.Floats)
}

// appendCell renders the i-th cell onto b, used by the text renderer.
func (c *Column) appendCell(b []byte, i int) []byte {
	if c.Kind == String {
		return append(b, c.Strings[i]...)
	}
	return strconv.AppendFloat(b, c.Floats[i], 'g', -1, 64)
}

// cellWidth returns the rendered width of the i-th cell without
// materializing a string for string cells.
func (c *Column) cellWidth(i int, scratch []byte) int {
	if c.Kind == String {
		return len(c.Strings[i])
	}
	return len(strconv.AppendFloat(scratch[:0], c.Floats[i], 'g', -1, 64))
}

// Table is an immutable column-oriented table.
type Table struct {
	cols  []Column
	index map[string]int
}

// New builds a Table from columns. All columns must have equal length and
// distinct names. The Table keeps the columns' slices, not copies: the
// caller must not modify them afterwards.
func New(cols ...Column) (*Table, error) {
	t := &Table{cols: cols, index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := t.index[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		if c.Kind != String && c.Kind != Float {
			return nil, fmt.Errorf("table: column %q has invalid kind", c.Name)
		}
		if c.Len() != cols[0].Len() {
			return nil, fmt.Errorf("%w: column %q has %d rows, want %d", ErrLengthMismatch, c.Name, c.Len(), cols[0].Len())
		}
		t.index[c.Name] = i
	}
	return t, nil
}

// Builder assembles a Table row by row, appending each value straight
// into its typed column.
type Builder struct {
	cols []Column
}

// NewBuilder creates a Builder with the given schema. Names and kinds must
// have equal length.
func NewBuilder(names []string, kinds []Kind) (*Builder, error) {
	if len(names) != len(kinds) {
		return nil, fmt.Errorf("table: %d names but %d kinds", len(names), len(kinds))
	}
	seen := make(map[string]bool, len(names))
	cols := make([]Column, len(names))
	for i, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("table: duplicate column %q", n)
		}
		seen[n] = true
		cols[i] = Column{Name: n, Kind: kinds[i]}
	}
	return &Builder{cols: cols}, nil
}

// Append adds a row. Each value must be a string or float64 matching the
// column kind (ints are accepted for float columns). The whole row is
// checked before any value is appended, so a rejected row adds nothing.
func (b *Builder) Append(values ...any) error {
	if len(values) != len(b.cols) {
		return fmt.Errorf("table: row has %d values, want %d", len(values), len(b.cols))
	}
	for i, v := range values {
		ok := false
		switch v.(type) {
		case string:
			ok = b.cols[i].Kind == String
		case float64, int, int64:
			ok = b.cols[i].Kind == Float
		}
		if !ok {
			return fmt.Errorf("%w: column %q wants %v, got %T", ErrKindMismatch, b.cols[i].Name, b.cols[i].Kind, v)
		}
	}
	for i, v := range values {
		c := &b.cols[i]
		switch x := v.(type) {
		case string:
			c.Strings = append(c.Strings, x)
		case float64:
			c.Floats = append(c.Floats, x)
		case int:
			c.Floats = append(c.Floats, float64(x))
		case int64:
			c.Floats = append(c.Floats, float64(x))
		}
	}
	return nil
}

// Table returns the rows appended so far as a Table. The builder may
// keep appending: the Table holds its own column headers, and appends
// only write past the ends of the slices it holds.
func (b *Builder) Table() (*Table, error) {
	return New(append([]Column(nil), b.cols...)...)
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// Names returns the column names in order.
func (t *Table) Names() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Name
	}
	return out
}

// Col returns the named column.
func (t *Table) Col(name string) (*Column, error) {
	i, ok := t.index[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	return &t.cols[i], nil
}

// Strings returns the values of the named string column.
func (t *Table) Strings(name string) ([]string, error) {
	c, err := t.Col(name)
	if err != nil {
		return nil, err
	}
	if c.Kind != String {
		return nil, fmt.Errorf("%w: %q is %v", ErrKindMismatch, name, c.Kind)
	}
	return append([]string(nil), c.Strings...), nil
}

// Floats returns the values of the named float column.
func (t *Table) Floats(name string) ([]float64, error) {
	c, err := t.Col(name)
	if err != nil {
		return nil, err
	}
	if c.Kind != Float {
		return nil, fmt.Errorf("%w: %q is %v", ErrKindMismatch, name, c.Kind)
	}
	return append([]float64(nil), c.Floats...), nil
}

// csvFieldNeedsQuotes mirrors encoding/csv's quoting rule for the default
// comma separator: a field is quoted when it contains the separator, a
// quote, or a line break, or when it starts with a space (including the
// `\.` special case). Keeping the rule identical keeps AppendCSV output
// byte-identical to what the encoding/csv-based writer produced.
func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	if strings.ContainsAny(field, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// appendCSVField renders one CSV field onto b, quoting per
// csvFieldNeedsQuotes with inner quotes doubled. A lone field, the only
// one of its record, is quoted when empty too: unquoted, its record would
// be an empty line, which CSV readers skip.
func appendCSVField(b []byte, field string, lone bool) []byte {
	if lone && field == "" {
		return append(b, '"', '"')
	}
	if !csvFieldNeedsQuotes(field) {
		return append(b, field...)
	}
	b = append(b, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			b = append(b, '"', '"')
			continue
		}
		b = append(b, field[i])
	}
	return append(b, '"')
}

// AppendCSV renders the table in CSV form (header row first) onto dst and
// returns the extended buffer. Float cells render via strconv.AppendFloat
// directly into the buffer; with a dst of sufficient capacity the render
// allocates nothing — the form the allocation-regression tests pin.
func (t *Table) AppendCSV(dst []byte) []byte {
	for j := range t.cols {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = appendCSVField(dst, t.cols[j].Name, len(t.cols) == 1)
	}
	dst = append(dst, '\n')
	for i := 0; i < t.NumRows(); i++ {
		for j := range t.cols {
			if j > 0 {
				dst = append(dst, ',')
			}
			c := &t.cols[j]
			if c.Kind == String {
				dst = appendCSVField(dst, c.Strings[i], len(t.cols) == 1)
			} else {
				// Float renders never need quoting.
				dst = strconv.AppendFloat(dst, c.Floats[i], 'g', -1, 64)
			}
		}
		dst = append(dst, '\n')
	}
	return dst
}

// CSVString renders the table as a CSV string.
func (t *Table) CSVString() string {
	return string(t.AppendCSV(nil))
}

// ReadCSV parses a CSV document with a header row. A column is Float
// when every one of its cells parses with strconv.ParseFloat, and String
// otherwise, so a table AppendCSV wrote reads back with the kinds it had
// (a string column whose every cell is a number reads back as Float).
func ReadCSV(r io.Reader) (*Table, error) {
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, errors.New("table: empty csv")
	}
	// The csv reader has already checked every row has len(header) fields.
	header, rows := records[0], records[1:]
	cols := make([]Column, len(header))
	for i, name := range header {
		cols[i] = readColumn(name, rows, i)
	}
	return New(cols...)
}

// readColumn returns field i of every row as a column named name, Float
// if every field parses as a float.
func readColumn(name string, rows [][]string, i int) Column {
	floats := make([]float64, len(rows))
	for r, rec := range rows {
		v, err := strconv.ParseFloat(rec[i], 64)
		if err != nil {
			strs := make([]string, len(rows))
			for r, rec := range rows {
				strs[r] = rec[i]
			}
			return Column{Name: name, Kind: String, Strings: strs}
		}
		floats[r] = v
	}
	return Column{Name: name, Kind: Float, Floats: floats}
}

// appendPadded appends s onto b left-aligned in a field of the given
// width (the %-*s of the old fmt-based renderer).
func appendPadded(b []byte, s []byte, width int) []byte {
	b = append(b, s...)
	for n := width - len(s); n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

// AppendText renders the table as an aligned text grid onto dst and
// returns the extended buffer — the allocation-free form of String. Cell
// widths are computed with a small scratch buffer; nothing is formatted
// through fmt.
func (t *Table) AppendText(dst []byte) []byte {
	var scratch [32]byte  // widest float64 'g' render fits comfortably
	var widthsArr [24]int // stack space for the typical column count
	widths := widthsArr[:]
	if len(t.cols) > len(widthsArr) {
		widths = make([]int, len(t.cols))
	} else {
		widths = widths[:len(t.cols)]
	}
	for i := range t.cols {
		c := &t.cols[i]
		widths[i] = len(c.Name)
		for r := 0; r < c.Len(); r++ {
			if l := c.cellWidth(r, scratch[:]); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var cellBuf [48]byte
	for i := range t.cols {
		if i > 0 {
			dst = append(dst, ' ', ' ')
		}
		dst = appendPadded(dst, append(cellBuf[:0], t.cols[i].Name...), widths[i])
	}
	dst = append(dst, '\n')
	for r := 0; r < t.NumRows(); r++ {
		for i := range t.cols {
			if i > 0 {
				dst = append(dst, ' ', ' ')
			}
			dst = appendPadded(dst, t.cols[i].appendCell(cellBuf[:0], r), widths[i])
		}
		dst = append(dst, '\n')
	}
	return dst
}

// String renders the table as an aligned text grid (for logs and examples).
func (t *Table) String() string {
	return string(t.AppendText(nil))
}
