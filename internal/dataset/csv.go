package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// CSV layout
//
// Tables round-trip through a two-header CSV format: the first row holds
// attribute names, the second row holds "role:kind" descriptors (e.g.
// "quasi-identifier:numeric", "confidential:categorical"), and every
// subsequent row is one record. This keeps files self-describing so the
// cmd/tcm tool needs no side-channel schema file.

// csvChunk is how many bytes WriteCSV buffers before each write.
const csvChunk = 64 << 10

// WriteCSV encodes the table to w in the two-header CSV format: the
// header lines of AppendHeader, then one line of AppendCell fields per
// record, written in chunks of about 64 KB.
func (t *Table) WriteCSV(w io.Writer) error {
	buf := t.AppendHeader(make([]byte, 0, csvChunk+1024))
	for r := 0; r < t.rows; r++ {
		for c := range t.cols {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = t.AppendCell(buf, r, c)
		}
		buf = append(buf, '\n')
		if len(buf) >= csvChunk {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("dataset: writing CSV: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("dataset: writing CSV: %w", err)
	}
	return nil
}

// AppendHeader appends the format's two header lines to dst: the
// attribute names, then the "role:kind" descriptors.
func (t *Table) AppendHeader(dst []byte) []byte {
	for i := 0; i < t.schema.Len(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendField(dst, t.schema.Attr(i).Name)
	}
	dst = append(dst, '\n')
	for i := 0; i < t.schema.Len(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		a := t.schema.Attr(i)
		dst = appendField(dst, a.Role.String()+":"+a.Kind.String())
	}
	return append(dst, '\n')
}

// AppendCell appends the CSV field of the value at (row, col) to dst, as
// WriteCSV writes it: a numeric value in strconv's shortest 'g' form, a
// categorical one as its label, quoted by encoding/csv's rule. The one
// exception to that rule is the empty label of a one-column table, which
// is written as "": left bare it would make a blank line, which CSV
// readers (including ours) skip, dropping the record on a round trip.
func (t *Table) AppendCell(dst []byte, row, col int) []byte {
	if t.schema.Attr(col).Kind != Categorical {
		return strconv.AppendFloat(dst, t.cols[col][row], 'g', -1, 64)
	}
	label := t.Label(row, col)
	if label == "" && len(t.cols) == 1 {
		return append(dst, `""`...)
	}
	return appendField(dst, label)
}

// appendField appends one field as encoding/csv's Writer writes it with
// its defaults (comma separator, "\n" line ends): quoted when it is `\.`,
// holds a comma, quote, carriage return or newline, or starts with a
// Unicode space, with every quote inside doubled.
func appendField(dst []byte, field string) []byte {
	if !fieldNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			break
		}
		dst = append(dst, field[:i+1]...)
		dst = append(dst, '"')
		field = field[i+1:]
	}
	dst = append(dst, field...)
	return append(dst, '"')
}

func fieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` || strings.ContainsAny(field, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// ReadCSV decodes a table from r in the two-header CSV format produced by
// WriteCSV.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	names, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	descs, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading schema row: %w", err)
	}
	if len(descs) != len(names) {
		return nil, fmt.Errorf("dataset: schema row has %d fields, header has %d",
			len(descs), len(names))
	}
	attrs := make([]Attribute, len(names))
	for i, d := range descs {
		role, kind, err := parseDescriptor(d)
		if err != nil {
			return nil, fmt.Errorf("dataset: column %q: %w", names[i], err)
		}
		attrs[i] = Attribute{Name: names[i], Role: role, Kind: kind}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	row := make([]any, len(attrs))
	line := 2
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("dataset: reading line %d: %w", line, err)
		}
		if len(rec) != len(attrs) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d",
				line, len(rec), len(attrs))
		}
		for i, field := range rec {
			if attrs[i].Kind == Categorical {
				row[i] = field
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d, column %q: %w",
					line, attrs[i].Name, err)
			}
			row[i] = v
		}
		if err := t.AppendRow(row...); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
	}
	return t, nil
}

// ParseDescriptor parses one "role:kind" schema-row descriptor of the
// two-header CSV format (kind defaults to numeric when omitted). It is the
// piece of ReadCSV a streaming loader needs to build the schema from the
// two header rows before decoding records chunk by chunk.
func ParseDescriptor(d string) (Role, Kind, error) { return parseDescriptor(d) }

func parseDescriptor(d string) (Role, Kind, error) {
	parts := strings.SplitN(d, ":", 2)
	role, err := ParseRole(parts[0])
	if err != nil {
		return 0, 0, err
	}
	kind := Numeric
	if len(parts) == 2 {
		kind, err = ParseKind(parts[1])
		if err != nil {
			return 0, 0, err
		}
	}
	return role, kind, nil
}
