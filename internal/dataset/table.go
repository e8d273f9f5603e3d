package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Table is a columnar microdata set: n records over the attributes of a
// Schema. Numeric values are stored as float64; categorical values are
// stored as integer codes into a per-column dictionary, which keeps all
// distance and aggregation code on a single numeric path while preserving
// the original labels for output.
//
// A Table is not safe for concurrent mutation; concurrent reads are safe.
type Table struct {
	schema *Schema
	cols   [][]float64
	// dicts[i] maps code -> label for categorical column i (nil for numeric).
	dicts [][]string
	// codeOf[i] maps label -> code for categorical column i (nil for numeric).
	codeOf []map[string]int
	rows   int
}

// Common table construction errors.
var (
	ErrRowWidth     = errors.New("dataset: row width does not match schema")
	ErrKindMismatch = errors.New("dataset: value kind does not match attribute kind")
	ErrRowRange     = errors.New("dataset: row index out of range")
	ErrColRange     = errors.New("dataset: column index out of range")
)

// NewTable creates an empty table with the given schema.
func NewTable(schema *Schema) (*Table, error) {
	if schema == nil || schema.Len() == 0 {
		return nil, ErrEmptySchema
	}
	t := &Table{
		schema: schema,
		cols:   make([][]float64, schema.Len()),
		dicts:  make([][]string, schema.Len()),
		codeOf: make([]map[string]int, schema.Len()),
	}
	for i := 0; i < schema.Len(); i++ {
		if schema.Attr(i).Kind == Categorical {
			t.codeOf[i] = make(map[string]int)
		}
	}
	return t, nil
}

// MustTable is like NewTable but panics on error.
func MustTable(schema *Schema) *Table {
	t, err := NewTable(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of records.
func (t *Table) Len() int { return t.rows }

// Width returns the number of attributes.
func (t *Table) Width() int { return t.schema.Len() }

// Grow reserves column capacity so the table can reach at least rows
// total records without reallocating — the preallocation hint of a
// streaming build that knows the final size up front. It never shrinks
// and never changes Len.
func (t *Table) Grow(rows int) {
	for i, col := range t.cols {
		if cap(col) >= rows {
			continue
		}
		nc := make([]float64, len(col), rows)
		copy(nc, col)
		t.cols[i] = nc
	}
}

// AppendNumericRow appends a record whose values are all numeric. It returns
// an error if the schema contains categorical attributes or the width is
// wrong.
func (t *Table) AppendNumericRow(vals ...float64) error {
	if len(vals) != t.schema.Len() {
		return fmt.Errorf("%w: got %d values, schema has %d attributes",
			ErrRowWidth, len(vals), t.schema.Len())
	}
	for i := range vals {
		if t.schema.Attr(i).Kind != Numeric {
			return fmt.Errorf("%w: attribute %q is categorical",
				ErrKindMismatch, t.schema.Attr(i).Name)
		}
	}
	for i, v := range vals {
		t.cols[i] = append(t.cols[i], v)
	}
	t.rows++
	return nil
}

// AppendRow appends a mixed record. Each value must be a float64 (for
// numeric attributes) or a string (for categorical attributes).
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != t.schema.Len() {
		return fmt.Errorf("%w: got %d values, schema has %d attributes",
			ErrRowWidth, len(vals), t.schema.Len())
	}
	// Validate types first so a failed append leaves the table unchanged.
	for i, v := range vals {
		attr := t.schema.Attr(i)
		switch v.(type) {
		case float64, int:
			if attr.Kind != Numeric {
				return fmt.Errorf("%w: attribute %q wants a string", ErrKindMismatch, attr.Name)
			}
		case string:
			if attr.Kind != Categorical {
				return fmt.Errorf("%w: attribute %q wants a number", ErrKindMismatch, attr.Name)
			}
		default:
			return fmt.Errorf("%w: attribute %q: unsupported value type %T",
				ErrKindMismatch, attr.Name, v)
		}
	}
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			t.cols[i] = append(t.cols[i], x)
		case int:
			t.cols[i] = append(t.cols[i], float64(x))
		case string:
			code, ok := t.codeOf[i][x]
			if !ok {
				code = len(t.dicts[i])
				t.codeOf[i][x] = code
				t.dicts[i] = append(t.dicts[i], x)
			}
			t.cols[i] = append(t.cols[i], float64(code))
		}
	}
	t.rows++
	return nil
}

// AppendColumnChunk bulk-appends a batch of records given in columnar form:
// cols holds one slice per schema attribute, all of equal length, carrying
// raw numeric values (or categorical codes into the column's current
// dictionary). It is the chunked ingest counterpart of AppendRow — a
// storage backend or streaming loader decodes a whole column chunk and
// hands it over in one call instead of transposing to rows — and appends
// all-or-nothing: validation errors leave the table unchanged. Extend
// dictionaries first (ExtendDict) when a chunk introduces new labels.
func (t *Table) AppendColumnChunk(cols [][]float64) error {
	if len(cols) != t.schema.Len() {
		return fmt.Errorf("%w: got %d columns, schema has %d attributes",
			ErrRowWidth, len(cols), t.schema.Len())
	}
	n := len(cols[0])
	for i, col := range cols {
		if len(col) != n {
			return fmt.Errorf("%w: column %q has %d values, column %q has %d",
				ErrRowWidth, t.schema.Attr(i).Name, len(col), t.schema.Attr(0).Name, n)
		}
		if t.schema.Attr(i).Kind != Categorical {
			continue
		}
		for r, v := range col {
			code := int(v)
			if float64(code) != v || code < 0 || code >= len(t.dicts[i]) {
				return fmt.Errorf("%w: attribute %q chunk row %d: categorical code %v outside dictionary of %d",
					ErrKindMismatch, t.schema.Attr(i).Name, r, v, len(t.dicts[i]))
			}
		}
	}
	for i, col := range cols {
		t.cols[i] = append(t.cols[i], col...)
	}
	t.rows += n
	return nil
}

// ExtendDict appends new labels to the dictionary of categorical column
// col, assigning codes in order — the dict-page replay half of a chunked
// load. Labels already present are rejected (a loader replaying dictionary
// deltas must never see one twice), as is extending a numeric column.
func (t *Table) ExtendDict(col int, labels []string) error {
	if col < 0 || col >= t.schema.Len() {
		return fmt.Errorf("%w: %d", ErrColRange, col)
	}
	if t.schema.Attr(col).Kind != Categorical {
		return fmt.Errorf("%w: attribute %q is numeric", ErrKindMismatch, t.schema.Attr(col).Name)
	}
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if _, dup := t.codeOf[col][l]; dup || seen[l] {
			return fmt.Errorf("dataset: attribute %q: duplicate dictionary label %q",
				t.schema.Attr(col).Name, l)
		}
		seen[l] = true
	}
	for _, l := range labels {
		t.codeOf[col][l] = len(t.dicts[col])
		t.dicts[col] = append(t.dicts[col], l)
	}
	return nil
}

// DictLen returns the dictionary size of categorical column col (0 for
// numeric columns).
func (t *Table) DictLen(col int) int { return len(t.dicts[col]) }

// Value returns the raw numeric value (or categorical code) at (row, col).
func (t *Table) Value(row, col int) float64 {
	return t.cols[col][row]
}

// SetValue overwrites the raw numeric value (or categorical code) at
// (row, col). It is used by the aggregation step of microaggregation.
func (t *Table) SetValue(row, col int, v float64) {
	t.cols[col][row] = v
}

// Label returns the string form of the value at (row, col): the dictionary
// label for categorical attributes, or the formatted number for numeric
// attributes.
func (t *Table) Label(row, col int) string {
	if t.schema.Attr(col).Kind == Categorical {
		code := int(t.cols[col][row])
		if code >= 0 && code < len(t.dicts[col]) {
			return t.dicts[col][code]
		}
		return fmt.Sprintf("<code %d>", code)
	}
	return formatFloat(t.cols[col][row])
}

// Column returns a copy of column col's raw values.
func (t *Table) Column(col int) []float64 {
	out := make([]float64, t.rows)
	copy(out, t.cols[col][:t.rows])
	return out
}

// ColumnView returns the live backing slice of column col. Callers must not
// modify it; it avoids the copy in hot loops.
func (t *Table) ColumnView(col int) []float64 {
	return t.cols[col][:t.rows]
}

// Dict returns a copy of the dictionary of categorical column col (nil for
// numeric columns).
func (t *Table) Dict(col int) []string {
	if t.dicts[col] == nil {
		return nil
	}
	out := make([]string, len(t.dicts[col]))
	copy(out, t.dicts[col])
	return out
}

// Row returns a copy of the raw values of record row.
func (t *Table) Row(row int) []float64 {
	out := make([]float64, t.schema.Len())
	for c := range t.cols {
		out[c] = t.cols[c][row]
	}
	return out
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := t.cloneFrame()
	for i, col := range t.cols {
		c.cols[i] = append([]float64(nil), col...)
	}
	c.rows = t.rows
	return c
}

// cloneFrame returns an empty table with t's schema and independent copies
// of its dictionaries: everything of a deep copy but the column values.
func (t *Table) cloneFrame() *Table {
	c := &Table{
		schema: t.schema,
		cols:   make([][]float64, len(t.cols)),
		dicts:  make([][]string, len(t.dicts)),
		codeOf: make([]map[string]int, len(t.codeOf)),
	}
	for i := range t.cols {
		if t.dicts[i] != nil {
			c.dicts[i] = append([]string(nil), t.dicts[i]...)
		}
		if t.codeOf[i] != nil {
			c.codeOf[i] = make(map[string]int, len(t.codeOf[i]))
			for k, v := range t.codeOf[i] {
				c.codeOf[i][k] = v
			}
		}
	}
	return c
}

// Subset returns a new table containing only the given rows, in the given
// order. Dictionaries are copied, so the subset is independent. Every row
// is checked before anything is copied, and each column is copied once.
func (t *Table) Subset(rows []int) (*Table, error) {
	for _, r := range rows {
		if r < 0 || r >= t.rows {
			return nil, fmt.Errorf("%w: %d (table has %d rows)", ErrRowRange, r, t.rows)
		}
	}
	s := t.cloneFrame()
	for i, src := range t.cols {
		col := make([]float64, len(rows))
		for j, r := range rows {
			col[j] = src[r]
		}
		s.cols[i] = col
	}
	s.rows = len(rows)
	return s, nil
}

// Validate checks the table for values that would break the anonymization
// pipeline: NaN or infinite numeric values, or categorical codes outside the
// dictionary.
func (t *Table) Validate() error {
	if err := t.schema.Validate(); err != nil {
		return err
	}
	for c := 0; c < t.Width(); c++ {
		attr := t.schema.Attr(c)
		for r := 0; r < t.rows; r++ {
			v := t.cols[c][r]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset: attribute %q row %d: non-finite value %v",
					attr.Name, r, v)
			}
			if attr.Kind == Categorical {
				code := int(v)
				if float64(code) != v || code < 0 || code >= len(t.dicts[c]) {
					return fmt.Errorf("dataset: attribute %q row %d: invalid categorical code %v",
						attr.Name, r, v)
				}
			}
		}
	}
	return nil
}

// QIMatrix extracts the quasi-identifier columns as a row-major matrix,
// min-max normalized per column so every dimension contributes comparably to
// Euclidean distances (constant columns normalize to 0). The returned matrix
// has one row per record; callers own it.
func (t *Table) QIMatrix() [][]float64 {
	return t.matrixFor(t.schema.QuasiIdentifiers())
}

func (t *Table) matrixFor(cols []int) [][]float64 {
	return t.normalizeRows(cols, 0, t.rows, t.normParams(cols))
}

// NormParams is the per-column min-max normalization frame of a matrix
// extraction: the post-scale minimum, the range (0 for constant columns),
// and the overflow-guard scale of each column. Two extractions with equal
// params produce bit-identical normalized rows for shared records, which is
// what lets an epoch append skip renormalizing the existing rows.
type NormParams struct {
	Mins, Ranges, Scales []float64
}

// Equal reports whether o describes the same normalization frame.
func (p NormParams) Equal(o NormParams) bool {
	if len(p.Mins) != len(o.Mins) {
		return false
	}
	for j := range p.Mins {
		if p.Mins[j] != o.Mins[j] || p.Ranges[j] != o.Ranges[j] || p.Scales[j] != o.Scales[j] {
			return false
		}
	}
	return true
}

// QINormParams returns the normalization frame QIMatrix uses.
func (t *Table) QINormParams() NormParams {
	return t.normParams(t.schema.QuasiIdentifiers())
}

func (t *Table) normParams(cols []int) NormParams {
	p := NormParams{
		Mins:   make([]float64, len(cols)),
		Ranges: make([]float64, len(cols)),
		Scales: make([]float64, len(cols)),
	}
	for j, c := range cols {
		lo, hi := minMax(t.cols[c][:t.rows])
		// scale halves the values before normalizing when hi-lo would
		// overflow float64 (possible for columns spanning nearly the full
		// float range).
		p.Scales[j] = 1
		if math.IsInf(hi-lo, 0) {
			p.Scales[j] = 0.5
			lo, hi = lo/2, hi/2
		}
		p.Mins[j] = lo
		if hi > lo {
			p.Ranges[j] = hi - lo
		} else {
			p.Ranges[j] = 0
		}
	}
	return p
}

// NormalizeQIInto writes the normalized quasi-identifier rows [lo, hi)
// under frame p into dst, row-major, without allocating: dst must hold at
// least (hi-lo)*len(QuasiIdentifiers()) values. It is how the prepared
// substrate fills its matrix backing — every row on a cold build, only
// the appended rows when an epoch append leaves the frame unchanged.
func (t *Table) NormalizeQIInto(dst []float64, lo, hi int, p NormParams) {
	t.normalizeInto(dst, t.schema.QuasiIdentifiers(), lo, hi, p)
}

func (t *Table) normalizeRows(cols []int, lo, hi int, p NormParams) [][]float64 {
	m := make([][]float64, hi-lo)
	flat := make([]float64, (hi-lo)*len(cols))
	t.normalizeInto(flat, cols, lo, hi, p)
	for r := range m {
		m[r] = flat[r*len(cols) : (r+1)*len(cols)]
	}
	return m
}

func (t *Table) normalizeInto(dst []float64, cols []int, lo, hi int, p NormParams) {
	for r := lo; r < hi; r++ {
		row := dst[(r-lo)*len(cols) : (r-lo+1)*len(cols)]
		for j, c := range cols {
			if p.Ranges[j] > 0 {
				row[j] = (t.cols[c][r]*p.Scales[j] - p.Mins[j]) / p.Ranges[j]
			} else {
				row[j] = 0 // dst may be reused across renormalizations
			}
		}
	}
}

// Ranks returns, for the given column, the rank of each record's value among
// the sorted distinct values of that column (0-based), along with the sorted
// distinct values themselves. Ties share a rank. This is the ranking the
// ordered-distance EMD of Section 2.2 is defined over.
func (t *Table) Ranks(col int) (ranks []int, distinct []float64) {
	vals := t.cols[col][:t.rows]
	distinct = Distinct(vals)
	ranks = make([]int, len(vals))
	for i, v := range vals {
		ranks[i] = sort.SearchFloat64s(distinct, v)
	}
	return ranks, distinct
}

// Distinct returns the sorted distinct values of vals.
func Distinct(vals []float64) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return append([]float64(nil), out...)
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Redact erases column col in place: numeric values become 0 and
// categorical columns are reset to a single "*" dictionary entry. It is used
// to blank identifier attributes before release.
func (t *Table) Redact(col int) {
	for r := 0; r < t.rows; r++ {
		t.cols[col][r] = 0
	}
	if t.schema.Attr(col).Kind == Categorical {
		t.dicts[col] = []string{"*"}
		t.codeOf[col] = map[string]int{"*": 0}
	}
}
