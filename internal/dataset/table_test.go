package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func mixedSchema() *Schema {
	return MustSchema(
		Attribute{Name: "age", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "city", Role: QuasiIdentifier, Kind: Categorical},
		Attribute{Name: "salary", Role: Confidential, Kind: Numeric},
	)
}

func TestAppendNumericRow(t *testing.T) {
	tbl := MustTable(MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "b", Role: Confidential, Kind: Numeric},
	))
	if err := tbl.AppendNumericRow(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendNumericRow(3, 4); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 || tbl.Width() != 2 {
		t.Fatalf("dims = %dx%d, want 2x2", tbl.Len(), tbl.Width())
	}
	if got := tbl.Value(1, 0); got != 3 {
		t.Errorf("Value(1,0) = %v, want 3", got)
	}
}

func TestAppendNumericRowErrors(t *testing.T) {
	tbl := MustTable(mixedSchema())
	if err := tbl.AppendNumericRow(1, 2, 3); err == nil {
		t.Error("numeric row into categorical column should fail")
	}
	if err := tbl.AppendNumericRow(1); err == nil {
		t.Error("short row should fail")
	}
	if tbl.Len() != 0 {
		t.Errorf("failed appends must not grow the table, len = %d", tbl.Len())
	}
}

func TestAppendRowMixed(t *testing.T) {
	tbl := MustTable(mixedSchema())
	if err := tbl.AppendRow(34.0, "tarragona", 30000.0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(51, "barcelona", 42000.0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(29.0, "tarragona", 27000.0); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Fatalf("len = %d, want 3", tbl.Len())
	}
	if got := tbl.Label(0, 1); got != "tarragona" {
		t.Errorf("Label(0,1) = %q", got)
	}
	if got := tbl.Label(1, 1); got != "barcelona" {
		t.Errorf("Label(1,1) = %q", got)
	}
	// Re-used label re-uses the code.
	if tbl.Value(0, 1) != tbl.Value(2, 1) {
		t.Error("identical labels should share a code")
	}
	if d := tbl.Dict(1); len(d) != 2 {
		t.Errorf("dictionary = %v, want 2 entries", d)
	}
	if d := tbl.Dict(0); d != nil {
		t.Errorf("numeric column dictionary should be nil, got %v", d)
	}
}

func TestAppendRowErrors(t *testing.T) {
	tbl := MustTable(mixedSchema())
	if err := tbl.AppendRow("x", "y", 1.0); err == nil {
		t.Error("string into numeric column should fail")
	}
	if err := tbl.AppendRow(1.0, 2.0, 3.0); err == nil {
		t.Error("number into categorical column should fail")
	}
	if err := tbl.AppendRow(1.0, "a", 3.0, 4.0); err == nil {
		t.Error("wide row should fail")
	}
	if err := tbl.AppendRow(1.0, struct{}{}, 3.0); err == nil {
		t.Error("unsupported type should fail")
	}
	if tbl.Len() != 0 {
		t.Errorf("failed appends must not grow the table, len = %d", tbl.Len())
	}
}

func TestLabelNumericFormatting(t *testing.T) {
	tbl := MustTable(MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "b", Role: Confidential, Kind: Numeric},
	))
	if err := tbl.AppendNumericRow(42, 3.25); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Label(0, 0); got != "42" {
		t.Errorf("integer label = %q, want 42", got)
	}
	if got := tbl.Label(0, 1); got != "3.25" {
		t.Errorf("float label = %q, want 3.25", got)
	}
}

func TestRowAndColumn(t *testing.T) {
	tbl := MustTable(MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "b", Role: Confidential, Kind: Numeric},
	))
	for i := 0; i < 4; i++ {
		if err := tbl.AppendNumericRow(float64(i), float64(10*i)); err != nil {
			t.Fatal(err)
		}
	}
	row := tbl.Row(2)
	if row[0] != 2 || row[1] != 20 {
		t.Errorf("Row(2) = %v", row)
	}
	col := tbl.Column(1)
	if len(col) != 4 || col[3] != 30 {
		t.Errorf("Column(1) = %v", col)
	}
	// Column returns a copy: mutating it must not affect the table.
	col[0] = 999
	if tbl.Value(0, 1) == 999 {
		t.Error("Column must return a copy")
	}
	// ColumnView is live.
	view := tbl.ColumnView(1)
	if &view[0] != &tbl.cols[1][0] {
		t.Error("ColumnView must alias the backing store")
	}
}

func TestCloneIndependence(t *testing.T) {
	tbl := MustTable(mixedSchema())
	if err := tbl.AppendRow(1.0, "a", 2.0); err != nil {
		t.Fatal(err)
	}
	c := tbl.Clone()
	c.SetValue(0, 0, 99)
	if err := c.AppendRow(5.0, "b", 6.0); err != nil {
		t.Fatal(err)
	}
	if tbl.Value(0, 0) != 1 {
		t.Error("clone mutation leaked into original")
	}
	if tbl.Len() != 1 {
		t.Error("clone append leaked into original")
	}
	if len(tbl.Dict(1)) != 1 {
		t.Error("clone dictionary growth leaked into original")
	}
}

func TestSubset(t *testing.T) {
	tbl := MustTable(MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "b", Role: Confidential, Kind: Numeric},
	))
	for i := 0; i < 5; i++ {
		if err := tbl.AppendNumericRow(float64(i), float64(i*i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tbl.Subset([]int{4, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("subset len = %d", s.Len())
	}
	if s.Value(0, 0) != 4 || s.Value(1, 0) != 0 || s.Value(2, 0) != 2 {
		t.Errorf("subset rows wrong: %v %v %v", s.Value(0, 0), s.Value(1, 0), s.Value(2, 0))
	}
	if _, err := tbl.Subset([]int{7}); err == nil {
		t.Error("out-of-range subset should fail")
	}
	if _, err := tbl.Subset([]int{-1}); err == nil {
		t.Error("negative subset index should fail")
	}
}

// KeepRows must leave a table that appends exactly like a fresh one: the
// kept rows first, then each appended row right after them, never a stale
// value from behind the cut.
func TestKeepRowsThenAppend(t *testing.T) {
	tbl := MustTable(mixedSchema())
	for i := 0; i < 6; i++ {
		if err := tbl.AppendRow(float64(i), string(rune('a'+i)), float64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range [][]int{{1, 1}, {3, 2}, {0, 6}, {-1}} {
		if err := tbl.KeepRows(bad); err == nil {
			t.Errorf("KeepRows(%v) should fail", bad)
		}
		if tbl.Len() != 6 || tbl.Value(5, 0) != 5 {
			t.Fatalf("failed KeepRows(%v) changed the table", bad)
		}
	}
	if err := tbl.KeepRows([]int{1, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(10.0, "z", 110.0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendColumnChunk([][]float64{{20, 21}, {0, 1}, {120, 121}}); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 1, 101}, {3, 3, 103}, {4, 4, 104}, {10, 6, 110}, {20, 0, 120}, {21, 1, 121}}
	for _, tb := range []*Table{tbl, tbl.Clone()} {
		if tb.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", tb.Len(), len(want))
		}
		for r, row := range want {
			for c, v := range row {
				if got := tb.Value(r, c); got != v {
					t.Errorf("Value(%d, %d) = %v, want %v", r, c, got, v)
				}
			}
		}
		if got := tb.Label(tb.Len()-3, 1); got != "z" {
			t.Errorf("appended city = %q, want z", got)
		}
		for c := range tb.cols {
			if len(tb.cols[c]) != tb.Len() || len(tb.ColumnView(c)) != tb.Len() {
				t.Errorf("column %d holds %d values, table has %d rows", c, len(tb.cols[c]), tb.Len())
			}
		}
	}
}

func TestValidateRejectsNaN(t *testing.T) {
	tbl := MustTable(MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "b", Role: Confidential, Kind: Numeric},
	))
	if err := tbl.AppendNumericRow(1, math.NaN()); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err == nil {
		t.Error("NaN value should fail validation")
	}
}

func TestValidateRejectsInf(t *testing.T) {
	tbl := MustTable(MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "b", Role: Confidential, Kind: Numeric},
	))
	if err := tbl.AppendNumericRow(math.Inf(1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err == nil {
		t.Error("infinite value should fail validation")
	}
}

func TestValidateRejectsBadCategoricalCode(t *testing.T) {
	tbl := MustTable(mixedSchema())
	if err := tbl.AppendRow(1.0, "a", 2.0); err != nil {
		t.Fatal(err)
	}
	tbl.SetValue(0, 1, 7) // out of dictionary
	if err := tbl.Validate(); err == nil {
		t.Error("dangling categorical code should fail validation")
	}
}

func TestValidateAcceptsGoodTable(t *testing.T) {
	tbl := MustTable(mixedSchema())
	if err := tbl.AppendRow(1.0, "a", 2.0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

func TestQIMatrixNormalization(t *testing.T) {
	tbl := MustTable(MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "b", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "c", Role: Confidential, Kind: Numeric},
	))
	rows := [][]float64{{0, 100, 1}, {5, 200, 2}, {10, 150, 3}}
	for _, r := range rows {
		if err := tbl.AppendNumericRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	m := tbl.QIMatrix()
	if len(m) != 3 || len(m[0]) != 2 {
		t.Fatalf("matrix dims %dx%d", len(m), len(m[0]))
	}
	want := [][]float64{{0, 0}, {0.5, 1}, {1, 0.5}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(m[i][j]-want[i][j]) > 1e-12 {
				t.Errorf("m[%d][%d] = %v, want %v", i, j, m[i][j], want[i][j])
			}
		}
	}
}

func TestQIMatrixConstantColumn(t *testing.T) {
	tbl := MustTable(MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "c", Role: Confidential, Kind: Numeric},
	))
	for i := 0; i < 3; i++ {
		if err := tbl.AppendNumericRow(7, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := tbl.QIMatrix()
	for i := range m {
		if m[i][0] != 0 {
			t.Errorf("constant column should normalize to 0, got %v", m[i][0])
		}
	}
}

func TestQIMatrixValuesInUnitRange(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) < 2 {
			return true
		}
		tbl := MustTable(MustSchema(
			Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
			Attribute{Name: "c", Role: Confidential, Kind: Numeric},
		))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			if err := tbl.AppendNumericRow(v, 0); err != nil {
				return false
			}
		}
		for _, row := range tbl.QIMatrix() {
			if row[0] < 0 || row[0] > 1 || math.IsNaN(row[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRanks(t *testing.T) {
	tbl := MustTable(MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "c", Role: Confidential, Kind: Numeric},
	))
	for _, v := range []float64{5, 1, 5, 3} {
		if err := tbl.AppendNumericRow(0, v); err != nil {
			t.Fatal(err)
		}
	}
	ranks, distinct := tbl.Ranks(1)
	wantDistinct := []float64{1, 3, 5}
	if len(distinct) != 3 {
		t.Fatalf("distinct = %v", distinct)
	}
	for i := range wantDistinct {
		if distinct[i] != wantDistinct[i] {
			t.Errorf("distinct[%d] = %v", i, distinct[i])
		}
	}
	wantRanks := []int{2, 0, 2, 1}
	for i := range wantRanks {
		if ranks[i] != wantRanks[i] {
			t.Errorf("ranks[%d] = %d, want %d", i, ranks[i], wantRanks[i])
		}
	}
}

func TestDistinct(t *testing.T) {
	got := Distinct([]float64{3, 1, 3, 2, 1})
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Distinct = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Distinct[%d] = %v", i, got[i])
		}
	}
	if out := Distinct(nil); len(out) != 0 {
		t.Errorf("Distinct(nil) = %v", out)
	}
}

func TestDistinctProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) {
				return true
			}
		}
		d := Distinct(vals)
		// Sorted strictly ascending.
		for i := 1; i < len(d); i++ {
			if d[i-1] >= d[i] {
				return false
			}
		}
		// Every input value present.
		for _, v := range vals {
			found := false
			for _, u := range d {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewTableRejectsNilSchema(t *testing.T) {
	if _, err := NewTable(nil); err == nil {
		t.Error("nil schema should be rejected")
	}
}

func TestRedact(t *testing.T) {
	tbl := MustTable(MustSchema(
		Attribute{Name: "name", Role: Identifier, Kind: Categorical},
		Attribute{Name: "age", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "salary", Role: Confidential, Kind: Numeric},
	))
	if err := tbl.AppendRow("ana", 30.0, 100.0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow("bo", 40.0, 200.0); err != nil {
		t.Fatal(err)
	}
	tbl.Redact(0)
	for r := 0; r < tbl.Len(); r++ {
		if got := tbl.Label(r, 0); got != "*" {
			t.Errorf("redacted label row %d = %q, want *", r, got)
		}
	}
	if err := tbl.Validate(); err != nil {
		t.Errorf("redacted table invalid: %v", err)
	}
	// Numeric redaction zeroes.
	tbl.Redact(1)
	if tbl.Value(0, 1) != 0 || tbl.Value(1, 1) != 0 {
		t.Error("numeric redaction should zero the column")
	}
}

// NormalizeQIInto must write exactly what QIMatrix computes, and must
// overwrite stale values in a reused destination (zero-range columns
// included).
func TestNormalizeQIInto(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "c", Role: QuasiIdentifier, Kind: Numeric}, // constant → range 0
		Attribute{Name: "s", Role: Confidential, Kind: Numeric},
	)
	tbl := MustTable(schema)
	for r := 0; r < 10; r++ {
		if err := tbl.AppendNumericRow(float64(r*r), 7, float64(r%3)); err != nil {
			t.Fatal(err)
		}
	}
	p := tbl.QINormParams()
	want := tbl.QIMatrix()
	dst := make([]float64, 10*2)
	for i := range dst {
		dst[i] = math.Inf(1) // stale garbage that must be overwritten
	}
	tbl.NormalizeQIInto(dst, 0, 10, p)
	for r := 0; r < 10; r++ {
		for j := 0; j < 2; j++ {
			if math.Float64bits(dst[r*2+j]) != math.Float64bits(want[r][j]) {
				t.Fatalf("row %d col %d: %v, want %v", r, j, dst[r*2+j], want[r][j])
			}
		}
	}
}

// Grow is capacity-only: length, values and appends are unaffected, and
// post-Grow appends up to the reserved size do not reallocate columns.
func TestTableGrow(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "a", Role: QuasiIdentifier, Kind: Numeric},
		Attribute{Name: "s", Role: Confidential, Kind: Numeric},
	)
	tbl := MustTable(schema)
	if err := tbl.AppendNumericRow(1, 2); err != nil {
		t.Fatal(err)
	}
	tbl.Grow(100)
	if tbl.Len() != 1 {
		t.Fatalf("Grow changed Len to %d", tbl.Len())
	}
	base := &tbl.ColumnView(0)[0]
	for r := 0; r < 99; r++ {
		if err := tbl.AppendNumericRow(float64(r), 0); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 100 {
		t.Fatalf("Len %d, want 100", tbl.Len())
	}
	if base != &tbl.ColumnView(0)[0] {
		t.Fatal("appends within the reserved capacity reallocated the column")
	}
}
