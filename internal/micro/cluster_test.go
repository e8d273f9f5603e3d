package micro

import (
	"math"
	"testing"

	"repro/internal/dataset"
)

func TestClusterSize(t *testing.T) {
	c := Cluster{Rows: []int{1, 2, 3}}
	if c.Size() != 3 {
		t.Errorf("Size = %d", c.Size())
	}
	if (Cluster{}).Size() != 0 {
		t.Error("empty cluster size should be 0")
	}
}

func TestCheckPartitionValid(t *testing.T) {
	clusters := []Cluster{{Rows: []int{0, 1}}, {Rows: []int{3, 2}}}
	if err := CheckPartition(clusters, 4, 2); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
}

func TestCheckPartitionErrors(t *testing.T) {
	cases := []struct {
		name     string
		clusters []Cluster
		n, k     int
	}{
		{"undersized cluster", []Cluster{{Rows: []int{0}}, {Rows: []int{1, 2}}}, 3, 2},
		{"duplicate row", []Cluster{{Rows: []int{0, 1}}, {Rows: []int{1, 2}}}, 3, 2},
		{"missing row", []Cluster{{Rows: []int{0, 1}}}, 3, 2},
		{"out of range", []Cluster{{Rows: []int{0, 5}}}, 3, 2},
		{"negative row", []Cluster{{Rows: []int{-1, 0}}}, 3, 2},
	}
	for _, c := range cases {
		if err := CheckPartition(c.clusters, c.n, c.k); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestCheckPartitionToleratesSmallWholeDataset(t *testing.T) {
	// A single cluster smaller than k is the correct output when n < k.
	if err := CheckPartition([]Cluster{{Rows: []int{0, 1}}}, 2, 5); err != nil {
		t.Errorf("single whole-data-set cluster rejected: %v", err)
	}
}

func TestSizes(t *testing.T) {
	st := Sizes([]Cluster{{Rows: []int{0, 1}}, {Rows: []int{2, 3, 4}}, {Rows: []int{5, 6, 7, 8}}})
	if st.Min != 2 || st.Max != 4 || st.Num != 3 || math.Abs(st.Avg-3) > 1e-12 {
		t.Errorf("Sizes = %+v", st)
	}
	if z := Sizes(nil); z.Num != 0 || z.Min != 0 {
		t.Errorf("Sizes(nil) = %+v", z)
	}
}

func TestDist2(t *testing.T) {
	if d := Dist2([]float64{0, 0}, []float64{3, 4}); d != 25 {
		t.Errorf("Dist2 = %v, want 25", d)
	}
	if d := Dist2([]float64{1}, []float64{1}); d != 0 {
		t.Errorf("Dist2 identical = %v", d)
	}
}

func TestCentroid(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 2}, {4, 10}}
	c := Centroid(pts, []int{0, 1, 2})
	if c[0] != 2 || c[1] != 4 {
		t.Errorf("Centroid = %v", c)
	}
	c = Centroid(pts, []int{2})
	if c[0] != 4 || c[1] != 10 {
		t.Errorf("singleton centroid = %v", c)
	}
	if Centroid(pts, nil) != nil {
		t.Error("empty rows should give nil centroid")
	}
}

func TestFarthestNearest(t *testing.T) {
	m := NewMatrix([][]float64{{0}, {5}, {2}, {9}})
	rows := []int{0, 1, 2, 3}
	if got := m.Farthest(rows, []float64{0}); got != 3 {
		t.Errorf("Farthest = %d, want 3", got)
	}
	if got := m.Nearest(rows, []float64{4.9}); got != 1 {
		t.Errorf("Nearest = %d, want 1", got)
	}
	// Ties break to the lowest index.
	tie := NewMatrix([][]float64{{1}, {1}})
	if got := tie.Nearest([]int{0, 1}, []float64{1}); got != 0 {
		t.Errorf("tie Nearest = %d, want 0", got)
	}
}

func TestKNearest(t *testing.T) {
	m := NewMatrix([][]float64{{0}, {10}, {1}, {5}, {2}})
	rows := []int{0, 1, 2, 3, 4}
	got := m.KNearest(rows, []float64{0}, 3)
	want := []int{0, 2, 4}
	if len(got) != 3 {
		t.Fatalf("KNearest = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("KNearest[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// k larger than available returns everything.
	if got := m.KNearest(rows[:2], []float64{0}, 5); len(got) != 2 {
		t.Errorf("oversized k: %v", got)
	}
}

func aggFixture(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "id", Role: dataset.Identifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "age", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "city", Role: dataset.QuasiIdentifier, Kind: dataset.Categorical},
		dataset.Attribute{Name: "salary", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	rows := []struct {
		id     float64
		age    float64
		city   string
		salary float64
	}{
		{1, 20, "aa", 100},
		{2, 30, "bb", 200},
		{3, 40, "bb", 300},
		{4, 50, "cc", 400},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.id, r.age, r.city, r.salary); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestAggregateMeansAndMedians(t *testing.T) {
	tbl := aggFixture(t)
	clusters := []Cluster{{Rows: []int{0, 1, 2}}, {Rows: []int{3}}}
	out, err := Aggregate(tbl, clusters)
	if err != nil {
		t.Fatal(err)
	}
	// Numeric QI replaced by mean.
	for _, r := range []int{0, 1, 2} {
		if got := out.Value(r, 1); got != 30 {
			t.Errorf("row %d age = %v, want 30", r, got)
		}
	}
	if got := out.Value(3, 1); got != 50 {
		t.Errorf("singleton age = %v", got)
	}
	// Categorical QI replaced by the median code: codes (aa=0,bb=1,bb=1),
	// sorted 0,1,1 -> median 1 -> "bb".
	for _, r := range []int{0, 1, 2} {
		if got := out.Label(r, 2); got != "bb" {
			t.Errorf("row %d city = %q, want bb", r, got)
		}
	}
	// Identifier blanked.
	for r := 0; r < 4; r++ {
		if out.Value(r, 0) != 0 {
			t.Errorf("identifier row %d = %v, want 0", r, out.Value(r, 0))
		}
	}
	// Confidential untouched.
	for r := 0; r < 4; r++ {
		if out.Value(r, 3) != tbl.Value(r, 3) {
			t.Errorf("confidential row %d modified", r)
		}
	}
	// Original untouched.
	if tbl.Value(0, 1) != 20 {
		t.Error("Aggregate modified its input")
	}
}

func TestAggregateRejectsNonPartition(t *testing.T) {
	tbl := aggFixture(t)
	if _, err := Aggregate(tbl, []Cluster{{Rows: []int{0, 1}}}); err == nil {
		t.Error("incomplete partition should fail")
	}
}

func TestAggregateEvenMedianUsesLower(t *testing.T) {
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "c", Role: dataset.QuasiIdentifier, Kind: dataset.Categorical},
		dataset.Attribute{Name: "s", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	for _, v := range []string{"a", "b", "c", "d"} {
		if err := tbl.AppendRow(v, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	out, err := Aggregate(tbl, []Cluster{{Rows: []int{0, 1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	// Codes 0,1,2,3: lower median is 1 -> "b", an existing category.
	if got := out.Label(0, 0); got != "b" {
		t.Errorf("even median = %q, want b", got)
	}
}
