package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
)

func pairFixture(t *testing.T) (orig, anon *dataset.Table) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "b", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Role: dataset.Confidential, Kind: dataset.Numeric},
	)
	orig = dataset.MustTable(schema)
	rows := [][]float64{{0, 0, 1}, {10, 100, 2}}
	for _, r := range rows {
		if err := orig.AppendNumericRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	anon = orig.Clone()
	return orig, anon
}

func TestNormalizedSSEIdentityIsZero(t *testing.T) {
	orig, anon := pairFixture(t)
	sse, err := NormalizedSSE(orig, anon)
	if err != nil {
		t.Fatal(err)
	}
	if sse != 0 {
		t.Errorf("identity SSE = %v, want 0", sse)
	}
}

func TestNormalizedSSEHandComputed(t *testing.T) {
	orig, anon := pairFixture(t)
	// Perturb record 0: a by 5 (range 10 -> NED 0.5), b by 50 (range 100 ->
	// NED 0.5). Per-record error = (0.25+0.25)/2 = 0.25; over n=2 -> 0.125.
	anon.SetValue(0, 0, 5)
	anon.SetValue(0, 1, 50)
	sse, err := NormalizedSSE(orig, anon)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sse-0.125) > 1e-12 {
		t.Errorf("SSE = %v, want 0.125", sse)
	}
}

func TestNormalizedSSEIgnoresConfidentialChanges(t *testing.T) {
	orig, anon := pairFixture(t)
	anon.SetValue(0, 2, 999)
	sse, err := NormalizedSSE(orig, anon)
	if err != nil {
		t.Fatal(err)
	}
	if sse != 0 {
		t.Errorf("confidential-only change should not affect SSE, got %v", sse)
	}
}

func TestNormalizedSSEConstantColumn(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Role: dataset.Confidential, Kind: dataset.Numeric},
	)
	orig := dataset.MustTable(schema)
	for i := 0; i < 3; i++ {
		if err := orig.AppendNumericRow(7, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	anon := orig.Clone()
	anon.SetValue(0, 0, 8)
	sse, err := NormalizedSSE(orig, anon)
	if err != nil {
		t.Fatal(err)
	}
	if sse != 0 {
		t.Errorf("constant column should contribute 0, got %v", sse)
	}
}

func TestNormalizedSSEShapeErrors(t *testing.T) {
	orig, _ := pairFixture(t)
	other := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	if err := other.AppendNumericRow(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := NormalizedSSE(orig, other); err == nil {
		t.Error("different shapes should fail")
	}
	short := orig.Clone()
	shortSub, err := short.Subset([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NormalizedSSE(orig, shortSub); err == nil {
		t.Error("different lengths should fail")
	}
}

func TestNormalizedSSENonNegative(t *testing.T) {
	f := func(perturb []float64) bool {
		orig := synth.Uniform(20, 2, 77)
		anon := orig.Clone()
		for i, p := range perturb {
			if math.IsNaN(p) || math.IsInf(p, 0) || math.Abs(p) > 1e100 {
				return true
			}
			r := i % anon.Len()
			anon.SetValue(r, 0, anon.Value(r, 0)+p)
		}
		sse, err := NormalizedSSE(orig, anon)
		return err == nil && sse >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregationReducesSSEWithSmallerClusters(t *testing.T) {
	// End-to-end: SSE after aggregation should grow with k.
	tbl := synth.Census(300, synth.FedTax, 11)
	points := tbl.QIMatrix()
	var last float64 = -1
	for _, k := range []int{2, 10, 75} {
		clusters, err := micro.MDAV(points, k)
		if err != nil {
			t.Fatal(err)
		}
		anon, err := micro.Aggregate(tbl, clusters)
		if err != nil {
			t.Fatal(err)
		}
		sse, err := NormalizedSSE(tbl, anon)
		if err != nil {
			t.Fatal(err)
		}
		if sse < last-1e-4 {
			t.Errorf("SSE at k=%d (%v) below k-smaller value (%v)", k, sse, last)
		}
		last = sse
	}
}

func TestCorrelationDistortion(t *testing.T) {
	orig := synth.Census(300, synth.Fica, 21)
	// Identity release: zero distortion.
	d, err := CorrelationDistortion(orig, orig.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("identity distortion = %v", d)
	}
	// Shuffled confidential column: distortion approaches the original
	// correlation magnitude.
	anon := orig.Clone()
	conf := orig.Schema().Confidentials()[0]
	n := orig.Len()
	for r := 0; r < n; r++ {
		anon.SetValue(r, conf, orig.Value((r+n/2)%n, conf))
	}
	d, err = CorrelationDistortion(orig, anon)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.3 {
		t.Errorf("shuffle distortion = %v, want substantial", d)
	}
}

func TestCorrelationDistortionValidation(t *testing.T) {
	a := synth.Uniform(10, 2, 1)
	b := synth.Uniform(5, 2, 1)
	if _, err := CorrelationDistortion(a, b); err == nil {
		t.Error("size mismatch should fail")
	}
}
