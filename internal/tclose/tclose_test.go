package tclose

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
)

// algorithms under test, shared by the validation tests below.
var allAlgorithms = []struct {
	name string
	run  func(t *dataset.Table, k int, tl float64) (*Result, error)
}{
	{"alg1", func(t *dataset.Table, k int, tl float64) (*Result, error) {
		return Algorithm1(t, k, tl, nil)
	}},
	{"alg2", Algorithm2},
	{"alg2-standalone", Algorithm2Standalone},
	{"alg3", Algorithm3},
}

func TestParameterValidation(t *testing.T) {
	tbl := synth.Uniform(30, 2, 1)
	for _, alg := range allAlgorithms {
		if _, err := alg.run(nil, 2, 0.1); err == nil {
			t.Errorf("%s: nil table should fail", alg.name)
		}
		if _, err := alg.run(tbl, 0, 0.1); err == nil {
			t.Errorf("%s: k = 0 should fail", alg.name)
		}
		if _, err := alg.run(tbl, 2, 0); err == nil {
			t.Errorf("%s: t = 0 should fail", alg.name)
		}
		if _, err := alg.run(tbl, 2, -0.3); err == nil {
			t.Errorf("%s: negative t should fail", alg.name)
		}
		if _, err := alg.run(tbl, 2, 1.5); err == nil {
			t.Errorf("%s: t > 1 should fail", alg.name)
		}
	}
}

func TestEmptyTableRejected(t *testing.T) {
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	for _, alg := range allAlgorithms {
		if _, err := alg.run(tbl, 2, 0.1); err == nil {
			t.Errorf("%s: empty table should fail", alg.name)
		}
	}
}

func TestSchemaWithoutConfidentialRejected(t *testing.T) {
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
	))
	if err := tbl.AppendNumericRow(1); err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms {
		if _, err := alg.run(tbl, 1, 0.1); err == nil {
			t.Errorf("%s: schema without confidential attribute should fail", alg.name)
		}
	}
}

func TestResultSizes(t *testing.T) {
	r := &Result{Clusters: nil}
	if s := r.Sizes(); s.Num != 0 {
		t.Errorf("Sizes of empty result = %+v", s)
	}
}

func TestHistSetSwapConsistency(t *testing.T) {
	tbl := synth.Uniform(40, 2, 3)
	p, err := newProblem(tbl, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{0, 5, 10, 15}
	hs := p.newHistSet(rows)
	pred := hs.emdSwap(5, 20)
	for _, h := range hs {
		h.Remove(5)
		h.Add(20)
	}
	if got := hs.emd(); got != pred {
		t.Errorf("emdSwap = %v but post-mutation emd = %v", pred, got)
	}
	// And it matches a fresh histogram of the swapped rows.
	fresh := p.newHistSet([]int{0, 20, 10, 15})
	if fresh.emd() != hs.emd() {
		t.Errorf("incremental %v != fresh %v", hs.emd(), fresh.emd())
	}
}

func TestClusterEMDMatchesHistSet(t *testing.T) {
	tbl := synth.CensusMCD()
	p, err := newProblem(tbl, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{3, 77, 400, 999}
	if a, b := p.clusterEMD(rows), p.newHistSet(rows).emd(); a != b {
		t.Errorf("clusterEMD %v != histSet emd %v", a, b)
	}
}

// Extend must carry the matrix tuning and index-cache enablement over to
// the new matrix, leave the receiver's matrix untouched, and normalize
// bit-identically to a cold Prepare — on both branches of the shared
// constructor: appended rows inside the quasi-identifier ranges (old rows
// copied, only the tail normalized) and a row that widens a range (every
// row renormalized).
func TestExtendMatchesPrepareAndCarriesMatrixSettings(t *testing.T) {
	base := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "q1", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "q2", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "s", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	for r := 0; r < 60; r++ {
		if err := base.AppendNumericRow(float64(r%7), float64(r%11)*1.5, float64(r%5)); err != nil {
			t.Fatal(err)
		}
	}
	tun := micro.Tuning{Workers: 2, IndexCrossover: 8}
	for name, tail := range map[string][][]float64{
		"inside":  {{3, 4.5, 1}, {6, 0, 7}},
		"widened": {{3, 4.5, 1}, {100, 0, 2}},
	} {
		ext := base.Clone()
		for _, row := range tail {
			if err := ext.AppendNumericRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		prep, err := Prepare(base)
		if err != nil {
			t.Fatal(err)
		}
		prep.Matrix().SetTuning(tun)
		prep.Matrix().EnableIndexCache()
		got, err := prep.Extend(ext)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Prepare(ext)
		if err != nil {
			t.Fatal(err)
		}
		if got.Matrix().TuningOf() != tun || !got.Matrix().IndexCacheEnabled() {
			t.Errorf("%s: tuning %+v, index cache %v; want %+v and enabled",
				name, got.Matrix().TuningOf(), got.Matrix().IndexCacheEnabled(), tun)
		}
		if prep.Matrix().N() != base.Len() {
			t.Errorf("%s: receiver matrix grew to %d rows", name, prep.Matrix().N())
		}
		if got.Matrix().N() != ext.Len() || got.Matrix().Dim() != want.Matrix().Dim() {
			t.Fatalf("%s: extended matrix %dx%d, want %dx%d", name,
				got.Matrix().N(), got.Matrix().Dim(), ext.Len(), want.Matrix().Dim())
		}
		for i := 0; i < ext.Len(); i++ {
			for j, v := range want.Matrix().Row(i) {
				if g := got.Matrix().Row(i)[j]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("%s: row %d col %d: extended %v, cold %v", name, i, j, g, v)
				}
			}
		}
	}
}
