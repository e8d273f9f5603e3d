package risk

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
)

func TestDistanceLinkageIdentityRelease(t *testing.T) {
	// Releasing the original data re-identifies everyone (records are
	// distinct with probability 1 in the uniform generator).
	tbl := synth.Uniform(50, 2, 3)
	res, err := DistanceLinkage(tbl, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Rate()-1) > 1e-12 {
		t.Errorf("identity release linkage rate = %v, want 1", res.Rate())
	}
}

func TestDistanceLinkageKAnonymousRelease(t *testing.T) {
	// A k-anonymous release bounds re-identification at 1/k: each original
	// record's nearest anonymized points are the k identical centroids of
	// its cluster, so the tie-broken credit is exactly 1/size(cluster).
	tbl := synth.Census(300, synth.FedTax, 5)
	for _, k := range []int{2, 5, 10} {
		res := release(t, tbl, core.Spec{
			Algorithm: core.TClosenessFirst, K: k, T: 0.2, SkipAssessment: true,
		})
		link, err := DistanceLinkage(tbl, res.Anonymized)
		if err != nil {
			t.Fatal(err)
		}
		if link.Rate() > 1.0/float64(k)+1e-9 {
			t.Errorf("k=%d: linkage rate %v exceeds 1/k", k, link.Rate())
		}
		if link.Rate() <= 0 {
			t.Errorf("k=%d: linkage rate should be positive", k)
		}
	}
}

func TestDistanceLinkageRiskBoundedByK(t *testing.T) {
	// The 1/k ceiling tightens with k; small-k rates are noisy (Algorithm
	// 3's QI-scattered clusters push the empirical rate far below the
	// ceiling), so assert the ceilings rather than strict monotonicity.
	tbl := synth.Census(300, synth.FedTax, 9)
	for _, k := range []int{2, 5, 15} {
		res := release(t, tbl, core.Spec{
			Algorithm: core.TClosenessFirst, K: k, T: 0.25, SkipAssessment: true,
		})
		link, err := DistanceLinkage(tbl, res.Anonymized)
		if err != nil {
			t.Fatal(err)
		}
		if link.Rate() > 1.0/float64(k)+1e-9 {
			t.Errorf("k=%d: linkage rate %v above the 1/k ceiling", k, link.Rate())
		}
	}
}

func TestDistanceLinkageValidation(t *testing.T) {
	a := synth.Uniform(10, 2, 1)
	short, err := a.Subset([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DistanceLinkage(a, short); err == nil {
		t.Error("size mismatch should fail")
	}
	other := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "s", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	for i := 0; i < 10; i++ {
		if err := other.AppendNumericRow(float64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := DistanceLinkage(a, other); err == nil {
		t.Error("schema mismatch should fail")
	}
	empty, err := a.Subset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DistanceLinkage(empty, empty); err == nil {
		t.Error("empty tables should fail")
	}
}

func TestAnatomyReleaseHasFullLinkage(t *testing.T) {
	// The QI-preserving permutation release keeps the original QI values,
	// so record linkage trivially succeeds — the point is that the linked
	// record's confidential value is no longer the subject's. This test
	// documents that property so adopters are not surprised.
	tbl := synth.Census(200, synth.FedTax, 13)
	res := release(t, tbl, core.Spec{
		Algorithm: core.TClosenessFirst, K: 5, T: 0.2, SkipAssessment: true,
	})
	anon, err := micro.AnatomyRelease(tbl, res.Clusters, 1)
	if err != nil {
		t.Fatal(err)
	}
	link, err := DistanceLinkage(tbl, anon)
	if err != nil {
		t.Fatal(err)
	}
	if link.Rate() < 0.99 {
		t.Errorf("anatomy linkage rate = %v, want ~1 (QIs unchanged)", link.Rate())
	}
}

// release runs spec on a fresh engine over tbl.
func release(t *testing.T, tbl *dataset.Table, spec core.Spec) *core.Result {
	t.Helper()
	eng, err := core.NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
