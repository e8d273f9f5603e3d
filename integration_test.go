package repro_test

// Integration tests asserting the paper's cross-cutting qualitative claims
// hold end-to-end on the synthetic evaluation data sets. These are the
// "shape" checks of EXPERIMENTS.md, encoded as tests so a regression in any
// module that silently broke a finding would fail the suite.

import (
	"testing"

	"repro"
	"repro/internal/emd"
	"repro/internal/privacy"
)

func anonOrDie(t *testing.T, tbl *repro.Table, alg repro.Algorithm, k int, tl float64) *repro.Result {
	t.Helper()
	res, err := runFresh(tbl, repro.Spec{
		Algorithm: alg, K: k, T: tl, SkipAssessment: true,
	})
	if err != nil {
		t.Fatalf("%v k=%d t=%v: %v", alg, k, tl, err)
	}
	return res
}

// TestClaimEveryAlgorithmDeliversGuarantees: for every algorithm, data set
// and a spread of (k, t), the released table must verify as k-anonymous and
// t-close by the independent privacy checker.
func TestClaimEveryAlgorithmDeliversGuarantees(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	sets := map[string]*repro.Table{
		"MCD": repro.CensusMCD(),
		"HCD": repro.CensusHCD(),
		"PD":  repro.PatientDischarge(800, 20160314),
	}
	algs := []repro.Algorithm{repro.Merge, repro.KAnonymityFirst, repro.TClosenessFirst, repro.MondrianBaseline}
	for name, tbl := range sets {
		for _, alg := range algs {
			for _, cfg := range []struct {
				k  int
				tl float64
			}{{2, 0.13}, {5, 0.21}} {
				res := anonOrDie(t, tbl, alg, cfg.k, cfg.tl)
				rep, err := privacy.Assess(res.Anonymized)
				if err != nil {
					t.Fatal(err)
				}
				if rep.KAnonymity < cfg.k {
					t.Errorf("%s/%v k=%d t=%v: released k-anonymity %d",
						name, alg, cfg.k, cfg.tl, rep.KAnonymity)
				}
				if rep.TCloseness > cfg.tl+1e-9 {
					t.Errorf("%s/%v k=%d t=%v: released t-closeness %v",
						name, alg, cfg.k, cfg.tl, rep.TCloseness)
				}
			}
		}
	}
}

// TestClaimClusterInflationOrdering: at strict t, Algorithm 1 inflates
// cluster sizes most, Algorithm 2 less, Algorithm 3 least (Tables 1-3).
func TestClaimClusterInflationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tbl := repro.CensusMCD()
	k, tl := 5, 0.09
	avg1 := anonOrDie(t, tbl, repro.Merge, k, tl).Sizes.Avg
	avg2 := anonOrDie(t, tbl, repro.KAnonymityFirst, k, tl).Sizes.Avg
	avg3 := anonOrDie(t, tbl, repro.TClosenessFirst, k, tl).Sizes.Avg
	// Algorithm 3's average can exceed Algorithm 2's by a fraction of a
	// record when Eq. (3) raises its effective k above the requested k
	// while Algorithm 2's merge stops just short; allow one record of
	// slack, matching the granularity of the paper's tables.
	if !(avg1 >= avg2 && avg2 >= avg3-1) {
		t.Errorf("cluster inflation ordering violated: alg1 %.1f, alg2 %.1f, alg3 %.1f",
			avg1, avg2, avg3)
	}
}

// TestClaimAlgorithm3Balanced: when the Eq. (3) size divides n, Algorithm 3
// produces perfectly balanced clusters at exactly that size (Table 3).
func TestClaimAlgorithm3Balanced(t *testing.T) {
	tbl := repro.CensusMCD() // n = 1080
	for _, tl := range []float64{0.05, 0.13, 0.25} {
		res := anonOrDie(t, tbl, repro.TClosenessFirst, 5, tl)
		want, err := emd.RequiredClusterSize(tbl.Len(), 5, tl)
		if err != nil {
			t.Fatal(err)
		}
		want = emd.AdjustClusterSize(tbl.Len(), want)
		if res.Sizes.Min != want || res.Sizes.Max != want {
			t.Errorf("t=%v: sizes [%d,%d], want balanced %d",
				tl, res.Sizes.Min, res.Sizes.Max, want)
		}
	}
}

// TestClaimSSEOrderingAtK2: at k=2 (the paper's Figure 6 setting), the
// t-closeness-first algorithm preserves utility strictly best on the
// moderately correlated data at strict-to-moderate t, and the two
// QI-prioritizing algorithms sit close to each other well above it. (The
// paper's Figure 6 shows alg2 strictly between alg1 and alg3; on the
// synthetic data alg1 and alg2 trade places within ~25% at some t, so the
// assertion on their relative order carries that tolerance. See
// EXPERIMENTS.md.)
func TestClaimSSEOrderingAtK2(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tbl := repro.CensusMCD()
	for _, tl := range []float64{0.05, 0.09, 0.13} {
		sse1 := anonOrDie(t, tbl, repro.Merge, 2, tl).SSE
		sse2 := anonOrDie(t, tbl, repro.KAnonymityFirst, 2, tl).SSE
		sse3 := anonOrDie(t, tbl, repro.TClosenessFirst, 2, tl).SSE
		if sse3 > sse1 || sse3 > sse2 {
			t.Errorf("t=%v: alg3 SSE %.5f not the best (alg1 %.5f, alg2 %.5f)",
				tl, sse3, sse1, sse2)
		}
		if sse2 > sse1*1.25 {
			t.Errorf("t=%v: alg2 SSE %.5f far above alg1 %.5f", tl, sse2, sse1)
		}
	}
}

// TestClaimAlgorithm3FastestAtSmallT: Algorithm 3's analytic cluster sizing
// makes it far faster than Algorithm 1 (which microaggregates at the
// requested k and then merges) and Algorithm 2 (which swaps records) at
// strict t — Figure 5's key message.
func TestClaimAlgorithm3FastestAtSmallT(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tbl := repro.PatientDischarge(1200, 20160314)
	e1 := anonOrDie(t, tbl, repro.Merge, 2, 0.05).Elapsed
	e2 := anonOrDie(t, tbl, repro.KAnonymityFirst, 2, 0.05).Elapsed
	e3 := anonOrDie(t, tbl, repro.TClosenessFirst, 2, 0.05).Elapsed
	if e3 > e1 {
		t.Errorf("alg3 (%v) slower than alg1 (%v) at small t", e3, e1)
	}
	if e3 > e2 {
		t.Errorf("alg3 (%v) slower than alg2 (%v)", e3, e2)
	}
}

// TestClaimMicroaggregationBeatsGeneralization: microaggregation (Algorithm
// 3) preserves more utility than the Mondrian generalization baseline at
// equal (k, t) — the motivation of Section 4.
func TestClaimMicroaggregationBeatsGeneralization(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, tbl := range []*repro.Table{repro.CensusMCD(), repro.CensusHCD()} {
		for _, tl := range []float64{0.09, 0.17} {
			sseMicro := anonOrDie(t, tbl, repro.TClosenessFirst, 5, tl).SSE
			sseMondrian := anonOrDie(t, tbl, repro.MondrianBaseline, 5, tl).SSE
			if sseMicro >= sseMondrian {
				t.Errorf("t=%v: microaggregation SSE %.5f not below Mondrian %.5f",
					tl, sseMicro, sseMondrian)
			}
		}
	}
}

// TestClaimHCDHarderThanMCD: for Algorithm 2, the highly correlated data
// set needs at least as much cluster inflation as the moderately correlated
// one (Section 8.1's explanation of the MCD/HCD contrast). Algorithm 3 by
// contrast is correlation-independent in its cluster sizes.
func TestClaimHCDHarderThanMCD(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	k, tl := 5, 0.05
	avgMCD := anonOrDie(t, repro.CensusMCD(), repro.KAnonymityFirst, k, tl).Sizes.Avg
	avgHCD := anonOrDie(t, repro.CensusHCD(), repro.KAnonymityFirst, k, tl).Sizes.Avg
	if avgHCD < avgMCD*0.9 {
		t.Errorf("HCD avg cluster %.1f unexpectedly below MCD %.1f", avgHCD, avgMCD)
	}
	szMCD := anonOrDie(t, repro.CensusMCD(), repro.TClosenessFirst, k, tl).Sizes
	szHCD := anonOrDie(t, repro.CensusHCD(), repro.TClosenessFirst, k, tl).Sizes
	if szMCD.Min != szHCD.Min || szMCD.Max != szHCD.Max {
		t.Errorf("alg3 cluster sizes differ across correlation: %+v vs %+v", szMCD, szHCD)
	}
}

// TestClaimTightTForcesBiggerClusters: for Algorithm 3, smaller t means
// larger (or equal) enforced cluster size — Eq. (3) monotonicity observed
// end-to-end.
func TestClaimTightTForcesBiggerClusters(t *testing.T) {
	tbl := repro.CensusMCD()
	prev := 1 << 30
	for _, tl := range []float64{0.01, 0.05, 0.09, 0.17, 0.25} {
		res := anonOrDie(t, tbl, repro.TClosenessFirst, 2, tl)
		if res.EffectiveK > prev {
			t.Errorf("t=%v: effective k %d grew as t loosened (prev %d)",
				tl, res.EffectiveK, prev)
		}
		prev = res.EffectiveK
	}
}

// TestClaimSABRENeedsLargerClasses encodes the paper's Section 3 comparison
// with SABRE: the greedy bucketization's equivalence-class size is at least
// Algorithm 3's analytic Eq. (3) minimum, and in practice larger at strict
// t, costing utility.
func TestClaimSABRENeedsLargerClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tbl := repro.CensusMCD()
	for _, tl := range []float64{0.05, 0.13} {
		sab := anonOrDie(t, tbl, repro.SABREBaseline, 2, tl)
		a3 := anonOrDie(t, tbl, repro.TClosenessFirst, 2, tl)
		if sab.EffectiveK < a3.EffectiveK {
			t.Errorf("t=%v: SABRE EC size %d below Algorithm 3's %d",
				tl, sab.EffectiveK, a3.EffectiveK)
		}
		if sab.SSE < a3.SSE {
			t.Errorf("t=%v: SABRE SSE %v unexpectedly below Algorithm 3's %v",
				tl, sab.SSE, a3.SSE)
		}
	}
}

// TestClaimGeneralizationFamiliesLoseMoreUtility: both generalization
// baselines (Mondrian-t and Incognito-t) lose more utility than Algorithm 3
// at equal (k, t) — Section 4's argument across the whole family.
func TestClaimGeneralizationFamiliesLoseMoreUtility(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tbl := repro.CensusMCD()
	a3 := anonOrDie(t, tbl, repro.TClosenessFirst, 5, 0.17)
	for _, alg := range []repro.Algorithm{repro.MondrianBaseline, repro.IncognitoBaseline} {
		base := anonOrDie(t, tbl, alg, 5, 0.17)
		if base.SSE <= a3.SSE {
			t.Errorf("%v SSE %v not above Algorithm 3's %v", alg, base.SSE, a3.SSE)
		}
	}
}

// TestPipelineDeterminism: the whole pipeline — generator, algorithms,
// aggregation — is deterministic for a fixed seed, so published experiment
// outputs are reproducible bit for bit.
func TestPipelineDeterminism(t *testing.T) {
	run := func() []float64 {
		tbl := repro.PatientDischarge(300, 20160314)
		res, err := runFresh(tbl, repro.Spec{
			Algorithm: repro.Merge, K: 3, T: 0.15, SkipAssessment: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := []float64{res.SSE, res.MaxEMD, float64(len(res.Clusters))}
		for c := 0; c < res.Anonymized.Width(); c++ {
			out = append(out, res.Anonymized.Value(0, c))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pipeline output differs across identical runs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
