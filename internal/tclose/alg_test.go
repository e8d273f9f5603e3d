package tclose

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/micro"
	"repro/internal/synth"
)

// checkGuarantees: every guarantee-carrying algorithm must produce a
// partition of the whole table into clusters of at least min(k, n) records
// with MaxEMD <= t.
func checkGuarantees(t *testing.T, name string, res *Result, n, k int, tl float64) {
	t.Helper()
	kk := k
	if n < kk {
		kk = n
	}
	if err := micro.CheckPartition(res.Clusters, n, kk); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.MaxEMD > tl+1e-12 {
		t.Fatalf("%s: MaxEMD %v exceeds t = %v", name, res.MaxEMD, tl)
	}
}

func TestAlgorithm1Guarantees(t *testing.T) {
	tbl := synth.Uniform(120, 3, 5)
	for _, k := range []int{2, 5, 10} {
		for _, tl := range []float64{0.05, 0.15, 0.3} {
			res, err := algorithm1(tbl, k, tl)
			if err != nil {
				t.Fatalf("k=%d t=%v: %v", k, tl, err)
			}
			checkGuarantees(t, "alg1", res, tbl.Len(), k, tl)
		}
	}
}

func TestAlgorithm1WorstCaseSingleCluster(t *testing.T) {
	// With a tiny t the only feasible partition is one cluster of all
	// records (EMD = 0).
	tbl := synth.Uniform(40, 2, 7)
	res, err := algorithm1(tbl, 2, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	checkGuarantees(t, "alg1", res, tbl.Len(), 2, 0.001)
	if len(res.Clusters) != 1 {
		t.Errorf("expected total merge, got %d clusters (MaxEMD %v)",
			len(res.Clusters), res.MaxEMD)
	}
}

func TestAlgorithm1MergesMonotoneInT(t *testing.T) {
	// Stricter t can only force more merging: cluster count must be
	// non-increasing as t decreases.
	tbl := synth.CensusMCD()
	prev := -1
	for _, tl := range []float64{0.25, 0.17, 0.09, 0.05, 0.01} {
		res, err := algorithm1(tbl, 5, tl)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && len(res.Clusters) > prev {
			t.Errorf("t=%v produced more clusters (%d) than looser t (%d)",
				tl, len(res.Clusters), prev)
		}
		prev = len(res.Clusters)
	}
}

func TestAlgorithm2Guarantees(t *testing.T) {
	tbl := synth.Uniform(120, 3, 6)
	for _, k := range []int{2, 5} {
		for _, tl := range []float64{0.05, 0.15, 0.3} {
			res, err := algorithm2(tbl, k, tl)
			if err != nil {
				t.Fatalf("k=%d t=%v: %v", k, tl, err)
			}
			checkGuarantees(t, "alg2", res, tbl.Len(), k, tl)
		}
	}
}

func TestAlgorithm2StandalonePartitionValid(t *testing.T) {
	// The standalone variant must still produce a k-anonymous partition,
	// even though it may miss the t target.
	tbl := synth.CensusHCD()
	res, err := algorithm2Standalone(tbl, 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := micro.CheckPartition(res.Clusters, tbl.Len(), 5); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithm2SwapsReduceMerging(t *testing.T) {
	// The swap refinement should leave less work for the merge phase than
	// raw MDAV + merging on the same inputs: the k-anonymity-first result
	// must never have *fewer* clusters than Algorithm 1's.
	tbl := synth.CensusMCD()
	for _, tl := range []float64{0.09, 0.13, 0.17} {
		r1, err := algorithm1(tbl, 5, tl)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := algorithm2(tbl, 5, tl)
		if err != nil {
			t.Fatal(err)
		}
		if len(r2.Clusters) < len(r1.Clusters) {
			t.Errorf("t=%v: alg2 has fewer clusters (%d) than alg1 (%d)",
				tl, len(r2.Clusters), len(r1.Clusters))
		}
	}
}

func TestAlgorithm2CountsSwaps(t *testing.T) {
	// On the highly correlated data set with a strict t, swaps must occur.
	tbl := synth.CensusHCD()
	res, err := algorithm2(tbl, 5, 0.09)
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 {
		t.Error("expected swap refinement to fire on HCD at t=0.09")
	}
}

func TestAlgorithm3Guarantees(t *testing.T) {
	tbl := synth.Uniform(120, 3, 8)
	for _, k := range []int{2, 5, 10} {
		for _, tl := range []float64{0.05, 0.15, 0.3} {
			res, err := algorithm3(tbl, k, tl)
			if err != nil {
				t.Fatalf("k=%d t=%v: %v", k, tl, err)
			}
			checkGuarantees(t, "alg3", res, tbl.Len(), k, tl)
		}
	}
}

func TestAlgorithm3ClusterSizesTight(t *testing.T) {
	// When k' divides n every cluster has exactly k' records (Table 3 of
	// the paper: "clusters are perfectly balanced").
	tbl := synth.CensusMCD() // n = 1080
	for _, k := range []int{2, 5, 10, 15, 20, 30} {
		res, err := algorithm3(tbl, k, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Sizes()
		if st.Min != res.EffectiveK || st.Max != res.EffectiveK {
			t.Errorf("k=%d: sizes min=%d max=%d, want all %d",
				k, st.Min, st.Max, res.EffectiveK)
		}
	}
}

func TestAlgorithm3EffectiveKMatchesEq3(t *testing.T) {
	tbl := synth.CensusMCD()
	n := tbl.Len()
	for _, tl := range []float64{0.01, 0.05, 0.13, 0.25} {
		res, err := algorithm3(tbl, 2, tl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := emd.RequiredClusterSize(n, 2, tl)
		if err != nil {
			t.Fatal(err)
		}
		want = emd.AdjustClusterSize(n, want)
		if res.EffectiveK != want {
			t.Errorf("t=%v: EffectiveK = %d, want %d", tl, res.EffectiveK, want)
		}
	}
}

func TestAlgorithm3BoundHolds(t *testing.T) {
	// The Proposition 2 bound must hold for every cluster, not just the max.
	tbl := synth.CensusHCD()
	res, err := algorithm3(tbl, 5, 0.09)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newProblem(tbl, 5, 0.09)
	if err != nil {
		t.Fatal(err)
	}
	bound := emd.MaxSpreadClusterEMD(tbl.Len(), res.EffectiveK)
	for ci, c := range res.Clusters {
		if d := p.clusterEMD(c.Rows); d > bound+1e-9 {
			t.Errorf("cluster %d EMD %v exceeds Proposition 2 bound %v", ci, d, bound)
		}
	}
}

func TestAlgorithm3SingleClusterWhenTTiny(t *testing.T) {
	tbl := synth.Uniform(30, 2, 13)
	res, err := algorithm3(tbl, 2, 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || res.MaxEMD != 0 {
		t.Errorf("tiny t should force one cluster: %d clusters, EMD %v",
			len(res.Clusters), res.MaxEMD)
	}
}

func TestAlgorithm3PropertyRandomInputs(t *testing.T) {
	// Across random data set sizes, ks and ts, Algorithm 3 always returns a
	// valid k'-anonymous t-close partition whose sizes are k' or k'+1.
	f := func(nRaw, kRaw uint8, tRaw uint16, seed int64) bool {
		n := 4 + int(nRaw)%200
		k := 1 + int(kRaw)%12
		tl := 0.01 + float64(tRaw%400)/1000.0
		tbl := synth.Uniform(n, 2, seed)
		res, err := algorithm3(tbl, k, tl)
		if err != nil {
			return false
		}
		kk := res.EffectiveK
		if kk > n {
			return false
		}
		if err := micro.CheckPartition(res.Clusters, n, min(kk, n)); err != nil {
			return false
		}
		// Exact guarantee when k' | n; otherwise the paper's approximation
		// applies and the rigorous uneven-case bound must still hold.
		allowed := tl
		if n%kk != 0 {
			if b := emd.MaxSpreadClusterEMDUneven(n, kk); b > allowed {
				allowed = b
			}
		}
		if res.MaxEMD > allowed+1e-9 {
			return false
		}
		if len(res.Clusters) > 1 {
			for _, c := range res.Clusters {
				if c.Size() != kk && c.Size() != kk+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{
		MaxCount: 150,
		Rand:     rand.New(rand.NewSource(31)),
	}); err != nil {
		t.Error(err)
	}
}

func TestAlgorithmsOnDuplicateHeavyData(t *testing.T) {
	// A confidential attribute with very few distinct values (many ties)
	// stresses the rank subsets and EMD bins.
	tbl := synth.Uniform(60, 2, 17)
	conf := tbl.Schema().Confidentials()[0]
	for r := 0; r < tbl.Len(); r++ {
		tbl.SetValue(r, conf, float64(r%3))
	}
	for _, alg := range allAlgorithms {
		res, err := alg.run(tbl, 3, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if err := micro.CheckPartition(res.Clusters, tbl.Len(), 3); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if alg.name != "alg2-standalone" && res.MaxEMD > 0.2+1e-12 {
			t.Fatalf("%s: MaxEMD %v > t", alg.name, res.MaxEMD)
		}
	}
}

func TestAlgorithmsOnConstantConfidential(t *testing.T) {
	// A constant confidential attribute means every cluster trivially has
	// EMD 0; all algorithms must return plain k-anonymous partitions.
	tbl := synth.Uniform(40, 2, 19)
	conf := tbl.Schema().Confidentials()[0]
	for r := 0; r < tbl.Len(); r++ {
		tbl.SetValue(r, conf, 42)
	}
	for _, alg := range allAlgorithms {
		res, err := alg.run(tbl, 4, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if res.MaxEMD != 0 {
			t.Errorf("%s: EMD should be 0 on constant attribute, got %v",
				alg.name, res.MaxEMD)
		}
		if err := micro.CheckPartition(res.Clusters, tbl.Len(), 4); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
	}
}

func TestAlgorithmsKLargerThanN(t *testing.T) {
	tbl := synth.Uniform(5, 2, 23)
	for _, alg := range allAlgorithms {
		res, err := alg.run(tbl, 10, 0.3)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if len(res.Clusters) != 1 || res.Clusters[0].Size() != 5 {
			t.Errorf("%s: k > n should yield a single cluster, got %v",
				alg.name, res.Clusters)
		}
	}
}

func TestAlgorithmsMultipleConfidentialAttributes(t *testing.T) {
	// Two confidential attributes: guaranteeing algorithms must satisfy the
	// reported MaxEMD over both. The second attribute is the negation of the
	// first, so its ranking is reversed — a worst case for any code that
	// assumed a single shared ranking.
	src := synth.Uniform(80, 2, 29)
	wide := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "QIA", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "QIB", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "SECRET", Role: dataset.Confidential, Kind: dataset.Numeric},
		dataset.Attribute{Name: "SECRET2", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	for r := 0; r < src.Len(); r++ {
		if err := wide.AppendNumericRow(
			src.Value(r, 0), src.Value(r, 1), src.Value(r, 2), -src.Value(r, 2),
		); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := algorithm1(wide, 3, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	checkGuarantees(t, "alg1", r1, wide.Len(), 3, 0.15)
	r2, err := algorithm2(wide, 3, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	checkGuarantees(t, "alg2", r2, wide.Len(), 3, 0.15)
}

func TestAlgorithmsOnCategoricalConfidential(t *testing.T) {
	// A nominal categorical confidential attribute (e.g. diagnosis codes):
	// the algorithms must run, produce valid partitions, and the merging
	// algorithms must deliver the requested nominal-EMD level.
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "age", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "zip", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "diagnosis", Role: dataset.Confidential, Kind: dataset.Categorical},
	))
	diagnoses := []string{"flu", "diabetes", "fracture", "asthma"}
	src := synth.Uniform(120, 2, 37)
	for r := 0; r < src.Len(); r++ {
		d := diagnoses[int(src.Value(r, 2)*16)%len(diagnoses)]
		if err := tbl.AppendRow(20+60*src.Value(r, 0), 43000+100*src.Value(r, 1), d); err != nil {
			t.Fatal(err)
		}
	}
	for _, alg := range allAlgorithms {
		res, err := alg.run(tbl, 4, 0.25)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if err := micro.CheckPartition(res.Clusters, tbl.Len(), 4); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if alg.name == "alg1" || alg.name == "alg2" {
			if res.MaxEMD > 0.25+1e-12 {
				t.Errorf("%s: nominal MaxEMD %v exceeds t", alg.name, res.MaxEMD)
			}
		}
	}
}
