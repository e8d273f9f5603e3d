package privacy

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
)

// anonFixture builds a 6-record table already in anonymized form: two
// equivalence classes of 3 identical QI vectors each.
func anonFixture(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "age", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "zip", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "salary", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	rows := [][]float64{
		{30, 1000, 10}, {30, 1000, 20}, {30, 1000, 30},
		{50, 2000, 40}, {50, 2000, 50}, {50, 2000, 60},
	}
	for _, r := range rows {
		if err := tbl.AppendNumericRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestEquivalenceClasses(t *testing.T) {
	tbl := anonFixture(t)
	classes, err := EquivalenceClasses(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(classes))
	}
	if classes[0].Size() != 3 || classes[1].Size() != 3 {
		t.Errorf("class sizes = %d, %d", classes[0].Size(), classes[1].Size())
	}
	// Order of first appearance is preserved.
	if classes[0].Rows[0] != 0 || classes[1].Rows[0] != 3 {
		t.Errorf("class order wrong: %v", classes)
	}
}

func TestEquivalenceClassesErrors(t *testing.T) {
	empty := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "age", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "salary", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	if _, err := EquivalenceClasses(empty); err == nil {
		t.Error("empty table should fail")
	}
	noQI := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "salary", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	if err := noQI.AppendNumericRow(1); err != nil {
		t.Fatal(err)
	}
	if _, err := EquivalenceClasses(noQI); err == nil {
		t.Error("table without QIs should fail")
	}
}

func TestKAnonymity(t *testing.T) {
	tbl := anonFixture(t)
	k, err := KAnonymity(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("KAnonymity = %d, want 3", k)
	}
}

func TestKAnonymityBrokenBySingleton(t *testing.T) {
	tbl := anonFixture(t)
	// Give record 5 a unique QI combination.
	tbl.SetValue(5, 0, 99)
	k, err := KAnonymity(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("KAnonymity = %d, want 1", k)
	}
}

func TestTCloseness(t *testing.T) {
	tbl := anonFixture(t)
	// Class 1 holds the lower half of salaries, class 2 the upper half:
	// both are far from the global distribution.
	tc, err := TCloseness(tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Each class covers 3 consecutive ranks out of 6 distinct values:
	// EMD = (|3/6-0|+... ) hand value: p=(1/3,1/3,1/3,0,0,0), q=(1/6 x6).
	// cum: 1/6, 2/6, 3/6, 2/6, 1/6 -> sum 9/6, /(m-1)=5 -> 0.3.
	if math.Abs(tc-0.3) > 1e-12 {
		t.Errorf("TCloseness = %v, want 0.3", tc)
	}
}

func TestTClosenessOfExplicitPartition(t *testing.T) {
	tbl := anonFixture(t)
	// Interleaved partition: each class spreads over the salary range, so
	// the EMD is much smaller than the contiguous split.
	classes := []micro.Cluster{{Rows: []int{0, 2, 4}}, {Rows: []int{1, 3, 5}}}
	tc, err := TClosenessOf(tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	if tc >= 0.3 {
		t.Errorf("interleaved partition EMD = %v, want < 0.3", tc)
	}
}

func TestLDiversity(t *testing.T) {
	tbl := anonFixture(t)
	l, err := LDiversity(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if l != 3 {
		t.Errorf("LDiversity = %d, want 3", l)
	}
	// Collapse one class's salaries to a single value.
	tbl.SetValue(1, 2, 10)
	tbl.SetValue(2, 2, 10)
	l, _ = LDiversity(tbl)
	if l != 1 {
		t.Errorf("LDiversity after collapse = %d, want 1", l)
	}
}

func TestAssess(t *testing.T) {
	tbl := anonFixture(t)
	rep, err := Assess(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Classes != 2 || rep.KAnonymity != 3 || rep.LDiversity != 3 {
		t.Errorf("Report = %+v", rep)
	}
	if math.Abs(rep.TCloseness-0.3) > 1e-12 {
		t.Errorf("Report.TCloseness = %v", rep.TCloseness)
	}
}

func TestVerifiersAgreeWithPipeline(t *testing.T) {
	// The verifiers must confirm what micro.Aggregate + MDAV promise on a
	// real data set.
	tbl := synth.Census(200, synth.FedTax, 5)
	clusters, err := micro.MDAV(context.Background(), micro.NewMatrix(tbl.QIMatrix()), 4)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := micro.Aggregate(tbl, clusters)
	if err != nil {
		t.Fatal(err)
	}
	k, err := KAnonymity(anon)
	if err != nil {
		t.Fatal(err)
	}
	if k < 4 {
		t.Errorf("aggregated MDAV output has k-anonymity %d, want >= 4", k)
	}
	// The partition-level and table-level t-closeness must agree, unless
	// two clusters aggregated to identical centroids (not the case here).
	tcPart, err := TClosenessOf(tbl, clusters)
	if err != nil {
		t.Fatal(err)
	}
	tcTable, err := TCloseness(anon)
	if err != nil {
		t.Fatal(err)
	}
	if tcTable > tcPart+1e-12 {
		t.Errorf("table t-closeness %v worse than partition %v", tcTable, tcPart)
	}
}

func TestTClosenessRequiresConfidential(t *testing.T) {
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "age", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "x", Role: dataset.NonConfidential, Kind: dataset.Numeric},
	))
	if err := tbl.AppendNumericRow(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := TCloseness(tbl); err == nil {
		t.Error("missing confidential attribute should fail")
	}
	if _, err := LDiversity(tbl); err == nil {
		t.Error("missing confidential attribute should fail for l-diversity")
	}
}
