package generalization

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/privacy"
	"repro/internal/synth"
)

func TestMondrianErrors(t *testing.T) {
	tbl := synth.Uniform(10, 2, 1)
	if _, err := Mondrian(tbl, 0); err == nil {
		t.Error("k = 0 should fail")
	}
	empty := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	if _, err := Mondrian(empty, 2); err == nil {
		t.Error("empty table should fail")
	}
}

func TestMondrianPartitionValid(t *testing.T) {
	for _, n := range []int{1, 5, 50, 200} {
		for _, k := range []int{1, 2, 5} {
			tbl := synth.Uniform(n, 3, int64(n+k))
			clusters, err := Mondrian(tbl, k)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			kk := k
			if n < kk {
				kk = n
			}
			if err := micro.CheckPartition(clusters, n, kk); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
		}
	}
}

func TestMondrianSplitsWhenPossible(t *testing.T) {
	// 100 well-spread records with k=2 must produce many classes, not one.
	tbl := synth.Uniform(100, 2, 3)
	clusters, err := Mondrian(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) < 20 {
		t.Errorf("only %d clusters; Mondrian should split aggressively at k=2", len(clusters))
	}
	// Every leaf must be smaller than 2*2k (cannot split further only below
	// 2k, modulo ties collapsing cuts).
	for _, c := range clusters {
		if c.Size() >= 4*2 {
			t.Errorf("suspiciously large leaf: %d records", c.Size())
		}
	}
}

func TestMondrianIdenticalRecords(t *testing.T) {
	// All-identical QIs admit no cut: a single class results.
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	for i := 0; i < 10; i++ {
		if err := tbl.AppendNumericRow(5, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	clusters, err := Mondrian(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Errorf("identical records should form one class, got %d", len(clusters))
	}
}

func TestMondrianTGuarantee(t *testing.T) {
	tbl := synth.CensusMCD()
	for _, tl := range []float64{0.05, 0.15, 0.25} {
		clusters, err := MondrianTPrepared(context.Background(), tbl, 2, tl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := micro.CheckPartition(clusters, tbl.Len(), 2); err != nil {
			t.Fatal(err)
		}
		tc, err := privacy.TClosenessOf(tbl, clusters)
		if err != nil {
			t.Fatal(err)
		}
		if tc > tl+1e-12 {
			t.Errorf("t=%v: partition t-closeness %v exceeds bound", tl, tc)
		}
	}
}

func TestMondrianTCoarserThanMondrian(t *testing.T) {
	tbl := synth.CensusHCD()
	plain, err := Mondrian(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	constrained, err := MondrianTPrepared(context.Background(), tbl, 2, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(constrained) > len(plain) {
		t.Errorf("t-constrained Mondrian has more classes (%d) than plain (%d)",
			len(constrained), len(plain))
	}
}

func TestMondrianProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8, seed int64) bool {
		n := 1 + int(nRaw)%150
		k := 1 + int(kRaw)%6
		tbl := synth.Uniform(n, 2, seed)
		clusters, err := Mondrian(tbl, k)
		if err != nil {
			return false
		}
		kk := k
		if n < kk {
			kk = n
		}
		return micro.CheckPartition(clusters, n, kk) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAggregateMidpoints(t *testing.T) {
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "id", Role: dataset.Identifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	for _, v := range []float64{10, 20, 40} {
		if err := tbl.AppendNumericRow(1, v, v); err != nil {
			t.Fatal(err)
		}
	}
	out, err := Aggregate(tbl, []micro.Cluster{{Rows: []int{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	// Midpoint of [10,40] is 25 (not the mean 23.33).
	for r := 0; r < 3; r++ {
		if got := out.Value(r, 1); got != 25 {
			t.Errorf("row %d recoded to %v, want 25", r, got)
		}
		if out.Value(r, 0) != 0 {
			t.Error("identifier not blanked")
		}
		if out.Value(r, 2) != tbl.Value(r, 2) {
			t.Error("confidential modified")
		}
	}
}

func TestAggregateRejectsNonPartition(t *testing.T) {
	tbl := synth.Uniform(4, 1, 2)
	if _, err := Aggregate(tbl, []micro.Cluster{{Rows: []int{0}}}); err == nil {
		t.Error("incomplete partition should fail")
	}
}

func TestMondrianAnonymizedTableIsKAnonymous(t *testing.T) {
	tbl := synth.Census(400, synth.FedTax, 7)
	clusters, err := Mondrian(tbl, 5)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := Aggregate(tbl, clusters)
	if err != nil {
		t.Fatal(err)
	}
	k, err := privacy.KAnonymity(anon)
	if err != nil {
		t.Fatal(err)
	}
	if k < 5 {
		t.Errorf("k-anonymity = %d, want >= 5", k)
	}
}
