package micro

import (
	"context"
	"sort"
	"testing"

	"repro/internal/synth"
)

func TestAnatomyReleasePreservesQIs(t *testing.T) {
	tbl := synth.Census(200, synth.FedTax, 3)
	clusters, err := MDAV(context.Background(), NewMatrix(tbl.QIMatrix()), 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := AnatomyRelease(tbl, clusters, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range tbl.Schema().QuasiIdentifiers() {
		for r := 0; r < tbl.Len(); r++ {
			if out.Value(r, col) != tbl.Value(r, col) {
				t.Fatalf("QI value (%d,%d) changed", r, col)
			}
		}
	}
}

func TestAnatomyReleasePermutesWithinClusters(t *testing.T) {
	tbl := synth.Census(200, synth.FedTax, 3)
	clusters, err := MDAV(context.Background(), NewMatrix(tbl.QIMatrix()), 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := AnatomyRelease(tbl, clusters, 1)
	if err != nil {
		t.Fatal(err)
	}
	conf := tbl.Schema().Confidentials()[0]
	changed := 0
	for _, c := range clusters {
		// The multiset of confidential values per cluster is invariant.
		orig := make([]float64, 0, len(c.Rows))
		perm := make([]float64, 0, len(c.Rows))
		for _, r := range c.Rows {
			orig = append(orig, tbl.Value(r, conf))
			perm = append(perm, out.Value(r, conf))
			if tbl.Value(r, conf) != out.Value(r, conf) {
				changed++
			}
		}
		sort.Float64s(orig)
		sort.Float64s(perm)
		for i := range orig {
			if orig[i] != perm[i] {
				t.Fatal("cluster confidential multiset changed")
			}
		}
	}
	if changed == 0 {
		t.Error("permutation left every record in place; link not broken")
	}
}

func TestAnatomyReleaseDeterministic(t *testing.T) {
	tbl := synth.Uniform(60, 2, 5)
	clusters, err := MDAV(context.Background(), NewMatrix(tbl.QIMatrix()), 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnatomyRelease(tbl, clusters, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnatomyRelease(tbl, clusters, 42)
	if err != nil {
		t.Fatal(err)
	}
	conf := tbl.Schema().Confidentials()[0]
	for r := 0; r < tbl.Len(); r++ {
		if a.Value(r, conf) != b.Value(r, conf) {
			t.Fatal("same seed should give the same release")
		}
	}
}

func TestAnatomyReleaseRejectsNonPartition(t *testing.T) {
	tbl := synth.Uniform(10, 2, 7)
	if _, err := AnatomyRelease(tbl, []Cluster{{Rows: []int{0, 1}}}, 1); err == nil {
		t.Error("incomplete partition should fail")
	}
}
