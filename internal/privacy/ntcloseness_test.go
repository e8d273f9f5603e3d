package privacy

import (
	"context"
	"testing"

	"repro/internal/micro"
	"repro/internal/synth"
	"repro/internal/tclose"
)

func TestNTClosenessDegeneratesToTCloseness(t *testing.T) {
	// With nMin >= table size the neighborhood is the whole table, so the
	// (n,t) level equals the plain t-closeness level.
	tbl := synth.Census(150, synth.FedTax, 9)
	clusters, err := micro.MDAV(context.Background(), micro.NewMatrix(tbl.QIMatrix()), 5)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := NTClosenessOf(tbl, clusters, tbl.Len())
	if err != nil {
		t.Fatal(err)
	}
	tc, err := TClosenessOf(tbl, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if diff := nt - tc; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("(n=all,t) level %v != t-closeness level %v", nt, tc)
	}
}

func TestNTClosenessRelaxesT(t *testing.T) {
	// A class compared to its local neighborhood is at most as far as from
	// the global distribution on QI-correlated data, so the (n,t) level is
	// no larger than the plain t level for small neighborhoods.
	tbl := synth.CensusHCD()
	clusters, err := micro.MDAV(context.Background(), micro.NewMatrix(tbl.QIMatrix()), 5)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := TClosenessOf(tbl, clusters)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := NTClosenessOf(tbl, clusters, 50)
	if err != nil {
		t.Fatal(err)
	}
	if nt > tc+1e-9 {
		t.Errorf("(50,t) level %v exceeds plain t level %v on correlated data", nt, tc)
	}
}

func TestNTClosenessValidation(t *testing.T) {
	tbl := synth.Uniform(20, 2, 3)
	clusters, err := micro.MDAV(context.Background(), micro.NewMatrix(tbl.QIMatrix()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NTClosenessOf(tbl, clusters, 0); err == nil {
		t.Error("n = 0 should fail")
	}
	empty, _ := tbl.Subset(nil)
	if _, err := NTClosenessOf(empty, nil, 5); err == nil {
		t.Error("empty table should fail")
	}
}

func TestNTClosenessOfTCloseOutput(t *testing.T) {
	// A partition that satisfies plain t-closeness satisfies
	// (n,t)-closeness at every neighborhood size at some level; the checker
	// must not exceed ~2x the global level on Algorithm 3 output (the
	// neighborhood distribution is itself close to global for spread
	// clusters).
	tbl := synth.CensusMCD()
	prep, err := tclose.Prepare(tbl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Algorithm3(tclose.Run{}, 5, 0.13)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := NTClosenessOf(tbl, res.Clusters, 200)
	if err != nil {
		t.Fatal(err)
	}
	if nt > 2*0.13 {
		t.Errorf("(200,t) level %v implausibly large for a t=0.13 release", nt)
	}
}
