package generalization

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/privacy"
	"repro/internal/synth"
)

func TestIncognitoTValidation(t *testing.T) {
	tbl := synth.Uniform(20, 2, 1)
	if _, err := IncognitoTPrepared(context.Background(), nil, 2, 0.1, 0, nil); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := IncognitoTPrepared(context.Background(), tbl, 0, 0.1, 0, nil); err == nil {
		t.Error("k = 0 should fail")
	}
	if _, err := IncognitoTPrepared(context.Background(), tbl, 2, 0, 0, nil); err == nil {
		t.Error("t = 0 should fail")
	}
	if _, err := IncognitoTPrepared(context.Background(), tbl, 2, 1.5, 0, nil); err == nil {
		t.Error("t > 1 should fail")
	}
}

func TestIncognitoTGuarantees(t *testing.T) {
	tbl := synth.Census(300, synth.FedTax, 7)
	for _, cfg := range []struct {
		k  int
		tl float64
	}{{2, 0.3}, {5, 0.2}, {10, 0.15}} {
		res, err := IncognitoTPrepared(context.Background(), tbl, cfg.k, cfg.tl, 6, nil)
		if err != nil {
			t.Fatalf("k=%d t=%v: %v", cfg.k, cfg.tl, err)
		}
		if err := micro.CheckPartition(res.Clusters, tbl.Len(), cfg.k); err != nil {
			t.Fatalf("k=%d t=%v: %v", cfg.k, cfg.tl, err)
		}
		if res.MaxEMD > cfg.tl+1e-9 {
			t.Errorf("k=%d t=%v: MaxEMD %v", cfg.k, cfg.tl, res.MaxEMD)
		}
		tc, err := privacy.TClosenessOf(tbl, res.Clusters)
		if err != nil {
			t.Fatal(err)
		}
		if tc > cfg.tl+1e-9 {
			t.Errorf("independent t-closeness check: %v", tc)
		}
		if res.NodesChecked < 1 {
			t.Error("NodesChecked not reported")
		}
	}
}

func TestIncognitoTFindsBottomWhenTrivial(t *testing.T) {
	// With k=1 and a loose t, the exact data (levels all zero) satisfies
	// and must be selected: zero information loss dominates.
	tbl := synth.Uniform(50, 2, 9)
	res, err := IncognitoTPrepared(context.Background(), tbl, 1, 1.0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Levels {
		if l != 0 {
			t.Errorf("level[%d] = %d, want 0", i, l)
		}
	}
}

func TestIncognitoTStricterTNeedsCoarserNode(t *testing.T) {
	tbl := synth.Census(300, synth.Fica, 3)
	loose, err := IncognitoTPrepared(context.Background(), tbl, 2, 0.3, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := IncognitoTPrepared(context.Background(), tbl, 2, 0.1, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(ls []int) int {
		s := 0
		for _, l := range ls {
			s += l
		}
		return s
	}
	if sum(strict.Levels) < sum(loose.Levels) {
		t.Errorf("stricter t chose a finer node: %v vs %v", strict.Levels, loose.Levels)
	}
}

func TestIncognitoTKLargerThanN(t *testing.T) {
	tbl := synth.Uniform(6, 2, 5)
	res, err := IncognitoTPrepared(context.Background(), tbl, 50, 0.5, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Errorf("k > n should force a single class, got %d", len(res.Clusters))
	}
}

func TestIncognitoTRejectsCategoricalQI(t *testing.T) {
	catTbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "city", Role: dataset.QuasiIdentifier, Kind: dataset.Categorical},
		dataset.Attribute{Name: "salary", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	for _, city := range []string{"a", "b", "c", "d"} {
		if err := catTbl.AppendRow(city, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := IncognitoTPrepared(context.Background(), catTbl, 2, 0.3, 4, nil); err == nil {
		t.Error("categorical quasi-identifier should be rejected")
	}
}

func TestRecodeMatchesSearchRelease(t *testing.T) {
	tbl := synth.Census(200, synth.FedTax, 11)
	res, err := IncognitoTPrepared(context.Background(), tbl, 3, 0.25, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := Recode(tbl, res.Levels, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The recoded release must be k-anonymous at the found node.
	ka, err := privacy.KAnonymity(anon)
	if err != nil {
		t.Fatal(err)
	}
	if ka < 3 {
		t.Errorf("recoded release k-anonymity = %d", ka)
	}
}

func TestRecodeValidation(t *testing.T) {
	tbl := synth.Uniform(10, 2, 3)
	if _, err := Recode(tbl, []int{1}, 4); err == nil {
		t.Error("wrong level count should fail")
	}
	if _, err := Recode(tbl, []int{99, 0}, 4); err == nil {
		t.Error("out-of-range level should fail")
	}
}
