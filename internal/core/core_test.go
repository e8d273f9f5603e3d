package core

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/privacy"
	"repro/internal/synth"
)

// runFresh runs spec on a fresh engine over tbl: one cold run including its
// substrate build, the reference every cached, appended, deleted, reopened
// or warm engine path is compared against.
func runFresh(tbl *dataset.Table, spec Spec) (*Result, error) {
	eng, err := NewEngine(tbl)
	if err != nil {
		return nil, err
	}
	return eng.Run(context.Background(), spec)
}

func TestAnonymizeAllAlgorithms(t *testing.T) {
	tbl := synth.Census(300, synth.FedTax, 5)
	for _, alg := range []Algorithm{Merge, KAnonymityFirst, TClosenessFirst, MondrianBaseline} {
		res, err := runFresh(tbl, Spec{Algorithm: alg, K: 4, T: 0.2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Anonymized == nil || res.Anonymized.Len() != tbl.Len() {
			t.Fatalf("%v: bad release", alg)
		}
		if err := micro.CheckPartition(res.Clusters, tbl.Len(), 4); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.MaxEMD > 0.2+1e-9 {
			t.Errorf("%v: MaxEMD %v exceeds t", alg, res.MaxEMD)
		}
		if res.Privacy == nil {
			t.Fatalf("%v: missing privacy report", alg)
		}
		if res.Privacy.KAnonymity < 4 {
			t.Errorf("%v: privacy report k = %d", alg, res.Privacy.KAnonymity)
		}
		if res.Privacy.TCloseness > 0.2+1e-9 {
			t.Errorf("%v: privacy report t = %v", alg, res.Privacy.TCloseness)
		}
		if res.SSE < 0 {
			t.Errorf("%v: negative SSE", alg)
		}
		if res.Sizes.Min < 4 {
			t.Errorf("%v: min cluster size %d", alg, res.Sizes.Min)
		}
		// Independent verification on the released table itself.
		ka, err := privacy.KAnonymity(res.Anonymized)
		if err != nil {
			t.Fatal(err)
		}
		if ka < 4 {
			t.Errorf("%v: released table k-anonymity %d", alg, ka)
		}
	}
}

func TestAnonymizeSkipAssessment(t *testing.T) {
	tbl := synth.Uniform(60, 2, 9)
	res, err := runFresh(tbl, Spec{Algorithm: TClosenessFirst, K: 3, T: 0.2, SkipAssessment: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Privacy != nil {
		t.Error("SkipAssessment should omit the privacy report")
	}
}

func TestAnonymizeErrors(t *testing.T) {
	tbl := synth.Uniform(20, 2, 3)
	if _, err := runFresh(nil, Spec{K: 2, T: 0.1}); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := runFresh(tbl, Spec{Algorithm: Algorithm(42), K: 2, T: 0.1}); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if _, err := runFresh(tbl, Spec{K: 0, T: 0.1}); err == nil {
		t.Error("bad k should propagate")
	}
	if _, err := runFresh(tbl, Spec{K: 2, T: 0}); err == nil {
		t.Error("bad t should propagate")
	}
}

func TestAnonymizeDoesNotModifyInput(t *testing.T) {
	tbl := synth.Census(100, synth.Fica, 3)
	before := make([]float64, tbl.Len())
	copy(before, tbl.ColumnView(0))
	if _, err := runFresh(tbl, Spec{Algorithm: Merge, K: 3, T: 0.2}); err != nil {
		t.Fatal(err)
	}
	after := tbl.ColumnView(0)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("a run modified its input table")
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{
		Merge:            "alg1-merge",
		KAnonymityFirst:  "alg2-kanon-first",
		TClosenessFirst:  "alg3-tclose-first",
		MondrianBaseline: "mondrian-t",
	}
	for alg, want := range cases {
		if got := alg.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(alg), got, want)
		}
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm should still stringify")
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"1": Merge, "alg1": Merge, "merge": Merge,
		"2": KAnonymityFirst, "kanon-first": KAnonymityFirst,
		"3": TClosenessFirst, "tclose-first": TClosenessFirst,
		"mondrian": MondrianBaseline, "baseline": MondrianBaseline,
	}
	for in, want := range cases {
		got, err := ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestAnonymizeElapsedPositive(t *testing.T) {
	tbl := synth.Uniform(50, 2, 21)
	res, err := runFresh(tbl, Spec{Algorithm: TClosenessFirst, K: 2, T: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed should be positive")
	}
	if res.EffectiveK < 2 {
		t.Errorf("EffectiveK = %d", res.EffectiveK)
	}
}

func TestAnonymizeNewBaselines(t *testing.T) {
	tbl := synth.Census(300, synth.FedTax, 17)
	for _, alg := range []Algorithm{SABREBaseline, IncognitoBaseline} {
		res, err := runFresh(tbl, Spec{Algorithm: alg, K: 3, T: 0.25})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := micro.CheckPartition(res.Clusters, tbl.Len(), 3); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.MaxEMD > 0.25+1e-9 {
			t.Errorf("%v: MaxEMD %v exceeds t", alg, res.MaxEMD)
		}
		if res.Privacy == nil || res.Privacy.KAnonymity < 3 {
			t.Errorf("%v: privacy report %+v", alg, res.Privacy)
		}
		ka, err := privacy.KAnonymity(res.Anonymized)
		if err != nil {
			t.Fatal(err)
		}
		if ka < 3 {
			t.Errorf("%v: released k-anonymity %d", alg, ka)
		}
	}
}

func TestParseAlgorithmNewBaselines(t *testing.T) {
	for name, want := range map[string]Algorithm{
		"sabre": SABREBaseline, "incognito": IncognitoBaseline, "incognito-t": IncognitoBaseline,
	} {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", name, got, err)
		}
	}
}
