package repro_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro"
)

// runFresh runs spec on a fresh engine over tbl: one cold run including its
// substrate build, as a caller that anonymizes a table once would do it.
func runFresh(tbl *repro.Table, spec repro.Spec) (*repro.Result, error) {
	eng, err := repro.New(tbl)
	if err != nil {
		return nil, err
	}
	return eng.Run(context.Background(), spec)
}

func TestFacadeEndToEnd(t *testing.T) {
	schema, err := repro.NewSchema(
		repro.Attribute{Name: "age", Role: repro.QuasiIdentifier, Kind: repro.Numeric},
		repro.Attribute{Name: "zip", Role: repro.QuasiIdentifier, Kind: repro.Numeric},
		repro.Attribute{Name: "salary", Role: repro.Confidential, Kind: repro.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := repro.NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := tbl.AppendNumericRow(float64(20+i), float64(43000+i%5), float64(1000*i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runFresh(tbl, repro.Spec{
		Algorithm: repro.TClosenessFirst, K: 3, T: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxEMD > 0.25+1e-9 {
		t.Errorf("MaxEMD = %v", res.MaxEMD)
	}
	k, err := repro.KAnonymity(res.Anonymized)
	if err != nil {
		t.Fatal(err)
	}
	if k < 3 {
		t.Errorf("k-anonymity = %d", k)
	}
	tc, err := repro.TCloseness(res.Anonymized)
	if err != nil {
		t.Fatal(err)
	}
	if tc > 0.25+1e-9 {
		t.Errorf("t-closeness = %v", tc)
	}
	rep, err := repro.Assess(res.Anonymized)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KAnonymity != k {
		t.Errorf("Assess k = %d, KAnonymity = %d", rep.KAnonymity, k)
	}
	sse, err := repro.NormalizedSSE(tbl, res.Anonymized)
	if err != nil {
		t.Fatal(err)
	}
	if sse != res.SSE {
		t.Errorf("facade SSE %v != result SSE %v", sse, res.SSE)
	}
}

func TestFacadeCSVRoundTrip(t *testing.T) {
	tbl := repro.CensusMCD()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := repro.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Errorf("round trip lost records: %d vs %d", back.Len(), tbl.Len())
	}
}

func TestFacadeParseAlgorithm(t *testing.T) {
	alg, err := repro.ParseAlgorithm("tclose-first")
	if err != nil || alg != repro.TClosenessFirst {
		t.Errorf("ParseAlgorithm = %v, %v", alg, err)
	}
}

func TestFacadeSyntheticConstructors(t *testing.T) {
	if repro.CensusMCD().Len() != 1080 {
		t.Error("CensusMCD size")
	}
	if repro.CensusHCD().Len() != 1080 {
		t.Error("CensusHCD size")
	}
	if repro.PatientDischarge(123, 1).Len() != 123 {
		t.Error("PatientDischarge size")
	}
}

func TestFacadeReadCSVError(t *testing.T) {
	if _, err := repro.ReadCSV(strings.NewReader("garbage")); err == nil {
		t.Error("garbage CSV should fail")
	}
}

func TestFacadeNewBaselinesAndRisk(t *testing.T) {
	tbl := repro.CensusMCD()
	res, err := runFresh(tbl, repro.Spec{
		Algorithm: repro.SABREBaseline, K: 2, T: 0.13, SkipAssessment: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rate, err := repro.LinkageRisk(tbl, res.Anonymized)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0 || rate > 0.5 {
		t.Errorf("linkage risk = %v, expected within (0, 1/k]", rate)
	}
	if alg, err := repro.ParseAlgorithm("incognito"); err != nil || alg != repro.IncognitoBaseline {
		t.Errorf("ParseAlgorithm(incognito) = %v, %v", alg, err)
	}
}

func TestFacadeAnatomyAndNTCloseness(t *testing.T) {
	tbl := repro.CensusMCD()
	res, err := runFresh(tbl, repro.Spec{
		Algorithm: repro.TClosenessFirst, K: 5, T: 0.15, SkipAssessment: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	anat, err := repro.AnatomyRelease(tbl, res.Clusters, 3)
	if err != nil {
		t.Fatal(err)
	}
	// QIs unchanged in the anatomy release.
	if anat.Value(0, 0) != tbl.Value(0, 0) {
		t.Error("anatomy release changed a quasi-identifier")
	}
	nt, err := repro.NTCloseness(tbl, res.Clusters, 200)
	if err != nil {
		t.Fatal(err)
	}
	if nt < 0 || nt > 1 {
		t.Errorf("NTCloseness = %v out of range", nt)
	}
}

func TestFacadeCorrelationDistortion(t *testing.T) {
	tbl := repro.CensusHCD()
	res, err := runFresh(tbl, repro.Spec{
		Algorithm: repro.TClosenessFirst, K: 5, T: 0.13, SkipAssessment: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The centroid release of conf-spread clusters distorts the strong
	// QI↔FICA correlation noticeably; the identity release not at all.
	d0, err := repro.CorrelationDistortion(tbl, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if d0 != 0 {
		t.Errorf("identity distortion = %v", d0)
	}
	d, err := repro.CorrelationDistortion(tbl, res.Anonymized)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("release distortion = %v, want > 0", d)
	}
}
