package sabre

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/emd"
	"repro/internal/micro"
	"repro/internal/synth"
)

func TestAnonymizeValidation(t *testing.T) {
	tbl := synth.Uniform(30, 2, 1)
	if _, err := AnonymizeCtx(context.Background(), nil, 2, 0.1, nil); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := AnonymizeCtx(context.Background(), tbl, 0, 0.1, nil); err == nil {
		t.Error("k = 0 should fail")
	}
	if _, err := AnonymizeCtx(context.Background(), tbl, 2, 0, nil); err == nil {
		t.Error("t = 0 should fail")
	}
	if _, err := AnonymizeCtx(context.Background(), tbl, 2, 2, nil); err == nil {
		t.Error("t > 1 should fail")
	}
}

func TestAnonymizePartitionValid(t *testing.T) {
	for _, n := range []int{20, 100, 333} {
		tbl := synth.Uniform(n, 2, int64(n))
		for _, tl := range []float64{0.05, 0.15, 0.3} {
			res, err := AnonymizeCtx(context.Background(), tbl, 3, tl, nil)
			if err != nil {
				t.Fatalf("n=%d t=%v: %v", n, tl, err)
			}
			if err := micro.CheckPartition(res.Clusters, n, 3); err != nil {
				t.Fatalf("n=%d t=%v: %v", n, tl, err)
			}
		}
	}
}

func TestAnonymizeMeetsTOnEvaluationData(t *testing.T) {
	// The bucketization bound is conservative, so the achieved EMD should
	// meet the requested t on the evaluation data sets.
	for _, tl := range []float64{0.09, 0.13, 0.21} {
		res, err := AnonymizeCtx(context.Background(), synth.CensusMCD(), 5, tl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxEMD > tl+1e-9 {
			t.Errorf("MCD t=%v: achieved EMD %v", tl, res.MaxEMD)
		}
		res, err = AnonymizeCtx(context.Background(), synth.CensusHCD(), 5, tl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxEMD > tl+1e-9 {
			t.Errorf("HCD t=%v: achieved EMD %v", tl, res.MaxEMD)
		}
	}
}

func TestGreedyBucketsVsAnalyticMinimum(t *testing.T) {
	// The paper's Section 3 claim: SABRE's greedy bucketization can demand
	// larger equivalence classes than the analytic minimum of Algorithm 3.
	// Verify the direction: SABRE's EC size is never smaller than the
	// Eq. (3) requirement on the same data.
	tbl := synth.CensusMCD()
	n := tbl.Len()
	for _, tl := range []float64{0.05, 0.09, 0.13, 0.21} {
		res, err := AnonymizeCtx(context.Background(), tbl, 2, tl, nil)
		if err != nil {
			t.Fatal(err)
		}
		analytic, err := emd.RequiredClusterSize(n, 2, tl)
		if err != nil {
			t.Fatal(err)
		}
		if res.ECSize < analytic {
			t.Errorf("t=%v: SABRE EC size %d below analytic minimum %d",
				tl, res.ECSize, analytic)
		}
	}
}

func TestBucketizeProperties(t *testing.T) {
	f := func(nRaw, kRaw uint8, tRaw uint16) bool {
		n := 10 + int(nRaw)%500
		k := 1 + int(kRaw)%8
		tl := 0.02 + float64(tRaw%300)/1000.0
		buckets := bucketize(n, k, tl)
		if len(buckets) == 0 {
			return false
		}
		// Buckets tile [0, n) contiguously.
		pos := 0
		for _, b := range buckets {
			if b.lo != pos || b.hi <= b.lo {
				return false
			}
			pos = b.hi
		}
		if pos != n {
			return false
		}
		// The configuration respects the conservative bound.
		m := ecSize(n, k, buckets)
		return len(buckets) == 1 || worstECBound(n, m, buckets) <= tl+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStricterTMeansMoreBuckets(t *testing.T) {
	// A stricter t needs finer within-bucket spread, so the greedy phase
	// must split at least as much.
	prev := -1
	for _, tl := range []float64{0.25, 0.17, 0.09, 0.05, 0.01} {
		buckets := bucketize(1080, 2, tl)
		if prev >= 0 && len(buckets) < prev {
			t.Errorf("t=%v: fewer buckets (%d) than at looser t (%d)",
				tl, len(buckets), prev)
		}
		prev = len(buckets)
	}
}

func TestECSize(t *testing.T) {
	// Four equal buckets of 25 over n=100: smallest 25 -> m = 4 (or k).
	buckets := []bucket{{0, 25}, {25, 50}, {50, 75}, {75, 100}}
	if got := ecSize(100, 2, buckets); got != 4 {
		t.Errorf("ecSize = %d, want 4", got)
	}
	if got := ecSize(100, 10, buckets); got != 10 {
		t.Errorf("ecSize with k=10 = %d, want 10", got)
	}
	// Uneven buckets: smallest 10 -> m = 10.
	uneven := []bucket{{0, 10}, {10, 100}}
	if got := ecSize(100, 2, uneven); got != 10 {
		t.Errorf("uneven ecSize = %d, want 10", got)
	}
}
