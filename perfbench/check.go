package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/privacy"
)

// expect is what one release must satisfy.
type expect struct {
	alg  core.Algorithm
	k    int
	t    float64
	warm bool // the run was repaired from a warm seed (Result.Warm != nil)
	effK int  // Result.EffectiveK
	rows int  // records in the epoch the release was made from
}

// tSlack absorbs float rounding between the engine's incremental EMD and
// the assessment's batch recomputation.
const tSlack = 1e-9

// checkRelease verifies a published table independently of the code that
// produced it: it has one row per record of its epoch, every equivalence
// class (records sharing all quasi-identifier values) has at least k
// members, and every class's confidential distribution is within t of the
// table's. Classes of two clusters with identical centroids are checked as
// one; that only grows the class and, EMD being convex, cannot raise its
// distance above the larger of the two.
//
// Cold Algorithm 3 runs carry the documented caveat of tclose/alg3.go: when
// the effective cluster size k' does not divide n, a class with an extra
// record may exceed t, but never emd.MaxSpreadClusterEMDUneven(n, k'). Warm
// runs end with the merge-until-t pass and get no such allowance.
func checkRelease(pub *dataset.Table, e expect) error {
	if pub == nil {
		return fmt.Errorf("no release")
	}
	if pub.Len() != e.rows {
		return fmt.Errorf("release has %d rows, epoch has %d", pub.Len(), e.rows)
	}
	rep, err := privacy.Assess(pub)
	if err != nil {
		return fmt.Errorf("assessing release: %w", err)
	}
	if rep.KAnonymity < e.k {
		return fmt.Errorf("%v k=%d: smallest class has %d records", e.alg, e.k, rep.KAnonymity)
	}
	limit := e.t
	if e.alg == core.TClosenessFirst && !e.warm && e.effK > 0 && e.rows%e.effK != 0 {
		limit = math.Max(limit, emd.MaxSpreadClusterEMDUneven(e.rows, e.effK))
	}
	if rep.TCloseness > limit+tSlack {
		return fmt.Errorf("%v t=%v: class at EMD %.6f exceeds %.6f", e.alg, e.t, rep.TCloseness, limit)
	}
	return nil
}

// checkResult checks an engine result's release against the epoch it ran on.
func checkResult(res *core.Result, spec core.Spec, rows int) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	return checkRelease(res.Anonymized, expect{
		alg: spec.Algorithm, k: spec.K, t: spec.T,
		warm: res.Warm != nil, effK: res.EffectiveK, rows: rows,
	})
}
