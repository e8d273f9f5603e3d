// Package core orchestrates the full anonymization pipeline of the paper:
// given a microdata table whose schema marks quasi-identifier and
// confidential attributes, it runs one of the three
// microaggregation-for-t-closeness algorithms (or a generalization
// baseline), performs the aggregation step, and assembles the privacy and
// utility diagnostics the evaluation section reports.
//
// The one entry point is the Engine: NewEngine prepares the reusable
// per-table substrate once, Engine.Run executes any algorithm against it
// under a context, and Engine.Append ingests new records in epochs.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/generalization"
	"repro/internal/micro"
	"repro/internal/privacy"
	"repro/internal/sabre"
	"repro/internal/tclose"
)

// Algorithm selects the anonymization method.
type Algorithm int

const (
	// Merge is the paper's Algorithm 1: standard microaggregation followed
	// by cluster merging until t-closeness holds.
	Merge Algorithm = iota
	// KAnonymityFirst is the paper's Algorithm 2: t-closeness-aware cluster
	// refinement by record swaps, finished with the merge step.
	KAnonymityFirst
	// TClosenessFirst is the paper's Algorithm 3: t-closeness by
	// construction via rank subsets; the best performer in the evaluation.
	TClosenessFirst
	// MondrianBaseline is the generalization/recoding baseline: Mondrian
	// median-cut partitioning with the t-closeness split constraint.
	MondrianBaseline
	// SABREBaseline is the bucketization-and-redistribution baseline of
	// Cao et al. (VLDB J 2011), the closest related work in Section 3.
	SABREBaseline
	// IncognitoBaseline is the full-domain generalization baseline: an
	// Incognito-style lattice search with the t-closeness constraint, the
	// classical approach of Li et al. (ICDE 2007).
	IncognitoBaseline
)

// String returns the name used in reports and benchmark output.
func (a Algorithm) String() string {
	switch a {
	case Merge:
		return "alg1-merge"
	case KAnonymityFirst:
		return "alg2-kanon-first"
	case TClosenessFirst:
		return "alg3-tclose-first"
	case MondrianBaseline:
		return "mondrian-t"
	case SABREBaseline:
		return "sabre"
	case IncognitoBaseline:
		return "incognito-t"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// MarshalText encodes the algorithm as its canonical report name (the
// String form, which ParseAlgorithm round-trips), implementing
// encoding.TextMarshaler so Algorithm fields serialize as readable names in
// JSON documents like the benchmark evidence files.
func (a Algorithm) MarshalText() ([]byte, error) {
	switch a {
	case Merge, KAnonymityFirst, TClosenessFirst, MondrianBaseline, SABREBaseline, IncognitoBaseline:
		return []byte(a.String()), nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %v", int(a))
}

// UnmarshalText decodes any name ParseAlgorithm accepts, implementing
// encoding.TextUnmarshaler.
func (a *Algorithm) UnmarshalText(text []byte) error {
	alg, err := ParseAlgorithm(string(text))
	if err != nil {
		return err
	}
	*a = alg
	return nil
}

// ParseAlgorithm resolves a command-line name ("1", "alg1", "merge", ...)
// into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "1", "alg1", "merge", "alg1-merge":
		return Merge, nil
	case "2", "alg2", "kanon-first", "alg2-kanon-first":
		return KAnonymityFirst, nil
	case "3", "alg3", "tclose-first", "alg3-tclose-first":
		return TClosenessFirst, nil
	case "mondrian", "mondrian-t", "baseline":
		return MondrianBaseline, nil
	case "sabre":
		return SABREBaseline, nil
	case "incognito", "incognito-t":
		return IncognitoBaseline, nil
	default:
		return 0, fmt.Errorf("core: unknown algorithm %q", s)
	}
}

// Spec parameterizes one Engine.Run: which algorithm and at which privacy
// level.
type Spec struct {
	// Algorithm selects the anonymization method. The zero value is Merge
	// (Algorithm 1).
	Algorithm Algorithm
	// K is the k-anonymity parameter (minimum equivalence class size).
	K int
	// T is the t-closeness parameter (maximum EMD between any equivalence
	// class's confidential distribution and the global one).
	T float64
	// SkipAssessment suppresses the independent privacy re-verification of
	// the output, which costs an extra O(n + classes·bins) pass; benchmarks
	// of the algorithms themselves set it.
	SkipAssessment bool
	// Sharded requests sharded partition construction for Merge and
	// KAnonymityFirst: the record space is split into disjoint k-d shards
	// (one per engine worker, subject to a per-shard size floor), the
	// cluster loop runs concurrently inside each shard, and a
	// reconciliation pass repairs k/t violations along shard boundaries.
	// k-anonymity and t-closeness hold exactly in the output, but the
	// partition is NOT bit-identical to the serial one — cluster shapes
	// near shard boundaries depend on the worker budget — which is why the
	// mode is an explicit opt-in rather than a transparent optimization.
	// With one worker (or a table too small to shard) the run delegates to
	// the serial algorithm and IS bit-identical. Unsupported algorithms are
	// rejected by ValidateSpec with ErrShardedUnsupported; sharded runs
	// ignore Warm (they neither read nor seed the warm partition cache,
	// whose entries are keyed by worker-independent serial results).
	Sharded bool
	// Warm requests warm-start re-anonymization for the paper's three
	// algorithms: the run is seeded from the engine's cached partition of an
	// earlier epoch (appended rows assigned to their nearest clusters,
	// deletion damage repaired locally, t restored by the finishing merge),
	// so re-run cost after a small append/delete is proportional to the
	// delta rather than the table. A warm run that finds no usable seed —
	// the first run at a (Algorithm, K, T) point — falls back to a cold
	// run and caches its partition as the seed for the next one;
	// Result.Warm reports which happened. Privacy guarantees are
	// identical either way (k-anonymity at the effective k and MaxEMD <= T);
	// only the partition, and with it utility, may differ from a cold run,
	// within the bounds pinned by the warm utility tests. Ignored by the
	// baselines, which always run cold.
	Warm bool
}

// Result is the outcome of a full anonymization run.
type Result struct {
	// Anonymized is the released table: quasi-identifiers aggregated per
	// cluster, identifiers blanked, everything else untouched.
	Anonymized *dataset.Table
	// Clusters is the partition behind the release.
	Clusters []micro.Cluster
	// MaxEMD is the worst cluster-to-dataset EMD (the achieved t).
	MaxEMD float64
	// Sizes summarizes cluster cardinalities (Tables 1-3 of the paper).
	Sizes micro.SizeStats
	// SSE is the normalized sum of squared errors of Eq. (5) (Figures 6-7).
	SSE float64
	// Merges and Swaps count the work done by Algorithms 1 and 2.
	Merges, Swaps int
	// EffectiveK is the enforced minimum cluster size (Algorithm 3 raises
	// it per Eq. 3-4).
	EffectiveK int
	// Warm describes the warm-start repair when the run was seeded from a
	// cached earlier-epoch partition; nil for cold runs (including warm
	// requests that found no usable seed and fell back).
	Warm *WarmStats
	// Privacy is an independent re-verification of the release (nil when
	// Spec.SkipAssessment is set).
	Privacy *privacy.Report
	// Elapsed is the wall-clock anonymization time (partition +
	// aggregation, excluding substrate preparation and assessment).
	Elapsed time.Duration
	// Epoch is the table epoch the run released: the engine's Epoch when
	// the run took its snapshot, whatever Append or Delete did since.
	Epoch int
}

// ErrUnknownAlgorithm rejects Spec.Algorithm values outside the six
// implemented methods. It is returned before any substrate work, so a
// malformed request (a service submission, a corrupted config) stays as
// cheap to reject as a parse error.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// ErrShardedUnsupported rejects Spec.Sharded combined with an algorithm
// that has no sharded construction path; see Spec.Sharded. Like the other
// domain sentinels it is returned before any substrate work.
var ErrShardedUnsupported = errors.New("core: sharded mode unsupported for this spec")

// ValidateSpec checks a Spec's parameters against its algorithm's domain
// without running anything, returning the same typed sentinel error the
// run itself would: tclose.ErrBadK/ErrBadT for the paper's algorithms,
// generalization.ErrBadK for the recoding baselines, sabre.ErrBadK/ErrBadT
// for SABRE, and ErrUnknownAlgorithm for an Algorithm value outside the
// implemented set. Engine.Run calls it before touching the substrate;
// services should call it at admission time so an invalid submission is
// rejected with a 4xx instead of becoming a failed job.
//
// The domains deliberately mirror each algorithm's own checks — Mondrian
// and Incognito accept any t (values above the EMD ceiling are simply
// unconstrained), so only k is validated for them.
func ValidateSpec(spec Spec) error {
	switch spec.Algorithm {
	case Merge, KAnonymityFirst, TClosenessFirst:
		if spec.K < 1 {
			return tclose.ErrBadK
		}
		if spec.T <= 0 || spec.T > 1 {
			return fmt.Errorf("%w: got %v", tclose.ErrBadT, spec.T)
		}
	case MondrianBaseline, IncognitoBaseline:
		if spec.K < 1 {
			return generalization.ErrBadK
		}
	case SABREBaseline:
		if spec.K < 1 {
			return sabre.ErrBadK
		}
		if spec.T <= 0 || spec.T > 1 {
			return fmt.Errorf("%w, got %v", sabre.ErrBadT, spec.T)
		}
	default:
		return fmt.Errorf("%w %v", ErrUnknownAlgorithm, int(spec.Algorithm))
	}
	if spec.Sharded && spec.Algorithm != Merge && spec.Algorithm != KAnonymityFirst {
		return fmt.Errorf("%w: algorithm %v", ErrShardedUnsupported, spec.Algorithm)
	}
	return nil
}

// assess re-verifies the partition directly (rather than via the aggregated
// table) so that identical centroids of two different clusters cannot mask a
// too-small class.
func assess(t *dataset.Table, clusters []micro.Cluster) (*privacy.Report, error) {
	tc, err := privacy.TClosenessOf(t, clusters)
	if err != nil {
		return nil, err
	}
	ld, err := privacy.LDiversityOf(t, clusters)
	if err != nil {
		return nil, err
	}
	return &privacy.Report{
		Classes:    len(clusters),
		KAnonymity: micro.Sizes(clusters).Min,
		TCloseness: tc,
		LDiversity: ld,
	}, nil
}
