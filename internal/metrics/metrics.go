// Package metrics implements the information-loss (utility) measures used
// in the paper's Section 8.3 evaluation, chiefly the normalized Sum of
// Squared Errors of Eq. (5), plus supporting within-cluster homogeneity
// measures used by the ablation benchmarks.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/micro"
)

// ErrShape is returned when original and anonymized tables disagree in size
// or schema.
var ErrShape = errors.New("metrics: original and anonymized tables have different shapes")

// NormalizedSSE computes the paper's Eq. (5):
//
//	SSE = (1/n) Σ_records (1/m) Σ_attrs NED(a, a')²
//
// where NED is the Normalized Euclidean Distance — the absolute difference
// between the original and anonymized value divided by the attribute's range
// in the original table — and the sum runs over the m quasi-identifier
// attributes (the ones microaggregation perturbs). The result is
// independent of the data set size and of the attribute scales; 0 means the
// release is identical to the original on the quasi-identifiers.
func NormalizedSSE(original, anonymized *dataset.Table) (float64, error) {
	if err := checkShapes(original, anonymized); err != nil {
		return 0, err
	}
	qis := original.Schema().QuasiIdentifiers()
	if len(qis) == 0 {
		return 0, errors.New("metrics: schema has no quasi-identifier attributes")
	}
	n := original.Len()
	if n == 0 {
		return 0, nil
	}
	ranges := make([]float64, len(qis))
	for j, c := range qis {
		lo, hi := original.MinMax(c)
		ranges[j] = hi - lo
	}
	total := 0.0
	for r := 0; r < n; r++ {
		rowErr := 0.0
		for j, c := range qis {
			if ranges[j] == 0 {
				continue // constant column: any perturbation is meaningless
			}
			ned := (original.Value(r, c) - anonymized.Value(r, c)) / ranges[j]
			rowErr += ned * ned
		}
		total += rowErr / float64(len(qis))
	}
	return total / float64(n), nil
}

// RawSSE computes the unnormalized sum of squared attribute errors over the
// quasi-identifiers, the classical microaggregation information-loss
// objective.
func RawSSE(original, anonymized *dataset.Table) (float64, error) {
	if err := checkShapes(original, anonymized); err != nil {
		return 0, err
	}
	qis := original.Schema().QuasiIdentifiers()
	total := 0.0
	for _, c := range qis {
		o, a := original.ColumnView(c), anonymized.ColumnView(c)
		for r := range o {
			d := o[r] - a[r]
			total += d * d
		}
	}
	return total, nil
}

// WithinClusterSSE computes the sum of squared distances from each record's
// normalized quasi-identifier vector to its cluster centroid — the quantity
// a microaggregation partition minimizes. It equals RawSSE of the
// min-max-normalized table after mean aggregation.
func WithinClusterSSE(t *dataset.Table, clusters []micro.Cluster) float64 {
	points := t.QIMatrix()
	total := 0.0
	for _, c := range clusters {
		cen := micro.Centroid(points, c.Rows)
		for _, r := range c.Rows {
			total += micro.Dist2(points[r], cen)
		}
	}
	return total
}

// SSTotal computes the total sum of squares of the normalized
// quasi-identifier matrix around its global centroid. The classical
// information-loss ratio is WithinClusterSSE / SSTotal.
func SSTotal(t *dataset.Table) float64 {
	points := t.QIMatrix()
	if len(points) == 0 {
		return 0
	}
	cen := micro.CentroidAll(points)
	total := 0.0
	for _, p := range points {
		total += micro.Dist2(p, cen)
	}
	return total
}

// ILRatio returns the classical SSE/SST information-loss ratio in [0,1] for
// a partition: 0 when every cluster is a single point, approaching 1 when
// all structure is lost.
func ILRatio(t *dataset.Table, clusters []micro.Cluster) float64 {
	sst := SSTotal(t)
	if sst == 0 {
		return 0
	}
	return WithinClusterSSE(t, clusters) / sst
}

func checkShapes(a, b *dataset.Table) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%w: %d vs %d records", ErrShape, a.Len(), b.Len())
	}
	if !a.Schema().Equal(b.Schema()) {
		return fmt.Errorf("%w: schemas differ", ErrShape)
	}
	return nil
}

// MeanAbsoluteError returns the mean |a-a'| over the quasi-identifiers, a
// scale-dependent complement to NormalizedSSE used in reports.
func MeanAbsoluteError(original, anonymized *dataset.Table) (float64, error) {
	if err := checkShapes(original, anonymized); err != nil {
		return 0, err
	}
	qis := original.Schema().QuasiIdentifiers()
	if len(qis) == 0 || original.Len() == 0 {
		return 0, nil
	}
	total := 0.0
	for _, c := range qis {
		o, a := original.ColumnView(c), anonymized.ColumnView(c)
		for r := range o {
			total += math.Abs(o[r] - a[r])
		}
	}
	return total / float64(len(qis)*original.Len()), nil
}

// CorrelationDistortion measures how well a release preserves the
// statistical relationship between quasi-identifiers and confidential
// attributes: the mean absolute difference between the original and released
// Pearson correlation over every (QI, confidential) pair. 0 means analyses
// of the QI↔confidential relationship on the release reach the original
// conclusions; values near the original correlation magnitude mean the
// relationship was destroyed (as the Anatomy-style permutation release does
// by design).
func CorrelationDistortion(original, anonymized *dataset.Table) (float64, error) {
	if err := checkShapes(original, anonymized); err != nil {
		return 0, err
	}
	qis := original.Schema().QuasiIdentifiers()
	confs := original.Schema().Confidentials()
	if len(qis) == 0 || len(confs) == 0 {
		return 0, errors.New("metrics: need quasi-identifier and confidential attributes")
	}
	var total float64
	var pairs int
	for _, q := range qis {
		for _, c := range confs {
			ro, err := original.Correlation(q, c)
			if err != nil {
				return 0, err
			}
			ra, err := anonymized.Correlation(q, c)
			if err != nil {
				return 0, err
			}
			total += math.Abs(ro - ra)
			pairs++
		}
	}
	return total / float64(pairs), nil
}
