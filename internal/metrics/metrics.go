// Package metrics implements the information-loss (utility) measures used
// in the paper's Section 8.3 evaluation: the normalized Sum of Squared
// Errors of Eq. (5), plus the QI↔confidential correlation distortion of a
// release.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
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

func checkShapes(a, b *dataset.Table) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%w: %d vs %d records", ErrShape, a.Len(), b.Len())
	}
	if !a.Schema().Equal(b.Schema()) {
		return fmt.Errorf("%w: schemas differ", ErrShape)
	}
	return nil
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
