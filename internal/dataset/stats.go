package dataset

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned by statistics over empty inputs.
var ErrNoData = errors.New("dataset: no data")

// Mean returns the arithmetic mean of vals, or 0 for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Variance returns the population variance of vals.
func Variance(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := Mean(vals)
	acc := 0.0
	for _, v := range vals {
		d := v - m
		acc += d * d
	}
	return acc / float64(len(vals))
}

// StdDev returns the population standard deviation of vals.
func StdDev(vals []float64) float64 { return math.Sqrt(Variance(vals)) }

// Median returns the median of vals (average of the two middle elements for
// even lengths). vals is not modified.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Pearson returns the Pearson product-moment correlation coefficient between
// x and y. It returns 0 when either side has zero variance and an error when
// lengths differ or are zero.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("dataset: correlation inputs have different lengths")
	}
	if len(x) == 0 {
		return 0, ErrNoData
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ColumnStats summarizes one table column.
type ColumnStats struct {
	Name   string
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	// Distinct is the number of distinct values in the column.
	Distinct int
}

// Stats returns summary statistics for column col.
func (t *Table) Stats(col int) ColumnStats {
	vals := t.cols[col][:t.rows]
	lo, hi := minMax(vals)
	return ColumnStats{
		Name:     t.schema.Attr(col).Name,
		Mean:     Mean(vals),
		StdDev:   StdDev(vals),
		Min:      lo,
		Max:      hi,
		Distinct: len(Distinct(vals)),
	}
}

// MinMax returns the smallest and largest value of column col (0, 0 for
// an empty table) in one pass, without the sort Stats pays for Distinct.
func (t *Table) MinMax(col int) (lo, hi float64) {
	return minMax(t.cols[col][:t.rows])
}

// Correlation returns the Pearson correlation between two columns of the
// table.
func (t *Table) Correlation(colA, colB int) (float64, error) {
	return Pearson(t.cols[colA][:t.rows], t.cols[colB][:t.rows])
}

// QIConfidentialCorrelation returns the mean absolute Pearson correlation
// between every (quasi-identifier, confidential) column pair. The paper uses
// a single figure of this kind to characterize the MCD (0.52), HCD (0.92)
// and Patient Discharge (0.129) data sets.
func (t *Table) QIConfidentialCorrelation() (float64, error) {
	qis := t.schema.QuasiIdentifiers()
	cas := t.schema.Confidentials()
	if len(qis) == 0 || len(cas) == 0 {
		return 0, errors.New("dataset: need at least one QI and one confidential attribute")
	}
	var sum float64
	var n int
	for _, q := range qis {
		for _, c := range cas {
			r, err := t.Correlation(q, c)
			if err != nil {
				return 0, err
			}
			sum += math.Abs(r)
			n++
		}
	}
	return sum / float64(n), nil
}

// MaxQIConfidentialCorrelation returns the largest absolute Pearson
// correlation over all (quasi-identifier, confidential) column pairs — the
// "correlation between both types of attributes" figure the paper quotes for
// its data sets, which in practice is driven by the dominant
// quasi-identifier.
func (t *Table) MaxQIConfidentialCorrelation() (float64, error) {
	qis := t.schema.QuasiIdentifiers()
	cas := t.schema.Confidentials()
	if len(qis) == 0 || len(cas) == 0 {
		return 0, errors.New("dataset: need at least one QI and one confidential attribute")
	}
	best := 0.0
	for _, q := range qis {
		for _, c := range cas {
			r, err := t.Correlation(q, c)
			if err != nil {
				return 0, err
			}
			if math.Abs(r) > best {
				best = math.Abs(r)
			}
		}
	}
	return best, nil
}
