// Package privacy implements verifiers for the syntactic privacy models
// discussed in the paper: k-anonymity, t-closeness (and its relaxed
// (n,t)-closeness) and l-diversity. The verifiers operate on an anonymized
// table (or on an explicit cluster partition of the original table) and
// are used by the test suite to check, independently of the anonymization
// algorithms, that their outputs deliver the promised guarantees.
package privacy

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/micro"
)

// ErrNoRecords is returned when a verifier is given an empty table.
var ErrNoRecords = errors.New("privacy: table has no records")

// EquivalenceClasses groups the records of t by their full quasi-identifier
// value combination and returns the groups as clusters, in the order each
// combination first occurs. In an anonymized table these are the
// equivalence classes of Definition 1. Values compare by their IEEE bits
// with every NaN made one value: -0 and +0 fall in different classes, and
// NaNs of any payload in the same one.
func EquivalenceClasses(t *dataset.Table) ([]micro.Cluster, error) {
	if t.Len() == 0 {
		return nil, ErrNoRecords
	}
	qis := t.Schema().QuasiIdentifiers()
	if len(qis) == 0 {
		return nil, errors.New("privacy: schema has no quasi-identifiers")
	}
	cols := make([][]float64, len(qis))
	for j, c := range qis {
		cols[j] = t.ColumnView(c)
	}
	classOf := make(map[string]int)
	var out []micro.Cluster
	key := make([]byte, 0, 8*len(qis))
	for r := 0; r < t.Len(); r++ {
		key = key[:0]
		for _, col := range cols {
			key = appendValueKey(key, col[r])
		}
		i, seen := classOf[string(key)]
		if !seen {
			i = len(out)
			classOf[string(key)] = i
			out = append(out, micro.Cluster{})
		}
		out[i].Rows = append(out[i].Rows, r)
	}
	return out, nil
}

// appendValueKey appends the 8-byte grouping key of v: its IEEE bits, with
// every NaN mapped to one canonical NaN.
func appendValueKey(b []byte, v float64) []byte {
	if math.IsNaN(v) {
		v = math.NaN()
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// KAnonymity returns the k-anonymity level of the table: the size of its
// smallest equivalence class. A table satisfies k-anonymity for any k up to
// this value.
func KAnonymity(t *dataset.Table) (int, error) {
	classes, err := EquivalenceClasses(t)
	if err != nil {
		return 0, err
	}
	return micro.Sizes(classes).Min, nil
}

// TCloseness returns the t-closeness level of the table: the maximum, over
// all equivalence classes and all confidential attributes, of the Earth
// Mover's Distance (ordered distance) between the class distribution and the
// whole-table distribution. The table satisfies t-closeness for any t at or
// above this value.
func TCloseness(t *dataset.Table) (float64, error) {
	classes, err := EquivalenceClasses(t)
	if err != nil {
		return 0, err
	}
	return TClosenessOf(t, classes)
}

// TClosenessOf returns the t-closeness level of an explicit partition of the
// table's records. It allows checking a partition before aggregation.
func TClosenessOf(t *dataset.Table, classes []micro.Cluster) (float64, error) {
	confs := t.Schema().Confidentials()
	if len(confs) == 0 {
		return 0, errors.New("privacy: schema has no confidential attributes")
	}
	worst := 0.0
	for _, col := range confs {
		// Ordered-distance EMD for numeric attributes, total-variation EMD
		// for nominal categorical ones, mirroring package tclose.
		var space *emd.Space
		var err error
		if t.Schema().Attr(col).Kind == dataset.Categorical {
			space, err = emd.NewNominalSpace(t.ColumnView(col))
		} else {
			space, err = emd.NewSpace(t.ColumnView(col))
		}
		if err != nil {
			return 0, err
		}
		for _, c := range classes {
			if d := space.EMDOf(c.Rows); d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// LDiversity returns the distinct l-diversity level of the table: the
// minimum, over equivalence classes and confidential attributes, of the
// number of distinct confidential values in the class.
func LDiversity(t *dataset.Table) (int, error) {
	classes, err := EquivalenceClasses(t)
	if err != nil {
		return 0, err
	}
	return LDiversityOf(t, classes)
}

// LDiversityOf returns the distinct l-diversity level of an explicit
// partition.
func LDiversityOf(t *dataset.Table, classes []micro.Cluster) (int, error) {
	confs := t.Schema().Confidentials()
	if len(confs) == 0 {
		return 0, errors.New("privacy: schema has no confidential attributes")
	}
	best := -1
	for _, col := range confs {
		vals := t.ColumnView(col)
		for _, c := range classes {
			distinct := make(map[float64]struct{}, len(c.Rows))
			for _, r := range c.Rows {
				distinct[vals[r]] = struct{}{}
			}
			if best < 0 || len(distinct) < best {
				best = len(distinct)
			}
		}
	}
	if best < 0 {
		return 0, ErrNoRecords
	}
	return best, nil
}

// Report is a one-stop summary of the privacy level of an anonymized table.
type Report struct {
	// Classes is the number of equivalence classes.
	Classes int
	// KAnonymity is the size of the smallest equivalence class.
	KAnonymity int
	// TCloseness is the worst-class EMD to the global distribution.
	TCloseness float64
	// LDiversity is the smallest number of distinct confidential values in
	// any class.
	LDiversity int
}

// Assess computes a Report for the table.
func Assess(t *dataset.Table) (*Report, error) {
	classes, err := EquivalenceClasses(t)
	if err != nil {
		return nil, err
	}
	tc, err := TClosenessOf(t, classes)
	if err != nil {
		return nil, err
	}
	ld, err := LDiversityOf(t, classes)
	if err != nil {
		return nil, err
	}
	return &Report{
		Classes:    len(classes),
		KAnonymity: micro.Sizes(classes).Min,
		TCloseness: tc,
		LDiversity: ld,
	}, nil
}
