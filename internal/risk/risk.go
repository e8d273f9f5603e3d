// Package risk implements empirical disclosure-risk assessment for
// anonymized microdata via distance-based record linkage (Winkler et al.,
// "Disclosure risk assessment in perturbative microdata protection", cited
// as [32] by the paper). It complements the information-loss metrics: SDC
// evaluations report the trade-off between utility (package metrics) and
// risk (this package).
//
// The attack model: an intruder holds the original quasi-identifier values
// of the subjects (e.g. from an external register) and links each original
// record to its nearest record in the anonymized release. A linkage is
// correct when the nearest anonymized record is the one derived from that
// subject. For a k-anonymous release the nearest match is a centroid shared
// by >= k records, so the theoretical ceiling of correct linkage is 1/k;
// measuring the empirical rate validates that the release delivers it.
package risk

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/micro"
)

// LinkageResult summarizes a record-linkage attack.
type LinkageResult struct {
	// Linked is the number of original records whose subject was correctly
	// re-identified (credited fractionally when several anonymized records
	// tie at the minimum distance: 1/|ties| if the true record is among
	// them, following the standard distance-based linkage accounting).
	Linked float64
	// Records is the number of records attacked.
	Records int
}

// Rate returns the proportion of correct re-identifications in [0, 1].
func (r LinkageResult) Rate() float64 {
	if r.Records == 0 {
		return 0
	}
	return r.Linked / float64(r.Records)
}

// DistanceLinkage runs the distance-based record-linkage attack: for every
// original record, all anonymized records at minimal quasi-identifier
// distance are located, and credit 1/|ties| is scored if the record derived
// from the same subject (same row index) is among them.
func DistanceLinkage(original, anonymized *dataset.Table) (LinkageResult, error) {
	if original.Len() != anonymized.Len() {
		return LinkageResult{}, fmt.Errorf("risk: table sizes differ: %d vs %d",
			original.Len(), anonymized.Len())
	}
	if original.Len() == 0 {
		return LinkageResult{}, errors.New("risk: no records")
	}
	if !original.Schema().Equal(anonymized.Schema()) {
		return LinkageResult{}, errors.New("risk: schemas differ")
	}
	qis := original.Schema().QuasiIdentifiers()
	if len(qis) == 0 {
		return LinkageResult{}, errors.New("risk: no quasi-identifiers")
	}
	// Normalize both tables with the original's ranges so distances are
	// commensurate.
	mins := make([]float64, len(qis))
	ranges := make([]float64, len(qis))
	for j, c := range qis {
		st := original.Stats(c)
		mins[j] = st.Min
		if st.Max > st.Min {
			ranges[j] = st.Max - st.Min
		} else {
			ranges[j] = 1
		}
	}
	n := original.Len()
	anonPts := make([][]float64, n)
	for r := 0; r < n; r++ {
		p := make([]float64, len(qis))
		for j, c := range qis {
			p[j] = (anonymized.Value(r, c) - mins[j]) / ranges[j]
		}
		anonPts[r] = p
	}
	res := LinkageResult{Records: n}
	probe := make([]float64, len(qis))
	for r := 0; r < n; r++ {
		for j, c := range qis {
			probe[j] = (original.Value(r, c) - mins[j]) / ranges[j]
		}
		bestD := -1.0
		ties := 0
		selfTied := false
		for a := 0; a < n; a++ {
			d := micro.Dist2(probe, anonPts[a])
			switch {
			case bestD < 0 || d < bestD:
				bestD = d
				ties = 1
				selfTied = a == r
			case d == bestD:
				ties++
				if a == r {
					selfTied = true
				}
			}
		}
		if selfTied {
			res.Linked += 1.0 / float64(ties)
		}
	}
	return res, nil
}
