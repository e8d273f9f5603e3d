package tclose

import "repro/internal/dataset"

// cold turns a Prepared method into a one-call run: it prepares a fresh
// substrate over the table and runs the method on it once, as a fresh
// engine does.
func cold(alg func(*Prepared, Run, int, float64) (*Result, error)) func(*dataset.Table, int, float64) (*Result, error) {
	return func(t *dataset.Table, k int, tl float64) (*Result, error) {
		prep, err := Prepare(t)
		if err != nil {
			return nil, err
		}
		return alg(prep, Run{}, k, tl)
	}
}

var (
	algorithm1           = cold((*Prepared).Algorithm1)
	algorithm2           = cold((*Prepared).Algorithm2)
	algorithm2Standalone = cold(alg2Standalone)
	algorithm3           = cold((*Prepared).Algorithm3)
)

// alg2Standalone runs only Algorithm 2's k-anonymity-first partition,
// without the finishing merge step, so Result.MaxEMD may exceed t: records
// may run out before the last clusters reach it.
func alg2Standalone(prep *Prepared, run Run, k int, tl float64) (*Result, error) {
	p, err := prep.newRun(run, k, tl)
	if err != nil {
		return nil, err
	}
	clusters, swaps, err := p.kAnonymityFirstPartition()
	if err != nil {
		return nil, err
	}
	return &Result{Clusters: clusters, MaxEMD: p.maxEMD(clusters), Swaps: swaps, EffectiveK: p.k}, nil
}

// newProblem prepares a fresh substrate over t and builds one run over it.
func newProblem(t *dataset.Table, k int, tLevel float64) (*problem, error) {
	prep, err := Prepare(t)
	if err != nil {
		return nil, err
	}
	return prep.newRun(Run{}, k, tLevel)
}

// pointsCopy returns a deep copy of the normalized point rows, for the
// reference implementations that work on [][]float64.
func (p *Prepared) pointsCopy() [][]float64 {
	n, dim := p.mat.N(), p.mat.Dim()
	flat := append([]float64(nil), p.mat.Rows(0, n)...)
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}
