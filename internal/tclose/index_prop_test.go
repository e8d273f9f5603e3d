package tclose

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
)

// This file pins the spatial-index paths of the t-closeness algorithms to
// their linear-scan counterparts: with the matrix's index crossover forced
// low, every Farthest/Nearest/candidate-stream query runs on the k-d tree,
// and the partitions must be identical — not merely close — to the ones the
// linear scans produce (which TestKAnonymityFirstPartitionMatchesReference
// in turn pins to the naive reference implementation).

// withCrossover runs alg on a fresh substrate over tbl whose matrix builds
// the k-d tree for candidate sets of at least c rows.
func withCrossover(t *testing.T, c int, alg func(*Prepared, Run, int, float64) (*Result, error), tbl *dataset.Table, k int, tl float64) *Result {
	t.Helper()
	prep, err := Prepare(tbl)
	if err != nil {
		t.Fatal(err)
	}
	prep.Matrix().SetTuning(micro.Tuning{IndexCrossover: c})
	res, err := alg(prep, Run{}, k, tl)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAlgorithm2IndexMatchesScan(t *testing.T) {
	if testing.Short() {
		t.Skip("index vs scan sweep: slow property test")
	}
	tbl := synth.PatientDischarge(700, 5)
	for _, k := range []int{1, 2, 4} {
		for _, tl := range []float64{0.04, 0.15, 0.3} {
			scan := withCrossover(t, 1<<30, (*Prepared).Algorithm2, tbl, k, tl)
			indexed := withCrossover(t, 1, (*Prepared).Algorithm2, tbl, k, tl)
			if !reflect.DeepEqual(scan, indexed) {
				t.Fatalf("k=%d t=%v: Algorithm2 index vs scan results diverge", k, tl)
			}
		}
	}
}

func TestAlgorithm3IndexMatchesScan(t *testing.T) {
	tbl := synth.PatientDischarge(600, 9)
	for _, k := range []int{2, 5} {
		for _, tl := range []float64{0.03, 0.1, 0.3} {
			scan := withCrossover(t, 1<<30, (*Prepared).Algorithm3, tbl, k, tl)
			indexed := withCrossover(t, 1, (*Prepared).Algorithm3, tbl, k, tl)
			if !reflect.DeepEqual(scan, indexed) {
				t.Fatalf("k=%d t=%v: Algorithm3 index vs scan results diverge", k, tl)
			}
		}
	}
}

// referenceMergeUntilTClose is the pre-heap merge loop: a linear scan for
// the worst cluster per merge. The heap-based loop must merge the same
// clusters in the same order.
func referenceMergeUntilTClose(p *problem, clusters []micro.Cluster) ([]micro.Cluster, int) {
	st := &mergeState{
		rows:     make([][]int, len(clusters)),
		hists:    make([]histSet, len(clusters)),
		emds:     make([]float64, len(clusters)),
		centroid: make([][]float64, len(clusters)),
		alive:    make([]bool, len(clusters)),
		nAlive:   len(clusters),
	}
	points := p.pointsCopy()
	for i, c := range clusters {
		st.rows[i] = append([]int(nil), c.Rows...)
		st.hists[i] = p.newHistSet(c.Rows)
		st.emds[i] = st.hists[i].emd()
		st.centroid[i] = micro.Centroid(points, c.Rows)
		st.alive[i] = true
	}
	merges := 0
	for st.nAlive > 1 {
		worst, worstEMD := -1, 0.0
		for i := range st.rows {
			if st.alive[i] && st.emds[i] > worstEMD {
				worst, worstEMD = i, st.emds[i]
			}
		}
		if worst < 0 || worstEMD <= p.t {
			break
		}
		closest, closestD := -1, 0.0
		for j := range st.rows {
			if !st.alive[j] || j == worst {
				continue
			}
			d := micro.Dist2(st.centroid[worst], st.centroid[j])
			if closest < 0 || d < closestD {
				closest, closestD = j, d
			}
		}
		if closest < 0 {
			break
		}
		st.merge(p, worst, closest)
		merges++
	}
	out := make([]micro.Cluster, 0, st.nAlive)
	for i := range st.rows {
		if st.alive[i] {
			out = append(out, micro.Cluster{Rows: st.rows[i]})
		}
	}
	return out, merges
}

// TestMergeHeapMatchesLinearScan pins the worst-cluster max-heap and the
// merge-partner index of the Algorithm 1 merge loop to the linear scans
// they replaced, including the lowest-index tie-breaking among equal EMDs
// and equal centroid distances (MDAV partitions of discrete data produce
// many clusters with identical confidential histograms and coinciding
// centroids, so ties are common, not hypothetical). The index runs at its
// default thresholds, forced on from the first merge, and forced on and
// rebuilt every few merges or every merge.
func TestMergeHeapMatchesLinearScan(t *testing.T) {
	cases := []struct {
		name string
		tbl  *dataset.Table
		k    int
		tl   float64
	}{
		{"tight", synth.PatientDischarge(500, 77), 2, 0.03},
		{"mid", synth.PatientDischarge(500, 77), 3, 0.1},
		{"loose", synth.PatientDischarge(500, 77), 5, 0.3},
		{"dup-tight", duplicateHeavyTable(400, 5), 2, 0.02},
		{"dup-mid", duplicateHeavyTable(400, 6), 3, 0.08},
	}
	indexModes := []struct {
		name           string
		scans, rebuild int
	}{
		{"default", partnerBuildScans, partnerRebuildShare},
		{"first-merge", 0, partnerRebuildShare},
		{"every-few", 0, 64},
		{"every-merge", 0, 1 << 20},
	}
	defer func(s, r int) { partnerBuildScans, partnerRebuildShare = s, r }(partnerBuildScans, partnerRebuildShare)
	for _, tc := range cases {
		p, err := newProblem(tc.tbl, tc.k, tc.tl)
		if err != nil {
			t.Fatal(err)
		}
		clusters, err := micro.MDAV(p.pointsCopy(), tc.k)
		if err != nil {
			t.Fatal(err)
		}
		wantClusters, wantMerges := referenceMergeUntilTClose(p, clusters)
		if wantMerges < 10 {
			t.Fatalf("%s: only %d merges, too few to exercise the index", tc.name, wantMerges)
		}
		for _, mode := range indexModes {
			partnerBuildScans, partnerRebuildShare = mode.scans, mode.rebuild
			gotClusters, gotMerges, gotMaxEMD, err := p.mergeUntilTClose(clusters)
			if err != nil {
				t.Fatal(err)
			}
			if want := p.maxEMD(gotClusters); gotMaxEMD != want {
				t.Errorf("%s/%s: MaxEMD=%v want %v", tc.name, mode.name, gotMaxEMD, want)
			}
			if gotMerges != wantMerges {
				t.Errorf("%s/%s: merges=%d want %d", tc.name, mode.name, gotMerges, wantMerges)
			}
			if !reflect.DeepEqual(gotClusters, wantClusters) {
				t.Fatalf("%s/%s: merged partitions diverge", tc.name, mode.name)
			}
		}
	}
}
