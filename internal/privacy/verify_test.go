package privacy

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/micro"
)

// TestEquivalenceClassesKeyGrouping pins how quasi-identifier values group
// into classes: by IEEE bits with every NaN made one value, so -0 and +0
// are apart, NaNs of any payload or sign are together, +Inf and -Inf are
// apart, and classes come out in first-seen order.
func TestEquivalenceClassesKeyGrouping(t *testing.T) {
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff0000000000abc)
	nanNeg := math.Float64frombits(0xfff8000000000000)
	negZero := math.Copysign(0, -1)
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "b", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "s", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	rows := [][2]float64{
		{math.Inf(1), 1},  // 0: class 0
		{0, 1},            // 1: class 1
		{negZero, 1},      // 2: class 2 (-0 is not +0)
		{nanA, 1},         // 3: class 3
		{math.Inf(-1), 1}, // 4: class 4 (-Inf is not +Inf)
		{nanB, 1},         // 5: class 3 (another NaN payload)
		{0, 1},            // 6: class 1
		{nanNeg, 1},       // 7: class 3 (a negative NaN)
		{math.Inf(1), 1},  // 8: class 0
		{negZero, 1},      // 9: class 2
		{1, nanB},         // 10: class 5 (NaN in the second QI)
		{1, nanA},         // 11: class 5
		{1, negZero},      // 12: class 6
	}
	for i, r := range rows {
		if err := tbl.AppendNumericRow(r[0], r[1], float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	classes, err := EquivalenceClasses(tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 8}, {1, 6}, {2, 9}, {3, 5, 7}, {4}, {10, 11}, {12}}
	if len(classes) != len(want) {
		t.Fatalf("got %d classes %v, want %d %v", len(classes), classes, len(want), want)
	}
	for i, c := range classes {
		if !slices.Equal(c.Rows, want[i]) {
			t.Errorf("class %d = %v, want %v", i, c.Rows, want[i])
		}
	}
}

// referenceTCloseness re-derives the t-closeness level of a partition from
// explicit probability vectors, with no emd.Hist: for each confidential
// column, the class and whole-table distributions over the column's sorted
// distinct values, compared by emd.Distance (ordered) or
// emd.NominalDistance (categorical).
func referenceTCloseness(t *testing.T, tbl *dataset.Table, classes []micro.Cluster) float64 {
	t.Helper()
	worst := 0.0
	for _, col := range tbl.Schema().Confidentials() {
		vals := tbl.ColumnView(col)
		domain := slices.Compact(slices.Sorted(slices.Values(vals)))
		bin := func(v float64) int { return sort.SearchFloat64s(domain, v) }
		q := make([]float64, len(domain))
		for _, v := range vals {
			q[bin(v)] += 1 / float64(len(vals))
		}
		for _, c := range classes {
			p := make([]float64, len(domain))
			for _, r := range c.Rows {
				p[bin(vals[r])] += 1 / float64(len(c.Rows))
			}
			dist := emd.Distance
			if tbl.Schema().Attr(col).Kind == dataset.Categorical {
				dist = emd.NominalDistance
			}
			d, err := dist(p, q)
			if err != nil {
				t.Fatal(err)
			}
			worst = max(worst, d)
		}
	}
	return worst
}

// TestTClosenessOfMatchesExplicitDistributions checks the release verifier
// against code that builds no histogram: random small tables with an
// ordered and a categorical confidential column, duplicate-heavy or
// all-distinct, under random partitions.
func TestTClosenessOfMatchesExplicitDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"flu", "asthma", "gout", "angina", "ulcer", "colic"}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		distinct := trial%2 == 0
		tbl := dataset.MustTable(dataset.MustSchema(
			dataset.Attribute{Name: "qi", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
			dataset.Attribute{Name: "charge", Role: dataset.Confidential, Kind: dataset.Numeric},
			dataset.Attribute{Name: "diag", Role: dataset.Confidential, Kind: dataset.Categorical},
		))
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			charge := float64(rng.Intn(4)) // duplicate-heavy: four values
			if distinct {
				charge = float64(perm[i]) * 1.5
			}
			diag := labels[rng.Intn(1+rng.Intn(len(labels)))]
			if distinct {
				diag = "code-" + strconv.Itoa(perm[i])
			}
			if err := tbl.AppendRow(float64(rng.Intn(n)), charge, diag); err != nil {
				t.Fatal(err)
			}
		}
		// A random partition: shuffled rows cut at random points.
		order := rng.Perm(n)
		var classes []micro.Cluster
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			classes = append(classes, micro.Cluster{Rows: order[lo:hi]})
			lo = hi
		}
		got, err := TClosenessOf(tbl, classes)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceTCloseness(t, tbl, classes); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (n=%d, distinct=%v, %d classes): TClosenessOf = %v, explicit distributions give %v",
				trial, n, distinct, len(classes), got, want)
		}
	}
}
