package tclose

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
)

// TestCandSetMatchesSortedOrder pins the candidate set to a brute-force
// (distance, row) sort of its live rows: full pop sequences (with the drain
// forced after 8 pops) on row-order sets, and position-range minima plus
// pops of the global minimum on (bin, row)-order sets. Table sizes straddle
// the block size, the duplicate-heavy table piles up equal points and
// distances, and extracted clusters leave gone positions both before and
// after a compaction.
func TestCandSetMatchesSortedOrder(t *testing.T) {
	defer func(d int) { drainAt = d }(drainAt)
	drainAt = 8
	rng := rand.New(rand.NewSource(22))
	var sawGone, sawCompaction, sawDrain bool
	for _, n := range []int{1, 31, 32, 33, 95, 150} {
		for ti, tbl := range []*dataset.Table{synth.Uniform(n, 3, int64(n)), duplicateHeavyTable(n, int64(n))} {
			p, err := newProblem(tbl, 3, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			points := p.pointsCopy()
			// An ascending pool with a few rows left out, as a warm repair
			// or shard passes.
			var pool []int
			for r := 0; r < n; r++ {
				if r == 0 || rng.Intn(8) > 0 {
					pool = append(pool, r)
				}
			}
			for _, byBin := range []bool{false, true} {
				c := p.newCandSet(pool, byBin)
				live := append([]int(nil), pool...)
				for round := 0; len(live) > 0; round++ {
					seed := points[live[rng.Intn(len(live))]]
					want := bruteOrder(points, live, seed)
					c.load(seed)
					sawGone = sawGone || c.nGone > 0
					if byBin {
						checkRangeMinima(t, c, points, seed, rng)
					} else {
						var got []int
						for {
							r, ok := c.next()
							if !ok {
								break
							}
							got = append(got, r)
						}
						sawDrain = sawDrain || c.drained
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("n=%d table %d round %d: pops %v, want %v", n, ti, round, got, want)
						}
					}
					// Extract a cluster of random live rows.
					drop := append([]int(nil), live...)
					rng.Shuffle(len(drop), func(i, j int) { drop[i], drop[j] = drop[j], drop[i] })
					drop = drop[:1+rng.Intn(min(len(drop), 6))]
					before := len(c.rows)
					c.remove(drop)
					sawCompaction = sawCompaction || len(c.rows) < before
					live = micro.FilterRows(live, drop, make([]bool, n))
				}
			}
		}
	}
	if !sawGone || !sawCompaction || !sawDrain {
		t.Fatalf("coverage: gone positions %v, compaction %v, drain %v", sawGone, sawCompaction, sawDrain)
	}
}

// bruteOrder sorts rows by (squared distance to seed, row).
func bruteOrder(points [][]float64, rows []int, seed []float64) []int {
	out := append([]int(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		di, dj := micro.Dist2(points[out[i]], seed), micro.Dist2(points[out[j]], seed)
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	return out
}

// checkRangeMinima compares minIn over random position ranges, and over the
// position range of every bin interval, with a brute-force minimum, then
// pops a few global minima and checks them the same way.
func checkRangeMinima(t *testing.T, c *candSet, points [][]float64, seed []float64, rng *rand.Rand) {
	t.Helper()
	for i := 1; i < len(c.rows); i++ {
		if a, b := c.bins[i-1], c.bins[i]; a > b || (a == b && c.rows[i-1] >= c.rows[i]) {
			t.Fatalf("positions %d, %d out of (bin, row) order", i-1, i)
		}
	}
	popped := map[int]bool{}
	bruteMin := func(lo, hi int) int32 {
		best := int32(-1)
		var bestD float64
		for i := lo; i < hi; i++ {
			r := int(c.rows[i])
			if c.gone(i) || popped[r] {
				continue
			}
			d := micro.Dist2(points[r], seed)
			if best < 0 || d < bestD || (d == bestD && c.rows[i] < c.rows[best]) {
				best, bestD = int32(i), d
			}
		}
		return best
	}
	check := func(lo, hi int) {
		if got, want := c.minIn(lo, hi), bruteMin(lo, hi); got != want {
			t.Fatalf("minIn(%d, %d) over %d positions = %d, want %d", lo, hi, len(c.rows), got, want)
		}
	}
	for pops := 0; ; pops++ {
		for q := 0; q < 20; q++ {
			lo := rng.Intn(len(c.rows) + 1)
			check(lo, lo+rng.Intn(len(c.rows)-lo+1))
		}
		for blo := 0; blo < c.sp.Bins(); blo++ {
			bhi := blo + 1 + rng.Intn(c.sp.Bins()-blo)
			lo, hi := c.binRange(blo, bhi)
			for i := range c.rows {
				if in := int(c.bins[i]) >= blo && int(c.bins[i]) < bhi; in != (i >= lo && i < hi) {
					t.Fatalf("binRange(%d, %d) = [%d, %d) misplaces position %d", blo, bhi, lo, hi, i)
				}
			}
			check(lo, hi)
		}
		if pops == 3 || c.left == 0 {
			return
		}
		top := c.tree[1]
		if want := bruteMin(0, len(c.rows)); top != want {
			t.Fatalf("global minimum %d, want %d", top, want)
		}
		c.take(top)
		popped[int(c.rows[top])] = true
	}
}
