package generalization

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/micro"
)

// Incognito-style full-domain generalization adapted to t-closeness, the
// approach of Li et al. (ICDE 2007) that the paper's Section 3 describes as
// the classical way to attain t-closeness: take a full-domain k-anonymity
// lattice search and add the t-closeness constraint when checking whether a
// generalization is viable.
//
// Each numeric quasi-identifier gets a generalization hierarchy of
// quantile intervals: level 0 is the exact value, each higher level halves
// the number of intervals, and the top level is a single interval covering
// the whole domain. A lattice node assigns one level per quasi-identifier;
// both k-anonymity and t-closeness are monotone along the lattice (coarser
// generalization merges equivalence classes, which can only raise the
// minimum class size and, by convexity of the Earth Mover's Distance in the
// class distribution, can only lower the maximum class-to-global EMD), so a
// bottom-up breadth-first search that prunes ancestors of satisfying nodes
// finds exactly the minimal satisfying generalizations, among which the one
// with the lowest normalized SSE (midpoint recoding) is returned.

// GenResult is the outcome of IncognitoT.
type GenResult struct {
	// Levels is the chosen generalization level per quasi-identifier (in
	// schema order of the quasi-identifiers); 0 means no generalization.
	Levels []int
	// Clusters are the equivalence classes induced by the generalization.
	Clusters []micro.Cluster
	// MaxEMD is the achieved t-closeness level.
	MaxEMD float64
	// NodesChecked counts lattice nodes evaluated (search effort).
	NodesChecked int
}

// hierarchy precomputes, for one quasi-identifier, the interval index of
// every record at every level.
type hierarchy struct {
	levels int     // number of levels above exact (level 0)
	bins   [][]int // bins[level][row] -> interval index; level 0 = exact rank
}

// maxLevels caps the per-attribute hierarchy height: 8 levels cover up to
// 256 intervals.
const maxLevels = 8

func buildHierarchy(t *dataset.Table, col int) *hierarchy {
	ranks, distinct := t.Ranks(col)
	m := len(distinct)
	natural := 0
	for (1 << natural) < m {
		natural++
	}
	levels := natural
	if levels > maxLevels {
		levels = maxLevels
	}
	h := &hierarchy{levels: levels, bins: make([][]int, levels+1)}
	h.bins[0] = ranks
	for l := 1; l <= levels; l++ {
		// Interval width doubles per level; the top level is always a
		// single interval even when the hierarchy height is capped, so the
		// lattice's top node is guaranteed to satisfy any (k, t).
		width := 1 << l
		if l == levels {
			width = m
		}
		binRow := make([]int, len(ranks))
		for r, rank := range ranks {
			binRow[r] = rank / width
		}
		h.bins[l] = binRow
	}
	return h
}

// IncognitoTPrepared searches the full-domain generalization lattice
// bottom-up for the minimal generalizations that make the table k-anonymous
// and t-close, and returns the one with the lowest information loss.
// Cancellation is checked once per evaluated lattice node.
//
// If even the top node (everything generalized to a single interval, i.e.
// one equivalence class) fails — impossible, since a single class has EMD
// 0 and size n — an error is returned only for invalid parameters.
//
// spaces are the ordered-distance EMD spaces, one per confidential
// attribute in schema order, which the engine prepares once per table; nil
// spaces are built here.
func IncognitoTPrepared(ctx context.Context, t *dataset.Table, k int, tLevel float64, spaces []*emd.Space) (*GenResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t == nil || t.Len() == 0 {
		return nil, micro.ErrEmpty
	}
	if err := t.Schema().Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, ErrBadK
	}
	if k > t.Len() {
		// The coarsest possible release is a single class of all records.
		k = t.Len()
	}
	if tLevel <= 0 || tLevel > 1 {
		return nil, fmt.Errorf("generalization: t must be in (0, 1], got %v", tLevel)
	}
	qis := t.Schema().QuasiIdentifiers()
	for _, c := range qis {
		if t.Schema().Attr(c).Kind != dataset.Numeric {
			return nil, errors.New("generalization: IncognitoT supports numeric quasi-identifiers only")
		}
	}
	hier := make([]*hierarchy, len(qis))
	for i, c := range qis {
		hier[i] = buildHierarchy(t, c)
	}
	if spaces == nil {
		spaces = make([]*emd.Space, 0, 1)
		for _, c := range t.Schema().Confidentials() {
			s, err := emd.NewSpace(t.ColumnView(c))
			if err != nil {
				return nil, err
			}
			spaces = append(spaces, s)
		}
	}

	// Enumerate lattice nodes in ascending total height so the first
	// satisfying nodes found at each height are minimal unless dominated by
	// an already-found satisfying node.
	type node struct {
		levels []int
	}
	var satisfying []node
	dominated := func(levels []int) bool {
		for _, s := range satisfying {
			leq := true
			for i := range levels {
				if levels[i] < s.levels[i] {
					leq = false
					break
				}
			}
			if leq {
				return true
			}
		}
		return false
	}
	best := (*GenResult)(nil)
	bestSSE := math.Inf(1)
	checked := 0
	maxHeight := 0
	for _, h := range hier {
		maxHeight += h.levels
	}
	for height := 0; height <= maxHeight; height++ {
		anyLive := false
		for _, levels := range nodesAtHeight(hier, height) {
			if dominated(levels) {
				continue
			}
			anyLive = true
			checked++
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			clusters, maxEMD, ok := evaluate(t, hier, spaces, levels, k, tLevel)
			if !ok {
				continue
			}
			satisfying = append(satisfying, node{levels: append([]int(nil), levels...)})
			anon, err := recode(t, hier, levels)
			if err != nil {
				return nil, err
			}
			sse := quickSSE(t, anon, qis)
			if sse < bestSSE {
				bestSSE = sse
				best = &GenResult{
					Levels:   append([]int(nil), levels...),
					Clusters: clusters,
					MaxEMD:   maxEMD,
				}
			}
		}
		// Once every node at a height is dominated, all deeper nodes are
		// dominated too (domination is upward-closed along the lattice).
		if !anyLive && best != nil {
			break
		}
	}
	if best == nil {
		return nil, errors.New("generalization: no satisfying node (unreachable)")
	}
	best.NodesChecked = checked
	return best, nil
}

// nodesAtHeight enumerates all level vectors with the given total height.
func nodesAtHeight(hier []*hierarchy, height int) [][]int {
	var out [][]int
	cur := make([]int, len(hier))
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == len(hier) {
			if left == 0 {
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		maxL := hier[i].levels
		for l := 0; l <= maxL && l <= left; l++ {
			cur[i] = l
			rec(i+1, left-l)
		}
	}
	rec(0, height)
	return out
}

// evaluate groups records by generalized QI tuple and checks k-anonymity
// and t-closeness.
func evaluate(t *dataset.Table, hier []*hierarchy, spaces []*emd.Space, levels []int, k int, tLevel float64) ([]micro.Cluster, float64, bool) {
	n := t.Len()
	groups := make(map[string][]int)
	var order []string
	key := make([]byte, 0, 4*len(hier))
	for r := 0; r < n; r++ {
		key = key[:0]
		for i, h := range hier {
			b := h.bins[levels[i]][r]
			key = append(key, byte(b), byte(b>>8), byte(b>>16), '|')
		}
		s := string(key)
		if _, seen := groups[s]; !seen {
			order = append(order, s)
		}
		groups[s] = append(groups[s], r)
	}
	clusters := make([]micro.Cluster, 0, len(order))
	worst := 0.0
	for _, s := range order {
		rows := groups[s]
		if len(rows) < k {
			return nil, 0, false
		}
		for _, sp := range spaces {
			if d := sp.EMDOf(rows); d > worst {
				worst = d
				if worst > tLevel {
					return nil, 0, false
				}
			}
		}
		clusters = append(clusters, micro.Cluster{Rows: rows})
	}
	return clusters, worst, true
}

// recode produces the generalized release: each quasi-identifier value is
// replaced by the midpoint of its interval's actual value range at the
// node's level; identifiers are redacted.
func recode(t *dataset.Table, hier []*hierarchy, levels []int) (*dataset.Table, error) {
	out := t.Clone()
	qis := t.Schema().QuasiIdentifiers()
	for i, col := range qis {
		bins := hier[i].bins[levels[i]]
		lo := map[int]float64{}
		hi := map[int]float64{}
		for r := 0; r < t.Len(); r++ {
			v := t.Value(r, col)
			b := bins[r]
			if cur, ok := lo[b]; !ok || v < cur {
				lo[b] = v
			}
			if cur, ok := hi[b]; !ok || v > cur {
				hi[b] = v
			}
		}
		for r := 0; r < t.Len(); r++ {
			b := bins[r]
			out.SetValue(r, col, (lo[b]+hi[b])/2)
		}
	}
	for _, col := range t.Schema().Indices(dataset.Identifier) {
		out.Redact(col)
	}
	return out, nil
}

// quickSSE is the Eq. (5) normalized SSE restricted to the given columns,
// inlined here to avoid an import cycle with the metrics package.
func quickSSE(orig, anon *dataset.Table, cols []int) float64 {
	n := orig.Len()
	if n == 0 || len(cols) == 0 {
		return 0
	}
	total := 0.0
	for _, c := range cols {
		st := orig.Stats(c)
		rng := st.Max - st.Min
		if rng == 0 {
			continue
		}
		o, a := orig.ColumnView(c), anon.ColumnView(c)
		for r := 0; r < n; r++ {
			d := (o[r] - a[r]) / rng
			total += d * d
		}
	}
	return total / float64(n*len(cols))
}

// Recode exposes the release step for a found generalization so callers can
// materialize the anonymized table from a GenResult.
func Recode(t *dataset.Table, levels []int) (*dataset.Table, error) {
	qis := t.Schema().QuasiIdentifiers()
	if len(levels) != len(qis) {
		return nil, fmt.Errorf("generalization: %d levels for %d quasi-identifiers",
			len(levels), len(qis))
	}
	hier := make([]*hierarchy, len(qis))
	for i, c := range qis {
		hier[i] = buildHierarchy(t, c)
		if levels[i] < 0 || levels[i] > hier[i].levels {
			return nil, fmt.Errorf("generalization: level %d out of range for attribute %d",
				levels[i], i)
		}
	}
	return recode(t, hier, levels)
}
