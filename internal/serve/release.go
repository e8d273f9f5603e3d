package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
)

// fetchChunk is how many bytes a result fetch buffers before each write.
const fetchChunk = 64 << 10

// release is a finished job's result document, formatted once when the
// job finishes and then shared read-only by the job record and the result
// cache. A fetch writes the job's id and cached flag and copies bytes that
// are already JSON-escaped: nothing on the fetch path formats a number or
// calls encoding/json or encoding/csv.
//
// A microaggregated release repeats each cluster's centroid in every
// member row, so the cells live in two arenas. A shared column, one whose
// value bits are equal within every cluster (each microaggregated
// quasi-identifier, Mondrian's midpoints, Incognito's recodes, a blanked
// identifier), is formatted once per cluster; every other column is
// formatted once per row, so every algorithm takes the same exact path.
// Neighbouring columns of one kind form a segment, stored as one
// comma-joined run of cells, and a row is its segments joined by commas.
type release struct {
	// head is every field of the document but id, cached and release_csv,
	// as encoding/json writes them without the enclosing braces, followed
	// by `,"release_csv":"` and the two header lines, escaped.
	head []byte
	// shared tells, per segment, whether it comes from the cluster arena;
	// perGroup counts the segments that do.
	shared   []bool
	perGroup int
	// group is the cluster of each row; a row no cluster holds has a
	// group of its own.
	group []int32
	// byGroup holds the shared segments of each group, byRow the other
	// segments of each row.
	byGroup, byRow arena
}

// arena holds escaped segments back to back: segment i of the owners
// (groups or rows) is buf[off[i]:off[i+1]], owner by owner.
type arena struct {
	buf []byte
	off []uint32
}

func (a *arena) seg(i int) []byte { return a.buf[a.off[i]:a.off[i+1]] }

// newRelease formats the result document of job j's successful run.
func newRelease(j *job, res *core.Result) (*release, error) {
	tbl := res.Anonymized
	fields, err := json.Marshal(resultFields(j, res))
	if err != nil {
		return nil, fmt.Errorf("serve: encoding result: %w", err)
	}
	rel := &release{head: append(fields[1:len(fields)-1], `,"release_csv":"`...)}
	rel.head = appendEscaped(rel.head, string(tbl.AppendHeader(nil)))

	n := tbl.Len()
	rel.group = make([]int32, n)
	for r := range rel.group {
		rel.group[r] = -1
	}
	groups := len(res.Clusters)
	for g, c := range res.Clusters {
		for _, r := range c.Rows {
			if r < 0 || r >= n {
				return nil, fmt.Errorf("serve: cluster %d holds row %d of a %d-row release", g, r, n)
			}
			rel.group[r] = int32(g)
		}
	}
	for r, g := range rel.group {
		if g < 0 {
			rel.group[r] = int32(groups)
			groups++
		}
	}
	// first[g] is a row of group g, -1 for a cluster with no rows.
	first := make([]int32, groups)
	for g := range first {
		first[g] = -1
	}
	for r := n - 1; r >= 0; r-- {
		first[rel.group[r]] = int32(r)
	}

	// bounds[s] is the first column of segment s.
	var bounds []int
	for c := 0; c < tbl.Width(); c++ {
		col := tbl.ColumnView(c)
		shared := true
		for r, g := range rel.group {
			if math.Float64bits(col[r]) != math.Float64bits(col[first[g]]) {
				shared = false
				break
			}
		}
		if c == 0 || shared != rel.shared[len(rel.shared)-1] {
			bounds = append(bounds, c)
			rel.shared = append(rel.shared, shared)
			if shared {
				rel.perGroup++
			}
		}
	}
	bounds = append(bounds, tbl.Width())

	// fill appends row's segments of the wanted kind to a.
	fill := func(a *arena, row int, want bool) error {
		for s, shared := range rel.shared {
			if shared != want {
				continue
			}
			for c := bounds[s]; c < bounds[s+1]; c++ {
				if c > bounds[s] {
					a.buf = append(a.buf, ',')
				}
				start := len(a.buf)
				a.buf = tbl.AppendCell(a.buf, row, c)
				if !jsonSafe(a.buf[start:]) {
					a.buf = appendEscaped(a.buf[:start], string(a.buf[start:]))
				}
			}
			if len(a.buf) > math.MaxUint32 {
				return fmt.Errorf("serve: release of %d rows exceeds 4 GiB", n)
			}
			a.off = append(a.off, uint32(len(a.buf)))
		}
		return nil
	}
	rel.byGroup.off = append(make([]uint32, 0, groups*rel.perGroup+1), 0)
	for _, r := range first {
		if r < 0 {
			for i := 0; i < rel.perGroup; i++ {
				rel.byGroup.off = append(rel.byGroup.off, uint32(len(rel.byGroup.buf)))
			}
		} else if err := fill(&rel.byGroup, int(r), true); err != nil {
			return nil, err
		}
	}
	rel.byRow.off = append(make([]uint32, 0, n*(len(rel.shared)-rel.perGroup)+1), 0)
	for r := 0; r < n; r++ {
		if err := fill(&rel.byRow, r, false); err != nil {
			return nil, err
		}
	}
	// Keep only what the cells use: the arenas grew by doubling.
	rel.byGroup.buf = append([]byte(nil), rel.byGroup.buf...)
	rel.byRow.buf = append([]byte(nil), rel.byRow.buf...)
	return rel, nil
}

// writeTo writes the document of the job with the given id and cached
// flag to w, in chunks of about fetchChunk bytes: the id and the flag,
// the head, the rows assembled from the arenas, each ended by an escaped
// newline, and the closing of release_csv and of the document.
func (rel *release) writeTo(w io.Writer, id uint64, cached bool) error {
	buf := make([]byte, 0, fetchChunk+4096)
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendUint(buf, id, 10)
	buf = append(buf, `,"cached":`...)
	buf = strconv.AppendBool(buf, cached)
	buf = append(buf, ',')
	buf = append(buf, rel.head...)
	perRow := len(rel.shared) - rel.perGroup
	for r, g := range rel.group {
		gi, ri := int(g)*rel.perGroup, r*perRow
		for s, shared := range rel.shared {
			if s > 0 {
				buf = append(buf, ',')
			}
			if shared {
				buf = append(buf, rel.byGroup.seg(gi)...)
				gi++
			} else {
				buf = append(buf, rel.byRow.seg(ri)...)
				ri++
			}
		}
		buf = append(buf, `\n`...)
		if len(buf) >= fetchChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, "\"}\n"...)
	_, err := w.Write(buf)
	return err
}

// resultFields is the result document of a successful run but its id,
// cached and release_csv fields.
func resultFields(j *job, res *core.Result) map[string]any {
	doc := map[string]any{
		"dataset":     j.ds.name,
		"epoch":       res.Epoch,
		"algorithm":   j.algName,
		"k":           j.spec.K,
		"t":           j.spec.T,
		"rows":        res.Anonymized.Len(),
		"clusters":    len(res.Clusters),
		"max_emd":     res.MaxEMD,
		"sse":         res.SSE,
		"effective_k": res.EffectiveK,
		"merges":      res.Merges,
		"swaps":       res.Swaps,
		"elapsed_ms":  float64(res.Elapsed) / float64(time.Millisecond),
		"sizes": map[string]any{
			"min": res.Sizes.Min, "max": res.Sizes.Max,
			"avg": res.Sizes.Avg, "num": res.Sizes.Num,
		},
	}
	if res.Warm != nil {
		doc["warm"] = map[string]any{
			"seed_epoch":    res.Warm.SeedEpoch,
			"seed_clusters": res.Warm.SeedClusters,
			"assigned":      res.Warm.Assigned,
			"folded":        res.Warm.Folded,
			"split":         res.Warm.Split,
			"repaired":      res.Warm.Repaired,
			"scope_rows":    res.Warm.ScopeRows,
		}
	}
	if res.Privacy != nil {
		doc["privacy"] = map[string]any{
			"classes":     res.Privacy.Classes,
			"k_anonymity": res.Privacy.KAnonymity,
			"t_closeness": res.Privacy.TCloseness,
			"l_diversity": res.Privacy.LDiversity,
		}
	}
	return doc
}

// jsonSafe reports whether b needs no escaping inside a JSON string as
// encoding/json writes one: printable ASCII but the quote, the backslash
// and the HTML-sensitive <, > and &.
func jsonSafe(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendEscaped appends s as encoding/json escapes it inside a string,
// invalid UTF-8 and U+2028 included. Escaping cell by cell gives the bytes
// of escaping the whole document at once, because the separators between
// cells are ASCII and a UTF-8 sequence never spans an ASCII byte.
func appendEscaped(dst []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(dst, q[1:len(q)-1]...)
}
