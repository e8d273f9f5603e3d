package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/micro"
	"repro/internal/privacy"
	"repro/internal/store"
)

// releases collects the samples of verified releases made in closed loop.
type releases struct {
	ms    []float64
	sse   []float64
	byAlg map[core.Algorithm][]float64
	// warm requests and how many of them were repaired from a warm seed
	warmReq, warmHit int
}

// made is a release that has run but is not checked yet.
type made struct {
	spec       core.Spec
	op         int
	tbl        *dataset.Table // the epoch the release ran on
	epoch      int
	start, end time.Time
	res        *core.Result
	err        error
}

// runRelease runs one release on the engine's current epoch and times only
// Engine.Run; checking it is left to finish.
func (r *run) runRelease(eng *core.Engine, spec core.Spec) made {
	m := made{spec: spec, op: r.tr.newOp(), tbl: eng.Table(), epoch: eng.Epoch()}
	m.start = time.Now()
	m.res, m.err = eng.Run(context.Background(), spec)
	m.end = time.Now()
	return m
}

// release runs one release with a collection forced beforehand, outside the
// timed window, then finishes it into rs.
func (r *run) release(eng *core.Engine, spec core.Spec, rs *releases) {
	runtime.GC()
	r.finish(r.runRelease(eng, spec), rs)
}

// finish checks a release and counts it as an op. With rs non-nil it also
// keeps its samples and, traced, replays the run's aggregation, SSE and
// assessment on the same table and partition to split the run by layer.
// Set-up releases pass a nil rs: they are checked but stay out of the
// measured phase's samples and spans.
func (r *run) finish(m made, rs *releases) {
	spec, res, err := m.spec, m.res, m.err
	if err == nil {
		err = checkResult(res, spec, m.tbl.Len())
	}
	if err == nil && rs != nil && r.tr.on {
		err = r.traceRelease(m.op, m.start, m.end, m.tbl, spec, res)
	}
	r.op(fmt.Sprintf("release %v k=%d t=%v epoch %d", spec.Algorithm, spec.K, spec.T, m.epoch), err)
	if err != nil || rs == nil {
		return
	}
	d := ms(m.end.Sub(m.start))
	rs.ms = append(rs.ms, d)
	rs.sse = append(rs.sse, res.SSE)
	if rs.byAlg == nil {
		rs.byAlg = make(map[core.Algorithm][]float64)
	}
	rs.byAlg[spec.Algorithm] = append(rs.byAlg[spec.Algorithm], d)
	if spec.Warm {
		rs.warmReq++
		if res.Warm != nil {
			rs.warmHit++
		}
	}
}

// traceRelease records the release as a core.run span with derived
// children: the partition (Result.Elapsed minus the replayed aggregation;
// tclose.warm_repair when the run was seeded warm), and the replayed
// micro.Aggregate, metrics.NormalizedSSE and privacy assessment.
func (r *run) traceRelease(op int, start, end time.Time, tbl *dataset.Table, spec core.Spec, res *core.Result) error {
	root := r.tr.record(op, 0, "core.run", start, end)
	t0 := time.Now()
	agg, err := micro.Aggregate(tbl, res.Clusters)
	if err != nil {
		return fmt.Errorf("replaying aggregation: %w", err)
	}
	t1 := time.Now()
	if _, err := metrics.NormalizedSSE(tbl, agg); err != nil {
		return fmt.Errorf("replaying SSE: %w", err)
	}
	t2 := time.Now()
	if _, err := privacy.TClosenessOf(tbl, res.Clusters); err != nil {
		return fmt.Errorf("replaying assessment: %w", err)
	}
	if _, err := privacy.LDiversityOf(tbl, res.Clusters); err != nil {
		return fmt.Errorf("replaying assessment: %w", err)
	}
	t3 := time.Now()
	part := fmt.Sprintf("tclose.partition.alg%d", int(spec.Algorithm)+1)
	if res.Warm != nil {
		part = "tclose.warm_repair"
	}
	aggMS := ms(t1.Sub(t0))
	r.tr.derive(root, []namedDur{
		{part, ms(res.Elapsed) - aggMS},
		{"micro.aggregate", aggMS},
		{"metrics.sse", ms(t2.Sub(t1))},
		{"privacy.assess", ms(t3.Sub(t2))},
	})
	r.tr.count(root, "clusters", float64(len(res.Clusters)))
	r.tr.count(root, "merges", float64(res.Merges))
	r.tr.count(root, "swaps", float64(res.Swaps))
	if res.Warm != nil {
		r.tr.count(root, "warm_scope_rows", float64(res.Warm.ScopeRows))
	}
	return nil
}

// releaseLayers reports the per-layer split of the traced releases.
func (r *run) releaseLayers() {
	dur, self := r.tr.layerTimes()
	for alg := 1; alg <= 3; alg++ {
		r.layerMetric(fmt.Sprintf("tclose.partition_s.alg%d", alg),
			sum(dur[fmt.Sprintf("tclose.partition.alg%d", alg)])/1e3, "sum over cold releases")
	}
	r.layerMetric("tclose.warm_repair_ms", mean(dur["tclose.warm_repair"]),
		fmt.Sprintf("mean of %d warm releases", len(dur["tclose.warm_repair"])))
	n := fmt.Sprintf("mean of %d releases", len(dur["core.run"]))
	r.layerMetric("micro.aggregate_ms", mean(dur["micro.aggregate"]), n)
	r.layerMetric("metrics.sse_ms", mean(dur["metrics.sse"]), n)
	r.layerMetric("privacy.assess_ms", mean(dur["privacy.assess"]), n)
	r.layerMetric("core.run_self_ms", mean(self["core.run"]), n+"; run minus the parts above")
	r.layerMetric("tclose.clusters", mean(r.tr.counts("core.run", "clusters")), "mean per release")
	r.layerMetric("tclose.merges", sum(r.tr.counts("core.run", "merges")), "sum over releases")
	r.layerMetric("tclose.swaps", sum(r.tr.counts("core.run", "swaps")), "sum over releases")
	r.layerMetric("tclose.warm_scope_rows", mean(nonZero(r.tr.counts("core.run", "warm_scope_rows"))),
		"mean per warm release")
}

func nonZero(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x != 0 {
			out = append(out, x)
		}
	}
	return out
}

// epochs collects the samples of epoch operations made in closed loop.
type epochs struct {
	appendMS, deleteMS, all []float64
	fileGrowth              []float64 // store file bytes added per epoch
}

// epoch applies one append epoch (ids == nil) or deletion epoch with a
// collection forced beforehand, and checks the engine's row count and epoch
// afterwards. With a timing backend the store's share is a child span.
func (r *run) epoch(eng *core.Engine, tb *timedBackend, rows [][]any, ids []int, es *epochs) {
	wantRows, wantEpoch := eng.Len()+len(rows)-len(ids), eng.Epoch()+1
	kind := "append"
	if ids != nil {
		kind = "delete"
	}
	var size0 int64
	if tb != nil {
		size0 = tb.fileBytes()
	}
	runtime.GC()
	op := r.tr.newOp()
	start := time.Now()
	var err error
	if ids == nil {
		err = eng.Append(rows...)
	} else {
		err = eng.Delete(ids...)
	}
	end := time.Now()
	if err == nil && (eng.Len() != wantRows || eng.Epoch() != wantEpoch) {
		err = fmt.Errorf("engine at %d rows, epoch %d; want %d, %d", eng.Len(), eng.Epoch(), wantRows, wantEpoch)
	}
	r.op(fmt.Sprintf("%s epoch %d", kind, wantEpoch), err)
	if err != nil {
		return
	}
	d := ms(end.Sub(start))
	es.all = append(es.all, d)
	if ids == nil {
		es.appendMS = append(es.appendMS, d)
	} else {
		es.deleteMS = append(es.deleteMS, d)
	}
	if tb != nil {
		es.fileGrowth = append(es.fileGrowth, float64(tb.fileBytes()-size0))
	}
	root := r.tr.record(op, 0, "core."+kind, start, end)
	if tb != nil && root != 0 {
		r.tr.record(op, root, "store."+kind+"_epoch", tb.lastStart, tb.lastEnd)
	}
}

// epochStats reports the delete median and the geometric mean and tail over
// all epochs.
func (r *run) epochStats(es *epochs) {
	r.layerMetric("core.epoch_geomean_ms", geomean(es.all), fmt.Sprintf("n=%d appends and deletes", len(es.all)))
	r.layerMetric("core.delete_p50_ms", median(es.deleteMS), fmt.Sprintf("n=%d", len(es.deleteMS)))
	t := tailOf(es.all)
	r.layerMetric("core.epoch_tail_ms", t.value, t.String())
}

// epochLayers reports the store and substrate split of the traced epochs.
func (r *run) epochLayers() {
	dur, self := r.tr.layerTimes()
	r.layerMetric("core.append_substrate_ms", mean(self["core.append"]),
		fmt.Sprintf("mean of %d appends; append minus its store share", len(self["core.append"])))
	r.layerMetric("core.delete_substrate_ms", mean(self["core.delete"]),
		fmt.Sprintf("mean of %d deletes; delete minus its store share", len(self["core.delete"])))
	r.layerMetric("store.append_epoch_ms", mean(dur["store.append_epoch"]), "mean per append")
	r.layerMetric("store.delete_epoch_ms", mean(dur["store.delete_epoch"]), "mean per delete")
}

// epochBatch returns rows [from, from+n) of src as Engine.Append rows.
func epochBatch(src *dataset.Table, from, n int) [][]any {
	out := make([][]any, n)
	for i := range out {
		row := make([]any, src.Width())
		for c := range row {
			row[c] = src.Value(from+i, c)
		}
		out[i] = row
	}
	return out
}

// epochCycle applies one epoch cycle: two one-row appends, a hundred-row
// append and a deletion of 102 random live rows, in a seeded order. The
// table size stays level, so every cycle costs about the same. Appended rows
// are late's rows from next on; it returns the next unused one.
func (r *run) epochCycle(eng *core.Engine, tb *timedBackend, rng *rand.Rand, late *dataset.Table, next int, es *epochs) int {
	const deleteOp = 0
	sizes := []int{1, 1, 100, deleteOp}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	for _, n := range sizes {
		if n == deleteOp {
			r.epoch(eng, tb, nil, rng.Perm(eng.Len())[:102], es)
			continue
		}
		r.epoch(eng, tb, epochBatch(late, next, n), nil, es)
		next += n
	}
	return next
}

// timedBackend times the store calls core makes during an epoch, so each
// epoch can be split into its store share and the rest. Epochs run one at a
// time, so the last interval is all it keeps.
type timedBackend struct {
	store.Backend
	dir string // the file store's directory, for fileBytes

	lastStart, lastEnd time.Time
}

func (b *timedBackend) timed(f func() error) error {
	b.lastStart = time.Now()
	err := f()
	b.lastEnd = time.Now()
	return err
}

func (b *timedBackend) AppendEpoch(name string, ch store.ColumnChunk) error {
	return b.timed(func() error { return b.Backend.AppendEpoch(name, ch) })
}

func (b *timedBackend) DeleteEpoch(name string, ids []int) error {
	return b.timed(func() error { return b.Backend.DeleteEpoch(name, ids) })
}

// fileBytes sums the sizes of the dataset files in the store's directory.
func (b *timedBackend) fileBytes() int64 {
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".tcs") {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}
