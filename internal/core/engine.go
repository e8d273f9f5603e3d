package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/generalization"
	"repro/internal/metrics"
	"repro/internal/micro"
	"repro/internal/privacy"
	"repro/internal/sabre"
	"repro/internal/store"
	"repro/internal/tclose"
)

// Engine is a prepared, reusable anonymization session over one table. It
// builds the shared substrate — the normalized quasi-identifier matrix, the
// per-attribute EMD dataset-prefix geometry, the packed confidential
// signatures, and a lazily built spatial index — once, and executes any
// number of Run calls against it without recomputation. Where a partition
// depends on fewer parameters than the full (algorithm, k, t) triple (MDAV
// on k alone, Algorithm 3 on the effective cluster size alone), it is
// additionally cached across runs, so parameter sweeps — the shape of the
// paper's whole evaluation — stop paying per point.
//
// An Engine is safe for concurrent use: Run calls may overlap each other
// and Append. Tuning is engine-scoped (see WithWorkers), so concurrent
// engines with different settings never race.
type Engine struct {
	tun      micro.Tuning
	progress func(Progress)

	// store, when non-nil, is the persistent backend every Append/Delete
	// epoch writes through to before becoming visible; set by Open/Create.
	store     store.Backend
	storeName string

	mu    sync.Mutex
	state *engineState

	// warm is the warm-start partition cache: the latest successful
	// partition per (Algorithm, K, T), in its epoch's row numbering,
	// populated and consumed by warm runs (see Spec.Warm and warm.go).
	warmMu sync.Mutex
	warm   map[warmKey]warmEntry
}

// engineState is one immutable table epoch: Run snapshots it, Append and
// Delete swap in a successor, and in-flight runs keep working on the
// snapshot they took.
type engineState struct {
	epoch int
	table *dataset.Table
	prep  *tclose.Prepared
	// remaps holds, oldest first, the row-id map of every deletion epoch
	// from epoch remapFrom on: all a warm seed cached at or after
	// remapFrom needs to reach this epoch's numbering. Append epochs keep
	// row ids stable and add none. Append and Delete keep only the maps
	// the oldest cached seed can replay, so their number tracks the warm
	// cache, not the history of churn.
	remapFrom int
	remaps    []remap
}

// remap is one deletion epoch's row-id transition: oldToNew maps the ids
// of epoch to those of epoch+1, with -1 marking tombstoned rows.
type remap struct {
	epoch    int
	oldToNew []int
}

// Progress is one coarse-grained progress event of an engine run; see
// WithProgress.
type Progress struct {
	// Algorithm is the algorithm of the reporting run.
	Algorithm Algorithm
	// Phase names the loop reporting: "partition" or "merge".
	Phase string
	// Done counts completed work units (records clustered, merges done).
	Done int
	// Total is the known total for the phase, 0 when unbounded.
	Total int
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithWorkers caps the goroutine fan-out of every parallel seam of this
// engine: the distance scans and spatial-index builds, and — since the
// partition loops were sharded — Algorithm 1's merge partner scans,
// Algorithm 2's per-cluster distance fills, Algorithm 3's per-subset draws
// and SABRE's per-bucket draws. Every seam
// reduces in a fixed order on the serial tie keys, so partitions and
// releases are bit-identical for any value (the worker-sweep and golden
// conformance tests pin this); set 1 to force fully serial execution.
// Values < 1 keep the process-wide default (GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *Engine) { e.tun.Workers = n }
}

// WithProgress installs a hook receiving coarse progress events from the
// partition and merge loops of the paper's three algorithms. The hook is
// called synchronously on the running goroutine — and, under concurrent
// runs, from several goroutines at once — so it must be fast and
// thread-safe.
func WithProgress(fn func(Progress)) Option {
	return func(e *Engine) { e.progress = fn }
}

// NewEngine prepares an engine over a private copy of the table: later
// mutations of the caller's table do not affect the engine, and ingest goes
// through Append. Preparation validates the schema and builds the shared
// substrate once.
func NewEngine(t *dataset.Table, opts ...Option) (*Engine, error) {
	if t == nil {
		return nil, errors.New("core: nil table")
	}
	return newEngine(t.Clone(), opts...)
}

// newEngine prepares an engine that owns t: Open hands it a table no one
// else holds, so it skips NewEngine's defensive copy.
func newEngine(t *dataset.Table, opts ...Option) (*Engine, error) {
	e := &Engine{}
	for _, opt := range opts {
		opt(e)
	}
	prep, err := tclose.Prepare(t)
	if err != nil {
		return nil, err
	}
	prep.Matrix().SetTuning(e.tun)
	prep.Matrix().EnableIndexCache()
	e.state = &engineState{table: t, prep: prep}
	return e, nil
}

// snapshot returns the current table epoch.
func (e *Engine) snapshot() *engineState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// Epoch returns the number of Append and Delete epochs committed so far.
func (e *Engine) Epoch() int { return e.snapshot().epoch }

// Len returns the current number of records.
func (e *Engine) Len() int { return e.snapshot().table.Len() }

// Table returns the engine's current table. It is shared with in-flight
// and future runs and must be treated as read-only; ingest new records via
// Append.
func (e *Engine) Table() *dataset.Table { return e.snapshot().table }

// Append ingests a batch of records as a new table epoch: each row takes
// the same values dataset.Table.AppendRow does (float64/int for numeric
// attributes, string for categorical ones). The substrate is extended
// incrementally — EMD spaces merge the new values into their prefix
// geometry, and the normalized matrix is renormalized only when an
// appended value widens a quasi-identifier's range — and subsequent runs
// are bit-identical to runs of a fresh engine over the concatenated table.
// In-flight runs keep the epoch they started on. On error nothing changes.
func (e *Engine) Append(rows ...[]any) error {
	if len(rows) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.state
	table := st.table.Clone()
	var prevDictLens []int
	if e.store != nil {
		prevDictLens = store.DictLens(table)
	}
	for _, r := range rows {
		if err := table.AppendRow(r...); err != nil {
			return err
		}
	}
	prep, err := st.prep.Extend(table)
	if err != nil {
		return err
	}
	if e.store != nil {
		// Persist before the swap: the epoch is durable by the time any run
		// can observe it, and a persistence failure leaves the engine (and
		// the store, which discards torn epochs on replay) unchanged.
		if err := store.AppendRows(e.store, e.storeName, table, st.table.Len(), prevDictLens); err != nil {
			return fmt.Errorf("core: persisting append epoch: %w", err)
		}
	}
	e.state = &engineState{epoch: st.epoch + 1, table: table, prep: prep}
	e.state.remapFrom, e.state.remaps = e.keptRemaps(st, nil)
	return nil
}

// keptRemaps returns the remaps the successor of st keeps and the epoch
// they start at: st's maps from the oldest cached warm seed a remap chain
// still reaches, plus next, the successor's own deletion map (nil for an
// append). With no such seed it keeps none and starts at the successor's
// epoch. It builds a new slice, since in-flight runs read st's.
func (e *Engine) keptRemaps(st *engineState, next *remap) (int, []remap) {
	from, ok := e.oldestSeed(st.remapFrom)
	if !ok {
		return st.epoch + 1, nil
	}
	var kept []remap
	for _, rm := range st.remaps {
		if rm.epoch >= from {
			kept = append(kept, rm)
		}
	}
	if next != nil {
		kept = append(kept, *next)
	}
	return from, kept
}

// Delete removes records by row id as a new table epoch — the tombstone
// half of a continuously updated feed. Row ids refer to the current epoch's
// numbering (duplicates are allowed); surviving rows are renumbered densely
// in order. Unlike Append, a deletion cannot shrink the EMD prefix
// geometry incrementally, so the substrate is rebuilt over the filtered
// table — which makes every subsequent cold run bit-identical to a fresh
// engine over that table by construction. Warm runs see the deletion
// through its row-id map, kept while a cached seed may replay it:
// tombstoned rows drop out of cached partitions and the clusters that lost
// them are repaired. In-flight runs keep the epoch they started on; on
// error nothing changes.
func (e *Engine) Delete(rowIDs ...int) error {
	if len(rowIDs) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.state
	n := st.table.Len()
	drop := make([]bool, n)
	for _, r := range rowIDs {
		if r < 0 || r >= n {
			return fmt.Errorf("core: delete row %d out of range [0,%d)", r, n)
		}
		drop[r] = true
	}
	oldToNew := make([]int, n)
	keep := make([]int, 0, n)
	for r := 0; r < n; r++ {
		if drop[r] {
			oldToNew[r] = -1
			continue
		}
		oldToNew[r] = len(keep)
		keep = append(keep, r)
	}
	if len(keep) == 0 {
		return errors.New("core: delete would remove every record")
	}
	table, err := st.table.Subset(keep)
	if err != nil {
		return err
	}
	prep, err := tclose.Prepare(table)
	if err != nil {
		return err
	}
	prep.Matrix().SetTuning(e.tun)
	prep.Matrix().EnableIndexCache()
	if e.store != nil {
		if err := e.store.DeleteEpoch(e.storeName, rowIDs); err != nil {
			return fmt.Errorf("core: persisting delete epoch: %w", err)
		}
	}
	e.state = &engineState{epoch: st.epoch + 1, table: table, prep: prep}
	e.state.remapFrom, e.state.remaps = e.keptRemaps(st, &remap{epoch: st.epoch, oldToNew: oldToNew})
	return nil
}

// orderedSpaces returns the prepared EMD spaces when every confidential
// attribute uses the ordered distance — the frame the generalization
// baselines' t checks are defined over — and nil otherwise (the baselines
// then build their own ordered spaces, preserving their pre-engine
// behavior for categorical confidentials, which the prepared substrate
// models with the nominal distance instead).
func (st *engineState) orderedSpaces() []*emd.Space {
	spaces := st.prep.Spaces()
	for _, s := range spaces {
		if s.Nominal() {
			return nil
		}
	}
	return spaces
}

// runOpts builds the per-run options handed to the prepared algorithms.
func (e *Engine) runOpts(ctx context.Context, alg Algorithm) tclose.Run {
	run := tclose.Run{Ctx: ctx}
	if e.progress != nil {
		fn := e.progress
		run.Progress = func(p tclose.Progress) {
			fn(Progress{Algorithm: alg, Phase: p.Phase, Done: p.Done, Total: p.Total})
		}
	}
	return run
}

// Run executes one anonymization against the engine's current table epoch
// and returns the release plus diagnostics. The context cancels the run
// between partition, merge and refinement steps (the run then returns
// ctx.Err()); cold results are bit-identical to a fresh engine's over the
// same records. Run is safe to call concurrently with other runs and with
// Append.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Result, error) {
	if err := ValidateSpec(spec); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st := e.snapshot()
	start := time.Now()
	var (
		clusters          []micro.Cluster
		maxEMD            float64
		merges, swaps, ek int
		anonymized        *dataset.Table
		warmStats         *WarmStats
		err               error
	)
	if res, ws, ok, werr := e.tryWarm(ctx, st, spec); werr != nil {
		return nil, werr
	} else if ok {
		clusters, maxEMD, merges, swaps, ek = res.Clusters, res.MaxEMD, res.Merges, res.Swaps, res.EffectiveK
		warmStats = ws
	} else {
		clusters, maxEMD, merges, swaps, ek, anonymized, err = e.runCold(ctx, st, spec)
		if err != nil {
			return nil, err
		}
	}
	if spec.Warm && warmable(spec) {
		e.storeWarm(spec, st, clusters, ek)
	}
	switch {
	case anonymized != nil:
		// IncognitoBaseline already produced its generalized release.
	case spec.Algorithm == MondrianBaseline:
		anonymized, err = generalization.Aggregate(st.table, clusters)
	default:
		anonymized, err = micro.Aggregate(st.table, clusters)
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	sse, err := metrics.NormalizedSSE(st.table, anonymized)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Anonymized: anonymized,
		Clusters:   clusters,
		MaxEMD:     maxEMD,
		Sizes:      micro.Sizes(clusters),
		SSE:        sse,
		Merges:     merges,
		Swaps:      swaps,
		EffectiveK: ek,
		Warm:       warmStats,
		Elapsed:    elapsed,
		Epoch:      st.epoch,
	}
	if !spec.SkipAssessment {
		rep, err := assess(st.table, clusters)
		if err != nil {
			return nil, err
		}
		res.Privacy = rep
	}
	return res, nil
}

// runCold executes the cold partition path of Run — one full anonymization
// of the snapshot's table by the selected algorithm.
func (e *Engine) runCold(ctx context.Context, st *engineState, spec Spec) (
	clusters []micro.Cluster, maxEMD float64, merges, swaps, ek int,
	anonymized *dataset.Table, err error) {
	switch spec.Algorithm {
	case Merge:
		var res *tclose.Result
		if spec.Sharded {
			res, err = st.prep.Algorithm1Sharded(e.runOpts(ctx, spec.Algorithm), spec.K, spec.T)
		} else {
			res, err = st.prep.Algorithm1(e.runOpts(ctx, spec.Algorithm), spec.K, spec.T)
		}
		if err == nil {
			clusters, maxEMD, merges, ek = res.Clusters, res.MaxEMD, res.Merges, res.EffectiveK
		}
	case KAnonymityFirst:
		var res *tclose.Result
		if spec.Sharded {
			res, err = st.prep.Algorithm2Sharded(e.runOpts(ctx, spec.Algorithm), spec.K, spec.T)
		} else {
			res, err = st.prep.Algorithm2(e.runOpts(ctx, spec.Algorithm), spec.K, spec.T)
		}
		if err == nil {
			clusters, maxEMD, merges, swaps, ek = res.Clusters, res.MaxEMD, res.Merges, res.Swaps, res.EffectiveK
		}
	case TClosenessFirst:
		var res *tclose.Result
		res, err = st.prep.Algorithm3(e.runOpts(ctx, spec.Algorithm), spec.K, spec.T)
		if err == nil {
			clusters, maxEMD, ek = res.Clusters, res.MaxEMD, res.EffectiveK
		}
	case MondrianBaseline:
		clusters, err = generalization.MondrianTPrepared(ctx, st.table, spec.K, spec.T, st.orderedSpaces())
		if err == nil {
			maxEMD, err = privacy.TClosenessOf(st.table, clusters)
			ek = spec.K
		}
	case SABREBaseline:
		var res *sabre.Result
		res, err = sabre.AnonymizeCtx(ctx, st.table, st.prep.Matrix(), st.prep.ConfOrder(), spec.K, spec.T)
		if err == nil {
			clusters, maxEMD, ek = res.Clusters, res.MaxEMD, res.ECSize
		}
	case IncognitoBaseline:
		var res *generalization.GenResult
		res, err = generalization.IncognitoTPrepared(ctx, st.table, spec.K, spec.T, st.orderedSpaces())
		if err == nil {
			clusters, maxEMD, ek = res.Clusters, res.MaxEMD, spec.K
			anonymized, err = generalization.Recode(st.table, res.Levels)
		}
	default:
		err = fmt.Errorf("core: unknown algorithm %v", spec.Algorithm)
	}
	return clusters, maxEMD, merges, swaps, ek, anonymized, err
}
