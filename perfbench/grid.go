package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// gridPoints is the curator's grid, run in this order on one engine. It
// covers the paper's Figure 5 cells for all three algorithms: alg2 at
// (2, .13) takes the k=2 jump engine and at (5, .15) the generic swap path,
// and alg3 at (4, .13) maps to the same effective k' as (2, .13), so it is
// served from the engine's per-k' partition cache.
var gridPoints = []core.Spec{
	{Algorithm: core.Merge, K: 2, T: .05},
	{Algorithm: core.Merge, K: 2, T: .13},
	{Algorithm: core.Merge, K: 2, T: .25},
	{Algorithm: core.Merge, K: 5, T: .15},
	{Algorithm: core.KAnonymityFirst, K: 2, T: .13},
	{Algorithm: core.KAnonymityFirst, K: 5, T: .15},
	{Algorithm: core.TClosenessFirst, K: 2, T: .05},
	{Algorithm: core.TClosenessFirst, K: 2, T: .13},
	{Algorithm: core.TClosenessFirst, K: 2, T: .25},
	{Algorithm: core.TClosenessFirst, K: 5, T: .15},
	{Algorithm: core.TClosenessFirst, K: 4, T: .13},
}

// paperAlgs are the paper's Algorithms 1-3 in order.
var paperAlgs = []core.Algorithm{core.Merge, core.KAnonymityFirst, core.TClosenessFirst}

// cyclesPerPoint is how many epoch cycles follow each grid point.
const cyclesPerPoint = 3

// setupReps is how many times the grid sets up before its first release,
// and setupsPerPoint how many more times it sets up after each grid point;
// setup_s is the median of all of them. The later set-ups spread the
// samples over the whole run, so they see the same host as the releases do.
const (
	setupReps      = 5
	setupsPerPoint = 4
)

// releaseGrid is the release-grid workload: one closed-loop client on the
// full-size patient table. Set-up reads the generated CSV and prepares the
// engine; the measured phase is one pass over gridPoints (about half a
// minute, whatever -seconds says, so that each run measures the same
// work), with cycles of in-memory epochs on a second engine in between.
func releaseGrid(r *run) error {
	n, points := synth.PatientDischargeSize, gridPoints
	if r.cfg.tiny {
		n, points = 400, gridPoints[len(gridPoints)-4:]
	}
	var csv bytes.Buffer
	if err := synth.PatientDischarge(n, r.cfg.seed).WriteCSV(&csv); err != nil {
		return err
	}
	late := synth.PatientDischarge(len(points)*cyclesPerPoint*102, r.cfg.seed+1)

	var setups, reads, engines []float64
	var setupRT rtCounters // what the set-ups allocate and spend, kept out of the runtime.* metrics
	setup := func() (*core.Engine, error) {
		runtime.GC()
		c0 := readRuntime()
		t0 := time.Now()
		tbl, err := dataset.ReadCSV(bytes.NewReader(csv.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("reading generated CSV: %w", err)
		}
		t1 := time.Now()
		eng, err := core.NewEngine(tbl)
		if err != nil {
			return nil, fmt.Errorf("preparing engine: %w", err)
		}
		t2 := time.Now()
		setupRT = setupRT.add(readRuntime().sub(c0))
		setups = append(setups, t2.Sub(t0).Seconds())
		reads = append(reads, ms(t1.Sub(t0)))
		engines = append(engines, ms(t2.Sub(t1)))
		return eng, nil
	}
	var eng *core.Engine
	for i := 0; i < setupReps; i++ {
		eng = nil
		var err error
		if eng, err = setup(); err != nil {
			return err
		}
	}
	early := median(setups)

	// Corrections go to a second engine over the same table, a few cycles
	// after each grid point: the grid engine keeps its per-k and per-k'
	// partition caches, and the epoch samples spread over the whole pass
	// instead of one burst.
	tbl, err := dataset.ReadCSV(bytes.NewReader(csv.Bytes()))
	if err != nil {
		return fmt.Errorf("reading generated CSV: %w", err)
	}
	corr, err := core.NewEngine(tbl)
	if err != nil {
		return fmt.Errorf("preparing engine: %w", err)
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	setupRT = rtCounters{}
	before := readRuntime()
	var (
		rs   releases
		es   epochs
		next int
	)
	for _, spec := range points {
		r.release(eng, spec, &rs)
		for c := 0; c < cyclesPerPoint; c++ {
			next = r.epochCycle(corr, nil, rng, late, next, &es)
		}
		for i := 0; i < setupsPerPoint; i++ {
			if _, err := setup(); err != nil {
				return err
			}
		}
	}
	after := readRuntime().sub(setupRT)
	heap := liveHeapMB()
	runtime.KeepAlive(eng)
	runtime.KeepAlive(corr)

	r.metric("setup_s", median(setups), fmt.Sprintf("median of %d: ReadCSV + NewEngine; of the first %d, %.4f", len(setups), setupReps, early))
	relTail := tailOf(rs.ms)
	r.metric("release_geomean_ms", geomean(rs.ms), fmt.Sprintf("n=%d cold releases; p50 %.1f, mean %.1f", len(rs.ms), median(rs.ms), mean(rs.ms)))
	r.metric("append_p50_ms", median(es.appendMS), fmt.Sprintf("n=%d in-memory appends", len(es.appendMS)))
	r.metric("sse", mean(rs.sse), fmt.Sprintf("mean of %d releases", len(rs.sse)))
	r.metric("live_heap_mb", heap, "after forced GC, engine live")
	for i, alg := range paperAlgs {
		r.note(fmt.Sprintf("alg%d_grid_s", i+1), sum(rs.byAlg[alg])/1e3, "s", fmt.Sprintf("sum of %d verified releases", len(rs.byAlg[alg])))
	}

	r.layerMetric("dataset.read_csv_ms", median(reads), "median of set-ups")
	r.layerMetric("core.new_engine_ms", median(engines), "median of set-ups")
	for i, alg := range paperAlgs {
		r.layerMetric(fmt.Sprintf("core.grid_s.alg%d", i+1), sum(rs.byAlg[alg])/1e3, "")
	}
	r.epochStats(&es)
	r.layerMetric("core.release_tail_ms", relTail.value, relTail.String())
	r.runtimeMetrics(before, after, len(rs.ms)+len(es.all))
	if r.tr.on {
		r.releaseLayers()
		r.epochLayers()
		r.layerMetric("trace.spans", float64(len(r.tr.spans)), "")
	}
	return nil
}
