package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/synth"
)

// feedPoints are the two warm release points the feed alternates between.
var feedPoints = []core.Spec{
	{Algorithm: core.TClosenessFirst, K: 5, T: .15, Warm: true},
	{Algorithm: core.KAnonymityFirst, K: 5, T: .15, Warm: true},
}

const feedName = "patients"

// fullSetupReps is how many times the feed and the service set up; each set-up
// includes the seed releases, which take seconds, so they repeat fewer times
// than the grid's.
const fullSetupReps = 3

// feedCyclesPerSecond sizes the measured phase from -seconds: a cycle takes
// about 0.36 s on a two-core host. The count, not a deadline, ends the
// phase, so every run of a given length does the same work — the warm
// release cost drifts as repairs coarsen the partition, and the engine's
// epoch log grows with every epoch.
const feedCyclesPerSecond = 2.5

// epochFeed is the epoch-feed workload: one closed-loop client feeding a
// durable file store. Set-up ingests the generated CSV into a fresh store
// and opens an engine over it, then makes the first warm-requested release
// at each feed point (they fall back to cold and seed the warm cache; they
// are checked after the set-up window closes). The
// measured phase repeats epoch cycles, each followed by a warm re-release
// alternating between the points. At the end the dataset is
// reopened from the store as a restarted process would.
func epochFeed(r *run) error {
	n := synth.PatientDischargeSize
	if r.cfg.tiny {
		n = 400
	}
	var csv bytes.Buffer
	if err := synth.PatientDischarge(n, r.cfg.seed).WriteCSV(&csv); err != nil {
		return err
	}
	cycles := max(1, int(feedCyclesPerSecond*r.cfg.seconds+0.5))
	late := synth.PatientDischarge(cycles*102, r.cfg.seed+1)

	// Set-up, fullSetupReps times, each into a fresh store: ingest, open,
	// and the seed releases. The last engine is the one measured.
	var (
		eng                          *core.Engine
		tb                           *timedBackend
		dir                          string
		setups, ingest, opens, seeds []float64
	)
	for i := 0; i < fullSetupReps; i++ {
		eng, tb = nil, nil
		dir = filepath.Join(r.cfg.dir, fmt.Sprintf("store%d", i))
		runtime.GC()
		t0 := time.Now()
		fb, err := store.NewFileBackend(dir)
		if err != nil {
			return err
		}
		if _, err := store.IngestCSV(fb, feedName, bytes.NewReader(csv.Bytes()), 0); err != nil {
			return fmt.Errorf("ingesting generated CSV: %w", err)
		}
		t1 := time.Now()
		tb = &timedBackend{Backend: fb, dir: dir}
		eng, err = core.Open(tb, feedName)
		if err != nil {
			return fmt.Errorf("opening ingested dataset: %w", err)
		}
		t2 := time.Now()
		var seed []made
		for _, spec := range feedPoints {
			seed = append(seed, r.runRelease(eng, spec))
		}
		t3 := time.Now()
		for _, m := range seed {
			r.finish(m, nil)
		}
		setups = append(setups, t3.Sub(t0).Seconds())
		ingest = append(ingest, ms(t1.Sub(t0)))
		opens = append(opens, ms(t2.Sub(t1)))
		seeds = append(seeds, ms(t3.Sub(t2)))
	}

	rng := rand.New(rand.NewSource(r.cfg.seed))
	var (
		rs   releases
		es   epochs
		next int
	)
	before := readRuntime()
	for c := 0; c < cycles; c++ {
		next = r.epochCycle(eng, tb, rng, late, next, &es)
		r.release(eng, feedPoints[c%len(feedPoints)], &rs)
	}
	after := readRuntime()
	heap := liveHeapMB()

	// Restart: reopen the churned dataset on fresh backends over the same
	// directory, and replay its history with a no-op handler: the store's
	// share of a restart.
	var restarts, streams []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		fb, err := store.NewFileBackend(dir)
		if err != nil {
			return err
		}
		re, err := core.Open(fb, feedName)
		t1 := time.Now()
		if err == nil {
			err = sameState(re, eng)
		}
		r.op("restart", err)
		if err != nil {
			continue
		}
		restarts = append(restarts, t1.Sub(t0).Seconds())

		runtime.GC()
		fb, err = store.NewFileBackend(dir)
		if err != nil {
			return err
		}
		t2 := time.Now()
		_, err = fb.Stream(feedName, store.StreamHandler{})
		t3 := time.Now()
		r.op("stream", err)
		streams = append(streams, ms(t3.Sub(t2)))
	}
	bytesPerRow := float64(tb.fileBytes()) / float64(eng.Len())
	runtime.KeepAlive(eng)

	r.metric("setup_s", median(setups), fmt.Sprintf(
		"median of %d: ingest + open + %d seed releases", fullSetupReps, len(feedPoints)))
	relTail := tailOf(rs.ms)
	r.metric("release_geomean_ms", geomean(rs.ms), fmt.Sprintf("n=%d warm releases; p50 %.2f, mean %.2f", len(rs.ms), median(rs.ms), mean(rs.ms)))
	r.metric("append_p50_ms", median(es.appendMS), fmt.Sprintf("n=%d durable appends", len(es.appendMS)))
	r.metric("sse", mean(rs.sse), fmt.Sprintf("mean of %d warm releases", len(rs.sse)))
	r.metric("live_heap_mb", heap, "after forced GC, engine live")
	r.note("restart_s", median(restarts), "s", fmt.Sprintf("median of %d core.Open after %d epochs", len(restarts), eng.Epoch()))
	r.note("store_bytes_per_row", bytesPerRow, "B/row", fmt.Sprintf("%d live rows", eng.Len()))

	r.layerMetric("store.ingest_ms", median(ingest), "median of set-ups")
	r.layerMetric("core.open_ms", median(opens), "median of set-ups")
	r.layerMetric("core.seed_release_ms", median(seeds), fmt.Sprintf("median over set-ups of %d cold-fallback releases", len(feedPoints)))
	r.layerMetric("core.warm_hit_ratio", float64(rs.warmHit)/float64(max(rs.warmReq, 1)),
		fmt.Sprintf("%d warm-seeded of %d warm-requested", rs.warmHit, rs.warmReq))
	r.layerMetric("core.warm_requests", float64(rs.warmReq), "base of core.warm_hit_ratio")
	r.epochStats(&es)
	r.layerMetric("store.bytes_per_epoch", mean(es.fileGrowth), fmt.Sprintf("mean file growth over %d epochs", len(es.fileGrowth)))
	r.layerMetric("store.bytes_per_row", bytesPerRow, "")
	r.layerMetric("store.stream_ms", median(streams), "median; Backend.Stream with a no-op handler")
	r.layerMetric("core.restart_s", median(restarts), fmt.Sprintf("median of %d", len(restarts)))
	r.layerMetric("core.release_tail_ms", relTail.value, relTail.String())
	r.runtimeMetrics(before, after, len(rs.ms)+len(es.all))
	if r.tr.on {
		r.releaseLayers()
		r.epochLayers()
		r.layerMetric("trace.spans", float64(len(r.tr.spans)), "")
	}
	return nil
}

// sameState checks that a reopened engine serves exactly the live one's
// table at the same epoch.
func sameState(got, want *core.Engine) error {
	if got.Epoch() != want.Epoch() {
		return fmt.Errorf("reopened at epoch %d, live engine at %d", got.Epoch(), want.Epoch())
	}
	if g, w := store.TableHash(got.Table()), store.TableHash(want.Table()); g != w {
		return fmt.Errorf("reopened table hash %s, live %s", g, w)
	}
	return nil
}
