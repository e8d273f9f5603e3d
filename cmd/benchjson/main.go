// Command benchjson measures the BenchmarkFigure5 grid — the run time of
// the three algorithms on the Patient Discharge data set at k=2 — and emits
// the per-cell timings as JSON, giving the repository a machine-readable
// performance trajectory across PRs (BENCH_1.json, BENCH_2.json, ...).
//
// Alongside the classic from-scratch grid it measures the delta-append
// family: the cost of re-anonymizing after a 1% append, cold (variant
// "delta-cold": a fresh engine over the appended table) versus warm
// (variant "delta-warm": a warm-seeded engine repairing its previous
// partition, see core.Spec.Warm). The pair documents the warm-start
// speedup as part of the same evidence trajectory.
//
// The sharded family (variants "sharded-w1" ... "sharded-w8") times
// KAnonymityFirst under sharded partition construction (core.Spec.Sharded)
// at worker budgets 1/2/4/8, recording the scaling curve of concurrent
// cluster construction. The curve falls even on a single-core host — the
// cluster loop is superlinear in pool size, so W shards of n/W rows cost
// less in total than one n-row pool (divide-and-conquer), on top of
// whatever true parallelism the cores provide; w1 delegates to the serial
// algorithm and documents the mode's overhead floor.
//
// With -full, the size-sweep family (variant "size-sweep") times Merge and
// TClosenessFirst at (5, .15) on 23,435, 46,870 and 93,740 rows, the
// evidence for how the cluster loops scale with the table.
//
// Each measured run goes through a freshly prepared core.Engine whose
// substrate preparation happens outside the timed region: a cell times the
// algorithm itself, with cold partition caches, so the trajectory stays
// comparable across PRs (a shared engine would let the per-k partition
// caches absorb most of the later cells). Cells are measured sequentially
// (concurrency would contend for cores and corrupt the timings); each cell
// is run -reps times and the minimum wall time is reported, the standard
// way to suppress scheduler noise.
//
// Usage:
//
//	benchjson                      # n=1500 grid to stdout
//	benchjson -o BENCH_1.json      # write the evidence file
//	benchjson -n 23435 -reps 1     # full-size Patient Discharge only
//	benchjson -full -o BENCH_2.json  # n=1500 AND full-size cells
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/synth"
)

// Cell is one measured grid point. N is the sample size the cell was
// measured at (reports written before the -full flag existed omit it; it
// then defaults to the report-level N). The algorithm serializes as its
// canonical name via core.Algorithm's encoding.TextMarshaler. Variant is
// empty for the classic from-scratch grid; the delta-append family labels
// its cells "delta-cold" and "delta-warm", the sharded family
// "sharded-w<workers>", the size sweep "size-sweep" (reports written
// before a family existed simply have no cells with its variants).
type Cell struct {
	Algorithm core.Algorithm `json:"algorithm"`
	K         int            `json:"k"`
	T         float64        `json:"t"`
	N         int            `json:"n,omitempty"`
	Variant   string         `json:"variant,omitempty"`
	NsOp      int64          `json:"ns_op"`
	Seconds   float64        `json:"seconds"`
}

// Report is the emitted document.
type Report struct {
	Benchmark string `json:"benchmark"`
	Dataset   string `json:"dataset"`
	N         int    `json:"n"`
	Seed      int64  `json:"seed"`
	Reps      int    `json:"reps"`
	GoVersion string `json:"go_version"`
	Note      string `json:"note,omitempty"`
	Cells     []Cell `json:"cells"`
}

func main() {
	n := flag.Int("n", 1500, "Patient Discharge sample size (1500 matches BenchmarkFigure5)")
	full := flag.Bool("full", false,
		fmt.Sprintf("additionally measure the full-size n=%d grid", synth.PatientDischargeSize))
	reps := flag.Int("reps", 3, "runs per cell; the minimum is reported")
	out := flag.String("o", "", "output file (default stdout)")
	note := flag.String("note", "", "free-form note recorded in the report (e.g. baseline comparison)")
	flag.Parse()
	if *reps < 1 {
		*reps = 1
	}

	sizes := []int{*n}
	if *full && *n != synth.PatientDischargeSize {
		sizes = append(sizes, synth.PatientDischargeSize)
	}
	algs := []core.Algorithm{core.Merge, core.KAnonymityFirst, core.TClosenessFirst}
	ts := []float64{0.05, 0.13, 0.25} // the BenchmarkFigure5 subsample of the paper's t range
	rep := Report{
		Benchmark: "BenchmarkFigure5",
		Dataset:   "PatientDischarge",
		N:         *n,
		Seed:      synth.DefaultSeed,
		Reps:      *reps,
		GoVersion: runtime.Version(),
		Note:      *note,
	}
	ctx := context.Background()
	for _, size := range sizes {
		tbl := synth.PatientDischarge(size, synth.DefaultSeed)
		for _, alg := range algs {
			for _, tl := range ts {
				best, err := bestRun(ctx, tbl, core.Spec{
					Algorithm: alg, K: 2, T: tl, SkipAssessment: true,
				}, *reps)
				if err != nil {
					log.Fatalf("%v n=%d t=%v: %v", alg, size, tl, err)
				}
				rep.Cells = append(rep.Cells, Cell{
					Algorithm: alg,
					K:         2,
					T:         tl,
					N:         size,
					NsOp:      best.Nanoseconds(),
					Seconds:   best.Seconds(),
				})
				fmt.Fprintf(os.Stderr, "%v n=%d t=%.2f: %v\n", alg, size, tl, best.Round(time.Microsecond))
			}
		}
	}
	// Delta-append family: re-anonymization cost after a 1% append, at the
	// grid's middle t. Each rep is measured on a fresh engine so warm cells
	// always time the epoch-0 -> epoch-1 repair (a second warm run on the
	// same engine would hit the already-advanced seed and measure nothing).
	const deltaT = 0.13
	for _, size := range sizes {
		delta := size / 100
		if delta < 1 {
			delta = 1
		}
		tbl := synth.PatientDischarge(size, synth.DefaultSeed)
		prefix := make([]int, size-delta)
		for i := range prefix {
			prefix[i] = i
		}
		baseTbl, err := tbl.Subset(prefix)
		if err != nil {
			log.Fatalf("n=%d: %v", size, err)
		}
		tail := make([][]any, 0, delta)
		for r := size - delta; r < size; r++ {
			row := make([]any, tbl.Width())
			for c := 0; c < tbl.Width(); c++ {
				row[c] = tbl.Value(r, c)
			}
			tail = append(tail, row)
		}
		for _, alg := range algs {
			for _, variant := range []string{"delta-cold", "delta-warm"} {
				warm := variant == "delta-warm"
				spec := core.Spec{Algorithm: alg, K: 2, T: deltaT, SkipAssessment: true, Warm: warm}
				best := time.Duration(0)
				for r := 0; r < *reps; r++ {
					eng, err := core.NewEngine(baseTbl)
					if err != nil {
						log.Fatalf("n=%d: %v", size, err)
					}
					if warm {
						// Seed run over the 99% base, outside the timed region.
						if _, err := eng.Run(ctx, spec); err != nil {
							log.Fatalf("%v n=%d %s seed: %v", alg, size, variant, err)
						}
					}
					if err := eng.Append(tail...); err != nil {
						log.Fatalf("n=%d append: %v", size, err)
					}
					start := time.Now()
					if _, err := eng.Run(ctx, spec); err != nil {
						log.Fatalf("%v n=%d %s: %v", alg, size, variant, err)
					}
					if d := time.Since(start); best == 0 || d < best {
						best = d
					}
				}
				rep.Cells = append(rep.Cells, Cell{
					Algorithm: alg,
					K:         2,
					T:         deltaT,
					N:         size,
					Variant:   variant,
					NsOp:      best.Nanoseconds(),
					Seconds:   best.Seconds(),
				})
				fmt.Fprintf(os.Stderr, "%v n=%d t=%.2f %s: %v\n", alg, size, deltaT, variant, best.Round(time.Microsecond))
			}
		}
	}
	// Sharded family: concurrent cluster construction at a sweep of worker
	// budgets, at the grid's middle t. Each rep gets a fresh engine (cold
	// caches, same discipline as every other family); the worker budget is
	// engine-scoped, so each budget is its own engine configuration.
	const shardedT = 0.13
	for _, size := range sizes {
		tbl := synth.PatientDischarge(size, synth.DefaultSeed)
		for _, w := range []int{1, 2, 4, 8} {
			spec := core.Spec{Algorithm: core.KAnonymityFirst, K: 2, T: shardedT,
				SkipAssessment: true, Sharded: true}
			best, err := bestRun(ctx, tbl, spec, *reps, core.WithWorkers(w))
			if err != nil {
				log.Fatalf("%v n=%d sharded w=%d: %v", spec.Algorithm, size, w, err)
			}
			variant := fmt.Sprintf("sharded-w%d", w)
			rep.Cells = append(rep.Cells, Cell{
				Algorithm: spec.Algorithm,
				K:         2,
				T:         shardedT,
				N:         size,
				Variant:   variant,
				NsOp:      best.Nanoseconds(),
				Seconds:   best.Seconds(),
			})
			fmt.Fprintf(os.Stderr, "%v n=%d t=%.2f %s: %v\n",
				spec.Algorithm, size, shardedT, variant, best.Round(time.Microsecond))
		}
	}
	// Size-sweep family (-full only, variant "size-sweep"): cold Merge and
	// TClosenessFirst at (5, .15) on one, two and four times the full
	// Patient Discharge size, recording how the cluster loops scale with n.
	// The exponent between two sizes is log(t2/t1)/log(n2/n1); no gate
	// reads these cells.
	if *full {
		const sweepK, sweepT = 5, 0.15
		for _, mult := range []int{1, 2, 4} {
			size := mult * synth.PatientDischargeSize
			tbl := synth.PatientDischarge(size, synth.DefaultSeed)
			for _, alg := range []core.Algorithm{core.Merge, core.TClosenessFirst} {
				spec := core.Spec{Algorithm: alg, K: sweepK, T: sweepT, SkipAssessment: true}
				best, err := bestRun(ctx, tbl, spec, *reps)
				if err != nil {
					log.Fatalf("%v n=%d size-sweep: %v", alg, size, err)
				}
				rep.Cells = append(rep.Cells, Cell{
					Algorithm: alg,
					K:         sweepK,
					T:         sweepT,
					N:         size,
					Variant:   "size-sweep",
					NsOp:      best.Nanoseconds(),
					Seconds:   best.Seconds(),
				})
				fmt.Fprintf(os.Stderr, "%v n=%d k=%d t=%.2f size-sweep: %v\n",
					alg, size, sweepK, sweepT, best.Round(time.Microsecond))
			}
		}
	}
	// Store family (-full only): the storage layer's two headline costs on a
	// million-row Patient Discharge table — streaming CSV ingest into the
	// embedded columnar store under the default memory budget ("ingest-1M"),
	// reloading the committed file into a table without re-decoding CSV
	// ("reopen-1M", store.Load), and the engine open over it
	// ("open-stream-1M" wall time plus "open-stream-1M-peak" sampled peak
	// heap, core.Open; the cell names predate the single open path and are
	// kept so the trajectory continues). The CSV is written once
	// outside the timed region; each ingest rep streams it into a fresh
	// backend directory, and each reopen/open rep goes through a fresh
	// backend over the last ingested file so no in-process cache flatters
	// the number.
	if *full {
		const storeRows = 1_000_000
		storeCells, err := measureStore(storeRows, *reps)
		if err != nil {
			log.Fatalf("store family: %v", err)
		}
		rep.Cells = append(rep.Cells, storeCells...)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
}

// bestRun runs spec reps times, each on a fresh engine over tbl (cold
// partition caches, substrate preparation outside the timed region), and
// returns the fastest wall time.
func bestRun(ctx context.Context, tbl *dataset.Table, spec core.Spec, reps int, opts ...core.Option) (time.Duration, error) {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		eng, err := core.NewEngine(tbl, opts...)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := eng.Run(ctx, spec); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// measureStore times the ingest-1M, reopen-1M and open-stream-1M cells.
// The cells carry the grid's canonical (algorithm, k, t) point purely as
// a stable cell key — no anonymization runs; only the store is timed.
// The open-stream-1M-peak cell abuses the schema on purpose: ns_op holds
// the sampled peak heap in bytes (seconds mirrors it in MiB), recording
// the open's memory contract — peak tracks the table plus substrate,
// never a second full copy of the raw table — in the same evidence
// trajectory as the timings.
func measureStore(rows, reps int) ([]Cell, error) {
	scratch, err := os.MkdirTemp("", "benchjson-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	csvPath := filepath.Join(scratch, "patients.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := synth.PatientDischarge(rows, synth.DefaultSeed).WriteCSV(w); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	var lastDir string
	bestIngest := time.Duration(0)
	for r := 0; r < reps; r++ {
		dir := filepath.Join(scratch, fmt.Sprintf("ingest-%d", r))
		b, err := store.NewFileBackend(dir)
		if err != nil {
			return nil, err
		}
		src, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := store.IngestCSV(b, "patients", bufio.NewReaderSize(src, 1<<20), store.DefaultIngestBudget); err != nil {
			return nil, err
		}
		d := time.Since(start)
		src.Close()
		b.Close()
		if bestIngest == 0 || d < bestIngest {
			bestIngest = d
		}
		lastDir = dir
	}

	bestReopen := time.Duration(0)
	for r := 0; r < reps; r++ {
		b, err := store.NewFileBackend(lastDir)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tbl, _, err := store.Load(b, "patients")
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		if tbl.Len() != rows {
			return nil, fmt.Errorf("reopen materialized %d rows, want %d", tbl.Len(), rows)
		}
		b.Close()
		if bestReopen == 0 || d < bestReopen {
			bestReopen = d
		}
	}

	// Engine open over the same committed file: wall time plus
	// sampled peak heap. GOGC is pinned low so the sampler reads live bytes
	// rather than collector headroom; the minimum peak across reps is
	// reported (GC scheduling noise only ever inflates a sample).
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	bestStream := time.Duration(0)
	var peakBytes uint64
	for r := 0; r < reps; r++ {
		b, err := store.NewFileBackend(lastDir)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		var peak atomic.Uint64
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			var ms runtime.MemStats
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peak.Load() {
						peak.Store(ms.HeapAlloc)
					}
				}
			}
		}()
		start := time.Now()
		eng, err := core.Open(b, "patients")
		d := time.Since(start)
		close(stop)
		<-done
		if err != nil {
			return nil, err
		}
		if eng.Len() != rows {
			return nil, fmt.Errorf("open built %d rows, want %d", eng.Len(), rows)
		}
		b.Close()
		if bestStream == 0 || d < bestStream {
			bestStream = d
		}
		if p := peak.Load(); peakBytes == 0 || p < peakBytes {
			peakBytes = p
		}
	}

	cells := make([]Cell, 0, 4)
	for _, c := range []struct {
		variant string
		best    time.Duration
	}{{"ingest-1M", bestIngest}, {"reopen-1M", bestReopen}, {"open-stream-1M", bestStream}} {
		cells = append(cells, Cell{
			Algorithm: core.Merge, K: 2, T: 0.13, N: rows,
			Variant: c.variant, NsOp: c.best.Nanoseconds(), Seconds: c.best.Seconds(),
		})
		fmt.Fprintf(os.Stderr, "store n=%d %s: %v\n", rows, c.variant, c.best.Round(time.Microsecond))
	}
	cells = append(cells, Cell{
		Algorithm: core.Merge, K: 2, T: 0.13, N: rows,
		Variant: "open-stream-1M-peak",
		NsOp:    int64(peakBytes), Seconds: float64(peakBytes) / (1 << 20),
	})
	fmt.Fprintf(os.Stderr, "store n=%d open-stream-1M-peak: %d MiB\n", rows, peakBytes>>20)
	return cells, nil
}
