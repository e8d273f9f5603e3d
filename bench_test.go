// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 8), plus the baseline, linkage-risk and release-style
// comparisons and substrate micro-benchmarks.
//
// Each paper artifact has one Benchmark* family:
//
//	BenchmarkTable1/2/3  — actual cluster sizes per algorithm (min/avg are
//	                       attached as custom metrics per (dataset,k,t) cell)
//	BenchmarkFigure5     — run time vs t (the benchmark time is the metric)
//	BenchmarkFigure6     — SSE vs t per data set (SSE as custom metric)
//	BenchmarkFigure7     — SSE over the (k,t) grid on MCD
//
// The sub-benchmark grids are representative subsets of the paper's full
// grids so `go test -bench=.` finishes in minutes; cmd/benchtables and
// cmd/benchfigs run the complete grids.
//
// Every iteration runs on a fresh engine (runFresh), so ns/op times one
// cold run including its substrate build. A reused engine would time cache
// hits: it caches MDAV per k and Algorithm 3 per effective cluster size.
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/emd"
	"repro/internal/metrics"
	"repro/internal/micro"
	"repro/internal/synth"
)

// benchKs and benchTs subsample the paper's k ∈ {2..30} × t ∈ {0.01..0.25}
// grid.
var (
	benchKs = []int{2, 10, 30}
	benchTs = []float64{0.05, 0.13, 0.25}
)

func benchCell(b *testing.B, tbl *repro.Table, alg repro.Algorithm, k int, tl float64) {
	b.Helper()
	var sizesMin, sizesAvg float64
	for i := 0; i < b.N; i++ {
		res, err := runFresh(tbl, repro.Spec{
			Algorithm: alg, K: k, T: tl, SkipAssessment: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		sizesMin = float64(res.Sizes.Min)
		sizesAvg = res.Sizes.Avg
	}
	b.ReportMetric(sizesMin, "minsize")
	b.ReportMetric(sizesAvg, "avgsize")
}

// benchTable runs one of Tables 1-3: cluster sizes over (dataset, k, t).
func benchTable(b *testing.B, alg repro.Algorithm) {
	sets := []struct {
		name string
		tbl  *repro.Table
	}{
		{"MCD", repro.CensusMCD()},
		{"HCD", repro.CensusHCD()},
	}
	for _, ds := range sets {
		for _, k := range benchKs {
			for _, tl := range benchTs {
				name := fmt.Sprintf("%s/k=%d/t=%.2f", ds.name, k, tl)
				b.Run(name, func(b *testing.B) {
					benchCell(b, ds.tbl, alg, k, tl)
				})
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1: Algorithm 1 (microaggregation +
// merging) actual cluster sizes.
func BenchmarkTable1(b *testing.B) { benchTable(b, repro.Merge) }

// BenchmarkTable2 regenerates Table 2: Algorithm 2 (k-anonymity-first)
// actual cluster sizes.
func BenchmarkTable2(b *testing.B) { benchTable(b, repro.KAnonymityFirst) }

// BenchmarkTable3 regenerates Table 3: Algorithm 3 (t-closeness-first)
// actual cluster sizes.
func BenchmarkTable3(b *testing.B) { benchTable(b, repro.TClosenessFirst) }

// figure5N is the Patient Discharge sample size for the run-time figure.
// The paper uses 23,435 records; Algorithm 2's O(n³/k) refinement makes that
// impractical inside `go test -bench=.` (use cmd/benchfigs -n 23435 for the
// full-size run). The run-time ordering and trends are already clear at this
// size.
const figure5N = 1500

// BenchmarkFigure5 regenerates Figure 5: run time of the three algorithms
// on the Patient Discharge data set, k=2. The ns/op of each sub-benchmark is
// the figure's Y value.
func BenchmarkFigure5(b *testing.B) {
	tbl := repro.PatientDischarge(figure5N, 20160314)
	algs := []repro.Algorithm{repro.Merge, repro.KAnonymityFirst, repro.TClosenessFirst}
	for _, alg := range algs {
		for _, tl := range benchTs {
			b.Run(fmt.Sprintf("%v/t=%.2f", alg, tl), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := runFresh(tbl, repro.Spec{
						Algorithm: alg, K: 2, T: tl, SkipAssessment: true,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: normalized SSE vs t at k=2 for the
// HCD, MCD and Patient Discharge data sets. SSE is attached as a custom
// metric ("sse/1e6" scaled to be visible next to ns/op).
func BenchmarkFigure6(b *testing.B) {
	sets := []struct {
		name string
		tbl  *repro.Table
	}{
		{"HCD", repro.CensusHCD()},
		{"MCD", repro.CensusMCD()},
		{"PD", repro.PatientDischarge(figure5N, 20160314)},
	}
	algs := []repro.Algorithm{repro.Merge, repro.KAnonymityFirst, repro.TClosenessFirst}
	for _, ds := range sets {
		for _, alg := range algs {
			for _, tl := range benchTs {
				b.Run(fmt.Sprintf("%s/%v/t=%.2f", ds.name, alg, tl), func(b *testing.B) {
					var sse float64
					for i := 0; i < b.N; i++ {
						res, err := runFresh(ds.tbl, repro.Spec{
							Algorithm: alg, K: 2, T: tl, SkipAssessment: true,
						})
						if err != nil {
							b.Fatal(err)
						}
						sse = res.SSE
					}
					b.ReportMetric(sse*1e6, "sse-ppm")
				})
			}
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7: the normalized SSE surface over
// (k, t) on the MCD data set, one sub-benchmark per algorithm and grid
// point.
func BenchmarkFigure7(b *testing.B) {
	tbl := repro.CensusMCD()
	algs := []repro.Algorithm{repro.Merge, repro.KAnonymityFirst, repro.TClosenessFirst}
	for _, alg := range algs {
		for _, k := range benchKs {
			for _, tl := range benchTs {
				b.Run(fmt.Sprintf("%v/k=%d/t=%.2f", alg, k, tl), func(b *testing.B) {
					var sse float64
					for i := 0; i < b.N; i++ {
						res, err := runFresh(tbl, repro.Spec{
							Algorithm: alg, K: k, T: tl, SkipAssessment: true,
						})
						if err != nil {
							b.Fatal(err)
						}
						sse = res.SSE
					}
					b.ReportMetric(sse*1e6, "sse-ppm")
				})
			}
		}
	}
}

// BenchmarkBaselineMondrian compares the generalization baseline
// (Mondrian-t) against the microaggregation algorithms on equal (k, t) —
// the paper's central claim is that microaggregation preserves more utility.
func BenchmarkBaselineMondrian(b *testing.B) {
	tbl := repro.CensusMCD()
	b.Run("mondrian-t", func(b *testing.B) {
		var sse float64
		for i := 0; i < b.N; i++ {
			res, err := runFresh(tbl, repro.Spec{
				Algorithm: repro.MondrianBaseline, K: 5, T: 0.17, SkipAssessment: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			sse = res.SSE
		}
		b.ReportMetric(sse*1e6, "sse-ppm")
	})
	b.Run("alg3", func(b *testing.B) {
		var sse float64
		for i := 0; i < b.N; i++ {
			res, err := runFresh(tbl, repro.Spec{
				Algorithm: repro.TClosenessFirst, K: 5, T: 0.17, SkipAssessment: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			sse = res.SSE
		}
		b.ReportMetric(sse*1e6, "sse-ppm")
	})
}

// --- Substrate micro-benchmarks ---

// BenchmarkMDAV measures the partition substrate alone.
func BenchmarkMDAV(b *testing.B) {
	tbl := repro.CensusMCD()
	points := tbl.QIMatrix()
	for _, k := range []int{2, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := micro.MDAV(points, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEMD measures one Earth Mover's Distance evaluation over the full
// Census value domain — the inner loop of Algorithms 1 and 2.
func BenchmarkEMD(b *testing.B) {
	tbl := synth.CensusMCD()
	p, err := runFresh(tbl, repro.Spec{Algorithm: repro.TClosenessFirst, K: 5, T: 0.25, SkipAssessment: true})
	if err != nil {
		b.Fatal(err)
	}
	rows := p.Clusters[0].Rows
	conf := tbl.Schema().Confidentials()[0]
	space, err := emd.NewSpace(tbl.ColumnView(conf))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = space.EMDOf(rows)
	}
}

// BenchmarkAblationReleaseStyle compares the centroid release (the paper's
// aggregation step) with the QI-preserving Anatomy-style permutation
// release on the same Algorithm 3 partition. The permutation release has
// zero quasi-identifier SSE by construction; the metric of interest is the
// QI↔confidential correlation distortion, reported as corr-e3 (measured
// correlation of the release, scaled by 1000 — original is ~520).
func BenchmarkAblationReleaseStyle(b *testing.B) {
	tbl := repro.CensusMCD()
	res, err := runFresh(tbl, repro.Spec{Algorithm: repro.TClosenessFirst, K: 5, T: 0.13, SkipAssessment: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("centroid", func(b *testing.B) {
		var sse, corr float64
		for i := 0; i < b.N; i++ {
			anon, err := micro.Aggregate(tbl, res.Clusters)
			if err != nil {
				b.Fatal(err)
			}
			s, err := metrics.NormalizedSSE(tbl, anon)
			if err != nil {
				b.Fatal(err)
			}
			c, err := anon.MaxQIConfidentialCorrelation()
			if err != nil {
				b.Fatal(err)
			}
			sse, corr = s, c
		}
		b.ReportMetric(sse*1e6, "sse-ppm")
		b.ReportMetric(corr*1e3, "corr-e3")
	})
	b.Run("anatomy", func(b *testing.B) {
		var sse, corr float64
		for i := 0; i < b.N; i++ {
			anon, err := micro.AnatomyRelease(tbl, res.Clusters, 1)
			if err != nil {
				b.Fatal(err)
			}
			s, err := metrics.NormalizedSSE(tbl, anon)
			if err != nil {
				b.Fatal(err)
			}
			c, err := anon.MaxQIConfidentialCorrelation()
			if err != nil {
				b.Fatal(err)
			}
			sse, corr = s, c
		}
		b.ReportMetric(sse*1e6, "sse-ppm")
		b.ReportMetric(corr*1e3, "corr-e3")
	})
}

// BenchmarkBaselineSABRE reproduces the paper's Section 3 comparison with
// SABRE: the greedy bucketization needs at least as large equivalence
// classes as Algorithm 3's analytic minimum, costing utility. Metrics:
// equivalence-class size and SSE.
func BenchmarkBaselineSABRE(b *testing.B) {
	tbl := repro.CensusMCD()
	for _, tl := range []float64{0.05, 0.13} {
		b.Run(fmt.Sprintf("sabre/t=%.2f", tl), func(b *testing.B) {
			var sse, ecs float64
			for i := 0; i < b.N; i++ {
				res, err := runFresh(tbl, repro.Spec{
					Algorithm: repro.SABREBaseline, K: 2, T: tl, SkipAssessment: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				sse, ecs = res.SSE, float64(res.EffectiveK)
			}
			b.ReportMetric(sse*1e6, "sse-ppm")
			b.ReportMetric(ecs, "ecsize")
		})
		b.Run(fmt.Sprintf("alg3/t=%.2f", tl), func(b *testing.B) {
			var sse, ecs float64
			for i := 0; i < b.N; i++ {
				res, err := runFresh(tbl, repro.Spec{
					Algorithm: repro.TClosenessFirst, K: 2, T: tl, SkipAssessment: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				sse, ecs = res.SSE, float64(res.EffectiveK)
			}
			b.ReportMetric(sse*1e6, "sse-ppm")
			b.ReportMetric(ecs, "ecsize")
		})
	}
}

// BenchmarkBaselineIncognito compares the classical full-domain
// generalization approach (Incognito-style lattice search with the
// t-closeness constraint) against Algorithm 3 — the paper's Section 4
// argument for microaggregation over generalization, quantified.
func BenchmarkBaselineIncognito(b *testing.B) {
	tbl := repro.CensusMCD()
	for _, alg := range []repro.Algorithm{repro.IncognitoBaseline, repro.TClosenessFirst} {
		b.Run(fmt.Sprintf("%v", alg), func(b *testing.B) {
			var sse float64
			for i := 0; i < b.N; i++ {
				res, err := runFresh(tbl, repro.Spec{
					Algorithm: alg, K: 5, T: 0.17, SkipAssessment: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				sse = res.SSE
			}
			b.ReportMetric(sse*1e6, "sse-ppm")
		})
	}
}

// BenchmarkLinkageRisk measures the record-linkage disclosure risk of each
// algorithm's release at equal (k, t) — the other axis of the SDC
// risk/utility trade-off (rate scaled by 1e4; the 1/k ceiling at k=5 is
// 2000).
func BenchmarkLinkageRisk(b *testing.B) {
	tbl := repro.CensusMCD()
	algs := []repro.Algorithm{repro.Merge, repro.TClosenessFirst, repro.MondrianBaseline}
	for _, alg := range algs {
		b.Run(fmt.Sprintf("%v", alg), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := runFresh(tbl, repro.Spec{
					Algorithm: alg, K: 5, T: 0.17, SkipAssessment: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				r, err := repro.LinkageRisk(tbl, res.Anonymized)
				if err != nil {
					b.Fatal(err)
				}
				rate = r
			}
			b.ReportMetric(rate*1e4, "linkage-e4")
		})
	}
}
