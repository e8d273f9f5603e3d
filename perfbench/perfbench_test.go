package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/micro"
	"repro/internal/synth"
)

// TestWorkloadsSmoke runs every workload at tiny size, untraced and traced,
// and expects every op to pass its checks and every metric to be reported.
func TestWorkloadsSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 1, trace: traced, dir: t.TempDir(), tiny: true}
			r := newRun(cfg)
			if err := workloads[name](r); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res, err := r.result()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					name, traced, res.Correct, res.Attempted, res.Failed, r.violations)
			}
			for m, v := range res.Metrics {
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
				}
			}
		}
	}
}

// TestCheckerCountsViolations plants an undersized class and an over-t
// release and expects each to be counted as a failed op.
func TestCheckerCountsViolations(t *testing.T) {
	tbl := synth.PatientDischarge(400, 3)
	eng, err := core.NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Algorithm: core.Merge, K: 5, T: .2}
	res, err := eng.Run(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(config{workload: "release-grid"})
	r.op("genuine release", checkResult(res, spec, tbl.Len()))
	if r.failed != 0 {
		t.Fatalf("genuine release failed its checks: %v", r.violations)
	}

	// Undersized class: give one published record quasi-identifiers no
	// other record shares.
	small := res.Anonymized.Clone()
	for _, c := range small.Schema().QuasiIdentifiers() {
		small.SetValue(0, c, -1)
	}
	r.op("undersized class", checkRelease(small, expect{alg: spec.Algorithm, k: spec.K, t: spec.T, rows: tbl.Len()}))

	// Over-t release: classes of k consecutive confidential ranks, each far
	// from the table's confidential distribution.
	conf := tbl.Schema().Confidentials()[0]
	order := make([]int, tbl.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return tbl.Value(order[i], conf) < tbl.Value(order[j], conf) })
	var clusters []micro.Cluster
	for i := 0; i < len(order); i += spec.K {
		clusters = append(clusters, micro.Cluster{Rows: order[i:min(i+spec.K, len(order))]})
	}
	skewed, err := micro.Aggregate(tbl, clusters)
	if err != nil {
		t.Fatal(err)
	}
	r.op("over-t release", checkRelease(skewed, expect{alg: spec.Algorithm, k: spec.K, t: spec.T, rows: tbl.Len()}))

	// Wrong row count for the epoch.
	r.op("short release", checkRelease(res.Anonymized, expect{alg: spec.Algorithm, k: spec.K, t: spec.T, rows: tbl.Len() + 1}))

	if r.attempted != 4 || r.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 3: %v", r.attempted, r.failed, r.violations)
	}
	for i, want := range []string{"smallest class", "exceeds", "rows"} {
		if !strings.Contains(r.violations[i], want) {
			t.Errorf("violation %d = %q, want it to mention %q", i, r.violations[i], want)
		}
	}
	if res, _ := r.result(); res.Correct {
		t.Error("result with failed checks reported correct")
	}
}

// TestVerifyResultMatchesRequest checks a service result against the
// request it was fetched for: a document answering another k, or naming
// another dataset, fails even though its release is sound.
func TestVerifyResultMatchesRequest(t *testing.T) {
	tbl := synth.PatientDischarge(400, 5)
	eng, err := core.NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Algorithm: core.Merge, K: 5, T: .2}
	res, err := eng.Run(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := res.Anonymized.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	alg, _ := spec.Algorithm.MarshalText()
	body, err := json.Marshal(map[string]any{"dataset": "patients", "epoch": 0, "algorithm": string(alg),
		"k": spec.K, "t": spec.T, "effective_k": res.EffectiveK, "release_csv": csv.String()})
	if err != nil {
		t.Fatal(err)
	}
	rowsAt := map[string]map[int]int{"patients": {0: tbl.Len()}, "other": {0: tbl.Len()}}
	if _, err := verifyResult(body, arrival{ds: "patients", spec: spec}, rowsAt); err != nil {
		t.Fatalf("matching request: %v", err)
	}
	for _, a := range []arrival{
		{ds: "patients", spec: core.Spec{Algorithm: core.Merge, K: 6, T: .2}},
		{ds: "patients", spec: core.Spec{Algorithm: core.Merge, K: 5, T: .1}},
		{ds: "patients", spec: core.Spec{Algorithm: core.TClosenessFirst, K: 5, T: .2}},
		{ds: "other", spec: spec},
	} {
		if _, err := verifyResult(body, a, rowsAt); err == nil || !strings.Contains(err.Error(), "answers a request") {
			t.Errorf("request %s %+v: err = %v, want a mismatch", a.ds, a.spec, err)
		}
	}
}

// TestScheduleFixesTheMix checks the service's arrival mix on several
// seeds: every round carries the same requests, and after each append to a
// dataset every warm point of that dataset is asked for before the next,
// so each is computed once per append whatever the order.
func TestScheduleFixesTheMix(t *testing.T) {
	sets := []svcDataset{
		{name: "patients", late: synth.PatientDischarge(100, 1)},
		{name: "census-hcd", late: synth.Census(100, synth.Fica, 1)},
	}
	points := map[string]int{}
	for _, wp := range warmPoints {
		points[sets[wp.ds].name]++
	}
	const rounds = 2
	for seed := int64(1); seed <= 5; seed++ {
		arrivals, err := schedule(rand.New(rand.NewSource(seed)), sets, rounds)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[arrivalKind]int{}
		asked := map[string]map[string]bool{} // warm points asked for since the dataset's last append
		complete := func(ds string) {
			if got := len(asked[ds]); got != points[ds] {
				t.Errorf("seed %d: %s: %d of its %d warm points asked for between appends", seed, ds, got, points[ds])
			}
		}
		for _, a := range arrivals {
			kinds[a.kind]++
			switch a.kind {
			case arriveAppend:
				if asked[a.ds] != nil {
					complete(a.ds)
				}
				asked[a.ds] = map[string]bool{}
			case arriveRelease:
				if asked[a.ds] == nil {
					t.Fatalf("seed %d: release %s before the first append to its dataset", seed, a.key)
				}
				asked[a.ds][a.key] = true
			}
		}
		for _, ds := range sets {
			complete(ds.name)
		}
		want := map[arrivalKind]int{
			arriveRelease: rounds * perPointPerRound * len(warmPoints),
			arriveAppend:  rounds * halvesPerRound * len(sets),
			arriveCold:    rounds * coldsPerRound,
		}
		for k, n := range want {
			if kinds[k] != n {
				t.Errorf("seed %d: %d arrivals of kind %d, want %d", seed, kinds[k], k, n)
			}
		}
		if len(arrivals) != rounds*roundSize {
			t.Errorf("seed %d: %d arrivals, want %d", seed, len(arrivals), rounds*roundSize)
		}
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric lists to BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		E2E       []struct{ Name, Unit string } `json:"end_to_end"`
		Layer     []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %v here, %+v in BENCHMARK.json", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", e2eMetrics, doc.E2E)
	same("per_layer", layerMetrics, doc.Layer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
