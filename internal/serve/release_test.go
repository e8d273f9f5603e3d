package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/serve/faultinject"
	"repro/internal/synth"
)

// referenceResultDoc is the result document as handleJobResult built it
// before releases were formatted once: a map holding the whole release as
// WriteCSV text, encoded by encoding/json on every fetch.
func referenceResultDoc(t *testing.T, j *job, res *core.Result) map[string]any {
	t.Helper()
	var csv strings.Builder
	if err := res.Anonymized.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	doc := map[string]any{
		"id":          j.id,
		"dataset":     j.ds.name,
		"epoch":       j.epoch,
		"algorithm":   j.algName,
		"k":           j.spec.K,
		"t":           j.spec.T,
		"cached":      j.cached,
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
		"release_csv": csv.String(),
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

// referenceBytes encodes the reference document twice: as handleJobResult
// wrote it, and with only the key order changed to the formatted
// document's, id and cached first and release_csv last.
func referenceBytes(t *testing.T, doc map[string]any) (asWritten, reordered []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	rest := make(map[string]any, len(doc))
	for k, v := range doc {
		rest[k] = v
	}
	delete(rest, "id")
	delete(rest, "cached")
	delete(rest, "release_csv")
	fields, err := json.Marshal(rest)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := json.Marshal(doc["release_csv"])
	if err != nil {
		t.Fatal(err)
	}
	reordered = fmt.Appendf(nil, `{"id":%d,"cached":%v,%s,"release_csv":%s}`+"\n",
		doc["id"], doc["cached"], fields[1:len(fields)-1], csv)
	return buf.Bytes(), reordered
}

// decodeExact decodes a JSON document keeping every number's text, so two
// documents compare equal only when they print the same numbers.
func decodeExact(t *testing.T, b []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("decoding %q: %v", b, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("trailing data after the document: %v", err)
	}
	return doc
}

// checkRelease formats res as job j's release, fetches it as a cold and
// as a cached job, and checks each document against the reference: equal
// decoded values, release_csv decoding to WriteCSV's text, and the same
// bytes as the reference once its keys are reordered, so every escape
// (<, >, &, U+2028, invalid UTF-8) is the one encoding/json writes.
func checkRelease(t *testing.T, name string, spec core.Spec, res *core.Result) {
	t.Helper()
	j := &job{id: 41, ds: &datasetEntry{name: "d"}, spec: spec, algName: spec.Algorithm.String(), epoch: res.Epoch}
	rel, err := newRelease(j, res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var want strings.Builder
	if err := res.Anonymized.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		j.cached = cached
		var got bytes.Buffer
		if err := rel.writeTo(&got, j.id, cached); err != nil {
			t.Fatal(err)
		}
		asWritten, reordered := referenceBytes(t, referenceResultDoc(t, j, res))
		doc := decodeExact(t, got.Bytes())
		if !reflect.DeepEqual(doc, decodeExact(t, asWritten)) {
			t.Fatalf("%s (cached=%v): document differs from the reference\n got %s\nwant %s",
				name, cached, got.Bytes(), asWritten)
		}
		if !bytes.Equal(got.Bytes(), reordered) {
			t.Fatalf("%s (cached=%v): document bytes differ from the reordered reference\n got %q\nwant %q",
				name, cached, got.Bytes(), reordered)
		}
		// encoding/json writes each byte of invalid UTF-8 as U+FFFD, as
		// converting to runes does; valid text decodes to WriteCSV's bytes.
		if doc["release_csv"] != string([]rune(want.String())) {
			t.Fatalf("%s: release_csv differs from WriteCSV\n got %q\nwant %q", name, doc["release_csv"], want.String())
		}
	}
}

// hostileLabels are categorical labels that exercise every quoting and
// escaping rule between a cell and its bytes in the document.
var hostileLabels = []string{
	"plain", "a,b", `say "hi"`, "two\nlines", "cr\rhere", "crlf\r\n", " lead",
	"\u00a0nbsp", `\.`, "<b>", "&amp", "x\u2028y", "café", "\xff\xfebad", "", "tab\t",
}

// hostileTable is a table whose identifier, categorical quasi-identifier
// and non-confidential columns hold the hostile labels.
func hostileTable(n int) *dataset.Table {
	tbl := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "NAME, full", Role: dataset.Identifier, Kind: dataset.Categorical},
		dataset.Attribute{Name: "AGE", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "CITY", Role: dataset.QuasiIdentifier, Kind: dataset.Categorical},
		dataset.Attribute{Name: "NOTE \"free\"", Role: dataset.NonConfidential, Kind: dataset.Categorical},
		dataset.Attribute{Name: "INCOME", Role: dataset.Confidential, Kind: dataset.Numeric},
	))
	for i := 0; i < n; i++ {
		l := func(k int) string { return hostileLabels[(i*k+i/7)%len(hostileLabels)] }
		if err := tbl.AppendRow(l(1), float64(20+i%50)+0.25, l(3), l(5), 1e8+float64(i*i%97)*1.5); err != nil {
			panic(err)
		}
	}
	return tbl
}

// TestReleaseDocumentMatchesReference pins the formatted result document
// to the reference map encoding (see checkRelease) for every algorithm;
// cold, warm, cached and skip_assessment runs; a table of hostile labels;
// and one-column tables.
func TestReleaseDocumentMatchesReference(t *testing.T) {
	ctx := context.Background()
	algs := []core.Algorithm{core.Merge, core.KAnonymityFirst, core.TClosenessFirst,
		core.MondrianBaseline, core.SABREBaseline, core.IncognitoBaseline}
	// Incognito recodes numeric quasi-identifiers only, and its lattice
	// over the patients' seven takes seconds, so it runs on census alone.
	for _, tc := range []struct {
		name string
		tbl  *dataset.Table
		late *dataset.Table
		algs []core.Algorithm
	}{
		{"census", synth.Census(240, synth.FedTax, synth.DefaultSeed), synth.Census(12, synth.FedTax, 7), algs},
		{"patients", synth.PatientDischarge(240, synth.DefaultSeed), synth.PatientDischarge(12, 7), algs[:5]},
		{"hostile", hostileTable(240), hostileTable(12), algs[:5]},
	} {
		eng, err := core.NewEngine(tc.tbl)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range tc.algs {
			for _, skip := range []bool{false, true} {
				spec := core.Spec{Algorithm: alg, K: 4, T: 0.3, SkipAssessment: skip}
				res, err := eng.Run(ctx, spec)
				if err != nil {
					t.Fatalf("%s %v: %v", tc.name, alg, err)
				}
				checkRelease(t, fmt.Sprintf("%s %v skip=%v", tc.name, alg, skip), spec, res)
			}
		}
		// Warm: seed each paper algorithm, append an epoch, repair.
		warm := algs[:3]
		for _, alg := range warm {
			if _, err := eng.Run(ctx, core.Spec{Algorithm: alg, K: 4, T: 0.3, Warm: true}); err != nil {
				t.Fatal(err)
			}
		}
		rows := make([][]any, tc.late.Len())
		for r := range rows {
			rows[r] = make([]any, tc.late.Width())
			for c := range rows[r] {
				if tc.late.Schema().Attr(c).Kind == dataset.Categorical {
					rows[r][c] = tc.late.Label(r, c)
				} else {
					rows[r][c] = tc.late.Value(r, c)
				}
			}
		}
		if err := eng.Append(rows...); err != nil {
			t.Fatal(err)
		}
		for _, alg := range warm {
			spec := core.Spec{Algorithm: alg, K: 4, T: 0.3, Warm: true}
			res, err := eng.Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Warm == nil || res.Epoch != 1 {
				t.Fatalf("%s %v: warm=%v epoch=%d, want a warm repair at epoch 1", tc.name, alg, res.Warm, res.Epoch)
			}
			checkRelease(t, fmt.Sprintf("%s %v warm", tc.name, alg), spec, res)
		}
	}

	// One-column tables, built by hand: an empty label is written as "",
	// a row no cluster holds and an empty cluster are formatted like any
	// other, and a column that varies within a cluster is formatted per row.
	one := dataset.MustTable(dataset.MustSchema(
		dataset.Attribute{Name: "only", Role: dataset.Confidential, Kind: dataset.Categorical}))
	for _, l := range []string{"", "x", "", "y"} {
		if err := one.AppendRow(l); err != nil {
			t.Fatal(err)
		}
	}
	spec := core.Spec{Algorithm: core.Merge, K: 1, T: 1}
	for name, clusters := range map[string][]micro.Cluster{
		"one-column shared":  {{Rows: []int{0, 2}}, {}, {Rows: []int{1}}},
		"one-column per row": {{Rows: []int{0, 1, 2, 3}}},
	} {
		checkRelease(t, name, spec, &core.Result{Anonymized: one, Clusters: clusters, Sizes: micro.Sizes(clusters)})
	}
}

// TestReleaseBuildErrorFailsJob: a run whose document cannot be built (a
// cluster naming a row the release does not have, a field encoding/json
// rejects) fails its job with error kind "error" and caches nothing,
// instead of serving a wrong or empty document.
func TestReleaseBuildErrorFailsJob(t *testing.T) {
	s, _ := testServer(t, Config{})
	tbl := synth.Census(10, synth.FedTax, synth.DefaultSeed)
	for name, res := range map[string]*core.Result{
		"foreign row": {Anonymized: tbl, Clusters: []micro.Cluster{{Rows: []int{0, 10}}}},
		"NaN field":   {Anonymized: tbl, Clusters: []micro.Cluster{{Rows: []int{0}}}, SSE: math.NaN()},
	} {
		j := &job{ds: &datasetEntry{name: "d"}, algName: "alg1", state: JobRunning, started: time.Now()}
		s.mu.Lock()
		s.registerJobLocked(j)
		s.mu.Unlock()
		s.finishJob(j, res, nil)
		if j.state != JobFailed || j.errKind != errKindError || j.rel != nil {
			t.Fatalf("%s: job %v (%s, %v), want failed with kind %q", name, j.state, j.errKind, j.err, errKindError)
		}
	}
	if s.cache.len() != 0 || s.metrics.failures.Load() != 2 {
		t.Fatalf("cache holds %d releases, failures %d; want 0 and 2", s.cache.len(), s.metrics.failures.Load())
	}
}

// fetchRaw GETs a URL and returns its status and body bytes.
func fetchRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestResultFetchServesRelease drives the fetch over HTTP: a run's result
// endpoint serves its release's bytes with release_csv equal to WriteCSV
// of the same run on a fresh engine, and a cache hit shares that release
// and serves it under its own id with cached set.
func TestResultFetchServesRelease(t *testing.T) {
	s, ts := testServer(t, Config{})
	registerSynth(t, ts.URL, "census-mcd", "census", 240)
	req := map[string]any{"dataset": "census", "algorithm": "alg3", "k": 4, "t": 0.3, "cold": true}
	code, doc, _ := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, doc)
	}
	id := jobID(t, doc)
	waitJob(t, ts.URL, id, 30*time.Second)
	code, body := fetchRaw(t, fmt.Sprintf("%s/v1/jobs/%.0f/result", ts.URL, id))
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, body)
	}
	first := s.job(fmt.Sprint(id))
	var want bytes.Buffer
	if err := first.rel.writeTo(&want, first.id, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatal("fetched document differs from the job's release")
	}

	tbl, err := SynthTable("census-mcd", 240)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), core.Spec{Algorithm: core.TClosenessFirst, K: 4, T: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := res.Anonymized.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := decodeExact(t, body)["release_csv"]; got != csv.String() {
		t.Fatal("served release_csv differs from WriteCSV of the same run")
	}

	code, doc, _ = submit(t, ts.URL, req)
	if code != http.StatusOK || doc["cached"] != true {
		t.Fatalf("resubmission: %d %v, want a cache hit", code, doc)
	}
	hit := s.job(fmt.Sprint(jobID(t, doc)))
	if hit.rel != first.rel {
		t.Fatal("cache hit does not share the first job's release")
	}
	code, body = fetchRaw(t, fmt.Sprintf("%s/v1/jobs/%d/result", ts.URL, hit.id))
	want.Reset()
	if err := first.rel.writeTo(&want, hit.id, true); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("cached fetch: %d, document differs from the shared release", code)
	}
}

// TestJobHistoryKeepsNewest: with JobHistory 4, ten sequential jobs leave
// exactly the last four answering, on every round. Pruning in map order
// kept an older job instead of a newer one on most rounds.
func TestJobHistoryKeepsNewest(t *testing.T) {
	for round := 0; round < 5; round++ {
		_, ts := testServer(t, Config{JobHistory: 4})
		registerSynth(t, ts.URL, "census-mcd", "census", 40)
		for i := 0; i < 10; i++ {
			code, doc, _ := submit(t, ts.URL, map[string]any{
				"dataset": "census", "algorithm": "alg1", "k": 2 + i%5, "t": 0.5,
				"no_cache": i%2 == 0, "skip_assessment": true,
			})
			if code != http.StatusAccepted {
				t.Fatalf("submit %d: %d %v", i, code, doc)
			}
			waitJob(t, ts.URL, jobID(t, doc), 30*time.Second)
		}
		// A cache hit and a job canceled while queued finish too.
		code, doc, _ := submit(t, ts.URL, map[string]any{
			"dataset": "census", "algorithm": "alg1", "k": 3, "t": 0.5, "skip_assessment": true,
		})
		if code != http.StatusOK {
			t.Fatalf("resubmission: %d %v, want a cache hit", code, doc)
		}
		var kept []int
		for id := 1; id <= 11; id++ {
			code, _, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil)
			if code == http.StatusOK {
				kept = append(kept, id)
			}
		}
		if !reflect.DeepEqual(kept, []int{8, 9, 10, 11}) {
			t.Fatalf("round %d: jobs %v answer, want [8 9 10 11]", round, kept)
		}
	}
}

// TestCanceledQueuedJobJoinsHistory: a job canceled while queued counts
// as finished, so it is pruned before the newer jobs.
func TestCanceledQueuedJobJoinsHistory(t *testing.T) {
	fault := &faultinject.Hooks{}
	fault.SlowTask(20 * time.Millisecond)
	_, ts := testServer(t, Config{JobWorkers: 1, JobHistory: 2, Fault: fault})
	registerSynth(t, ts.URL, "census-mcd", "census", 200)
	run := map[string]any{"dataset": "census", "algorithm": "alg3", "k": 3, "t": 0.3, "no_cache": true}
	_, busy, _ := submit(t, ts.URL, run)
	_, queued, _ := submit(t, ts.URL, run)
	code, doc, _ := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%.0f", ts.URL, jobID(t, queued)), nil)
	if code != http.StatusOK || doc["state"] != string(JobCanceled) {
		t.Fatalf("cancel: %d %v", code, doc)
	}
	fault.SlowTask(0)
	waitJob(t, ts.URL, jobID(t, busy), 30*time.Second)
	for i := 0; i < 2; i++ {
		_, d, _ := submit(t, ts.URL, run)
		waitJob(t, ts.URL, jobID(t, d), 30*time.Second)
	}
	// Job 2 was canceled first and job 1 finished next: both are pruned.
	for id, want := range map[int]int{1: http.StatusNotFound, 2: http.StatusNotFound, 3: http.StatusOK, 4: http.StatusOK} {
		if code, _, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil); code != want {
			t.Fatalf("job %d: status %d, want %d", id, code, want)
		}
	}
}

// TestAppendDoesNotWaitForRun: an append answers while a slowed job still
// runs; the job's release names the epoch and row count its run saw, and a
// job submitted before the append but run after it names the appended
// epoch, as does the next job.
func TestAppendDoesNotWaitForRun(t *testing.T) {
	fault := &faultinject.Hooks{}
	fault.SlowTask(20 * time.Millisecond)
	_, ts := testServer(t, Config{Fault: fault})
	registerSynth(t, ts.URL, "census-mcd", "census", 400)
	req := map[string]any{"dataset": "census", "algorithm": "alg3", "k": 3, "t": 0.3, "cold": true}
	_, doc, _ := submit(t, ts.URL, req)
	id := jobID(t, doc)
	// Wait for a progress event: the run is inside the engine, past its
	// snapshot.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%.0f", ts.URL, id), nil)
		if p, ok := st["progress"].(map[string]any); ok && p["done"].(float64) > 0 {
			break
		}
		if st["state"] != string(JobQueued) && st["state"] != string(JobRunning) || time.Now().After(deadline) {
			t.Fatalf("job never reported progress: %v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Submitted at epoch 0, it waits for the dataset's run lock and runs
	// after the append.
	_, waiting, _ := submit(t, ts.URL, map[string]any{"dataset": "census", "algorithm": "alg1", "k": 3, "t": 0.3})
	start := time.Now()
	code, app, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/census/rows",
		map[string]any{"rows": [][]any{{50000.0, 1200.0, 3000.0}}})
	took := time.Since(start)
	if code != http.StatusOK || app["epoch"].(float64) != 1 || app["rows"].(float64) != 401 {
		t.Fatalf("append: %d %v", code, app)
	}
	_, st, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%.0f", ts.URL, id), nil)
	if st["state"] != string(JobRunning) || took > time.Second {
		t.Fatalf("append answered after %v with the job %v: it waited for the run", took, st["state"])
	}
	fault.SlowTask(0)
	waitJob(t, ts.URL, id, 60*time.Second)
	_, res, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%.0f/result", ts.URL, id), nil)
	if res["epoch"].(float64) != 0 || res["rows"].(float64) != 400 {
		t.Fatalf("running job's release: epoch %v rows %v, want 0 and 400", res["epoch"], res["rows"])
	}
	if st := waitJob(t, ts.URL, id, time.Second); st["epoch"].(float64) != 0 {
		t.Fatalf("running job's record names epoch %v, want 0", st["epoch"])
	}
	st = waitJob(t, ts.URL, jobID(t, waiting), 60*time.Second)
	_, res, _ = doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%.0f/result", ts.URL, jobID(t, waiting)), nil)
	if st["epoch"].(float64) != 1 || res["epoch"].(float64) != 1 || res["rows"].(float64) != 401 {
		t.Fatalf("job queued before the append: record epoch %v, release epoch %v rows %v; want 1, 1, 401",
			st["epoch"], res["epoch"], res["rows"])
	}
	res = submitAndWait(t, ts.URL, req)
	if res["cached"] != false || res["epoch"].(float64) != 1 || res["rows"].(float64) != 401 {
		t.Fatalf("next job: cached %v epoch %v rows %v, want a run at epoch 1 over 401 rows",
			res["cached"], res["epoch"], res["rows"])
	}
}
