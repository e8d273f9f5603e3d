package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve/faultinject"
)

// testServer spins up a Server inside an httptest listener. The returned
// cleanup drains it.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// doJSON issues a request with an optional JSON body and decodes the JSON
// response into a generic document.
func doJSON(t *testing.T, method, url string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, doc, resp.Header
}

// registerSynth registers a built-in synthetic dataset over HTTP.
func registerSynth(t *testing.T, base, kind, name string, n int) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/datasets?synth=%s&name=%s", base, kind, name)
	if n > 0 {
		url += fmt.Sprintf("&n=%d", n)
	}
	code, doc, _ := doJSON(t, http.MethodPost, url, nil)
	if code != http.StatusCreated {
		t.Fatalf("register %s: status %d (%v)", kind, code, doc)
	}
}

// submit posts a job and returns (status code, doc).
func submit(t *testing.T, base string, req map[string]any) (int, map[string]any, http.Header) {
	t.Helper()
	return doJSON(t, http.MethodPost, base+"/v1/jobs", req)
}

// waitJob polls a job until it leaves the queued/running states.
func waitJob(t *testing.T, base string, id float64, within time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		code, doc, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%.0f", base, id), nil)
		if code != http.StatusOK {
			t.Fatalf("job status: %d (%v)", code, doc)
		}
		switch doc["state"] {
		case string(JobDone), string(JobFailed), string(JobCanceled):
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %v still %v after %v", id, doc["state"], within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func jobID(t *testing.T, doc map[string]any) float64 {
	t.Helper()
	id, ok := doc["id"].(float64)
	if !ok {
		t.Fatalf("no job id in %v", doc)
	}
	return id
}

// TestServiceLifecycle drives the happy path end to end over HTTP:
// register, submit, poll with progress, fetch the release, verify it
// parses as the documented CSV format, check ops endpoints.
func TestServiceLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	registerSynth(t, ts.URL, "census-mcd", "census", 240)

	code, doc, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/census", nil)
	if code != http.StatusOK || doc["rows"].(float64) != 240 {
		t.Fatalf("dataset info: %d %v", code, doc)
	}

	code, doc, _ = submit(t, ts.URL, map[string]any{
		"dataset": "census", "algorithm": "alg3", "k": 5, "t": 0.15,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, doc)
	}
	final := waitJob(t, ts.URL, jobID(t, doc), 30*time.Second)
	if final["state"] != string(JobDone) {
		t.Fatalf("job finished %v: %v", final["state"], final["error"])
	}

	code, res, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%.0f/result", ts.URL, jobID(t, doc)), nil)
	if code != http.StatusOK {
		t.Fatalf("result: %d (%v)", code, res)
	}
	release, err := dataset.ReadCSV(strings.NewReader(res["release_csv"].(string)))
	if err != nil {
		t.Fatalf("release CSV does not parse: %v", err)
	}
	if release.Len() != 240 {
		t.Fatalf("release has %d rows, want 240", release.Len())
	}
	if res["privacy"] == nil {
		t.Fatal("result carries no privacy report")
	}
	if kAnon := res["privacy"].(map[string]any)["k_anonymity"].(float64); kAnon < 5 {
		t.Fatalf("release k-anonymity %v < 5", kAnon)
	}

	code, hz, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, hz)
	}
	code, m, _ := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK || m["runs"].(float64) != 1 {
		t.Fatalf("metrics: %d %v", code, m)
	}
}

// TestResultCache pins the acceptance criterion: an identical (dataset
// epoch, Spec) submission is served from the cache without re-running the
// engine, and an Append (epoch bump) naturally invalidates it.
func TestResultCache(t *testing.T) {
	s, ts := testServer(t, Config{})
	registerSynth(t, ts.URL, "census-mcd", "census", 200)

	req := map[string]any{"dataset": "census", "algorithm": "alg3", "k": 4, "t": 0.2}
	code, doc, _ := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	waitJob(t, ts.URL, jobID(t, doc), 30*time.Second)
	runsAfterFirst := s.metrics.runs.Load()
	if runsAfterFirst != 1 {
		t.Fatalf("first job: runs = %d, want 1", runsAfterFirst)
	}

	// Identical submission: answered synchronously, already done, cached.
	code, doc2, _ := submit(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("cached submit: status %d, want 200", code)
	}
	if doc2["state"] != string(JobDone) || doc2["cached"] != true {
		t.Fatalf("cached submit doc: %v", doc2)
	}
	if s.metrics.runs.Load() != runsAfterFirst {
		t.Fatal("cache hit re-ran the engine")
	}
	if s.metrics.cacheHits.Load() != 1 {
		t.Fatalf("cacheHits = %d, want 1", s.metrics.cacheHits.Load())
	}
	// The cached job's result endpoint serves the same release.
	code, res, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%.0f/result", ts.URL, jobID(t, doc2)), nil)
	if code != http.StatusOK || res["cached"] != true {
		t.Fatalf("cached result: %d %v", code, res)
	}

	// A different parameter point is a miss.
	code, doc3, _ := submit(t, ts.URL, map[string]any{"dataset": "census", "algorithm": "alg3", "k": 5, "t": 0.2})
	if code != http.StatusAccepted {
		t.Fatalf("different spec should queue, got %d", code)
	}
	waitJob(t, ts.URL, jobID(t, doc3), 30*time.Second)

	// Append rows: epoch bump invalidates the (epoch-keyed) entry.
	code, _, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/census/rows", map[string]any{
		"rows": [][]any{{40000.0, 9000.0, 2500.0}},
	})
	if code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	code, doc4, _ := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("post-append submit should miss the cache, got %d", code)
	}
	final := waitJob(t, ts.URL, jobID(t, doc4), 30*time.Second)
	if final["epoch"].(float64) != 1 {
		t.Fatalf("post-append job ran against epoch %v, want 1", final["epoch"])
	}
}

// TestSubmitValidation: malformed submissions are rejected at admission
// with 4xx instead of becoming failed jobs.
func TestSubmitValidation(t *testing.T) {
	s, ts := testServer(t, Config{})
	registerSynth(t, ts.URL, "census-mcd", "census", 120)

	cases := []struct {
		req  map[string]any
		code int
	}{
		{map[string]any{"dataset": "nope", "algorithm": "alg3", "k": 3, "t": 0.2}, http.StatusNotFound},
		{map[string]any{"dataset": "census", "algorithm": "bogus", "k": 3, "t": 0.2}, http.StatusBadRequest},
		{map[string]any{"dataset": "census", "algorithm": "alg3", "k": 0, "t": 0.2}, http.StatusBadRequest},
		{map[string]any{"dataset": "census", "algorithm": "alg2", "k": 3, "t": 1.5}, http.StatusBadRequest},
		{map[string]any{"dataset": "census", "algorithm": "sabre", "k": 3, "t": 0}, http.StatusBadRequest},
	}
	for i, tc := range cases {
		code, doc, _ := submit(t, ts.URL, tc.req)
		if code != tc.code {
			t.Errorf("case %d: status %d (%v), want %d", i, code, doc, tc.code)
		}
	}
	if s.metrics.failures.Load() != 0 {
		t.Fatal("invalid submissions became failed jobs")
	}

	// Dataset registration edge cases.
	code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?synth=census-mcd&name=census", nil)
	if code != http.StatusConflict {
		t.Fatalf("duplicate dataset: %d, want 409", code)
	}
	code, _, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?synth=unknown-kind", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown synth: %d, want 400", code)
	}
	code, _, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/99999", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}
}

// TestSubmitHugeTimeoutCaps pins that a timeout_ms past the Duration range
// is capped at MaxTimeout, not wrapped into a negative deadline that fails
// the job at once.
func TestSubmitHugeTimeoutCaps(t *testing.T) {
	const maxTimeout = 45 * time.Second
	_, ts := testServer(t, Config{MaxTimeout: maxTimeout})
	registerSynth(t, ts.URL, "census-mcd", "census", 120)
	for _, ms := range []int64{9_300_000_000_000, 18_446_744_073_709} {
		code, doc, _ := submit(t, ts.URL, map[string]any{
			"dataset": "census", "algorithm": "alg3", "k": 3, "t": 0.2,
			"timeout_ms": ms, "no_cache": true,
		})
		if code != http.StatusAccepted {
			t.Fatalf("timeout_ms=%d: submit status %d (%v)", ms, code, doc)
		}
		if got := doc["timeout_ms"]; got != float64(maxTimeout.Milliseconds()) {
			t.Fatalf("timeout_ms=%d: status timeout_ms %v, want %d", ms, got, maxTimeout.Milliseconds())
		}
		if final := waitJob(t, ts.URL, jobID(t, doc), 30*time.Second); final["state"] != string(JobDone) {
			t.Fatalf("timeout_ms=%d: job %v (%v), want done", ms, final["state"], final["error"])
		}
	}
}

// TestRegisterCSVAndAppendErrors registers a dataset by CSV upload and
// pins the append rejection paths surfacing as 400s.
func TestRegisterCSVAndAppendErrors(t *testing.T) {
	_, ts := testServer(t, Config{})

	// The upload body is simply the dataset package's self-describing CSV
	// format; round-trip a table through WriteCSV to produce it.
	var buf bytes.Buffer
	tbl := mustCatTable(t, 30)
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets?name=clinic", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("CSV register: %d", resp.StatusCode)
	}

	// Arity mismatch → 400, epoch unchanged.
	code, doc, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/clinic/rows", map[string]any{
		"rows": [][]any{{21.0, 1000.0}},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("short row append: %d (%v)", code, doc)
	}
	// Kind mismatch → 400.
	code, _, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/clinic/rows", map[string]any{
		"rows": [][]any{{21.0, 1000.0, 7.0}},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("kind mismatch append: %d", code)
	}
	code, info, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/clinic", nil)
	if code != http.StatusOK || info["epoch"].(float64) != 0 {
		t.Fatalf("failed appends advanced the epoch: %v", info)
	}
	// A valid append with a brand-new label succeeds.
	code, doc, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/clinic/rows", map[string]any{
		"rows": [][]any{{61.0, 1399.0, "shingles"}},
	})
	if code != http.StatusOK || doc["epoch"].(float64) != 1 {
		t.Fatalf("new-label append: %d %v", code, doc)
	}
}

// TestBackpressureSheds pins the queue bound: with one worker pinned by a
// slow job and the queue full, further submissions get 429 + Retry-After.
func TestBackpressureSheds(t *testing.T) {
	fault := &faultinject.Hooks{}
	fault.SlowTask(20 * time.Millisecond)
	s, ts := testServer(t, Config{MaxQueue: 1, JobWorkers: 1, Fault: fault})
	registerSynth(t, ts.URL, "patients", "patients", 400)

	req := func(k int) map[string]any {
		return map[string]any{"dataset": "patients", "algorithm": "alg3", "k": k, "t": 0.1, "skip_assessment": true, "no_cache": true}
	}
	// First job occupies the worker (slow tasks); second fills the queue.
	code, first, _ := submit(t, ts.URL, req(2))
	if code != http.StatusAccepted {
		t.Fatalf("job1: %d", code)
	}
	var queuedID float64
	deadline := time.Now().Add(10 * time.Second)
	shed := false
	var retryAfter string
	for time.Now().Before(deadline) {
		code, doc, hdr := submit(t, ts.URL, req(3))
		switch code {
		case http.StatusAccepted:
			queuedID = jobID(t, doc)
		case http.StatusTooManyRequests:
			shed = true
			retryAfter = hdr.Get("Retry-After")
		default:
			t.Fatalf("submit: unexpected status %d (%v)", code, doc)
		}
		if shed {
			break
		}
	}
	if !shed {
		t.Fatal("queue never shed load")
	}
	if retryAfter == "" {
		t.Fatal("429 without Retry-After header")
	}
	if s.metrics.shed.Load() < 1 {
		t.Fatal("shed counter not incremented")
	}

	// Un-jam the pipeline and let everything finish: the shed was load
	// management, not a failure.
	fault.SlowTask(0)
	waitJob(t, ts.URL, jobID(t, first), 60*time.Second)
	if queuedID != 0 {
		waitJob(t, ts.URL, queuedID, 60*time.Second)
	}
	code, hz, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz after shed: %d %v", code, hz)
	}
}

// TestCancelQueuedAndRunning: canceling a queued job flips it immediately;
// canceling a running job interrupts the engine promptly.
func TestCancelQueuedAndRunning(t *testing.T) {
	fault := &faultinject.Hooks{}
	fault.SlowTask(20 * time.Millisecond)
	_, ts := testServer(t, Config{MaxQueue: 4, JobWorkers: 1, Fault: fault})
	registerSynth(t, ts.URL, "patients", "patients", 400)

	req := map[string]any{"dataset": "patients", "algorithm": "alg2", "k": 2, "t": 0.05, "skip_assessment": true, "no_cache": true}
	_, running, _ := submit(t, ts.URL, req)
	_, queued, _ := submit(t, ts.URL, req)

	// The second job is queued behind the slow first: cancel it.
	code, doc, _ := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%.0f", ts.URL, jobID(t, queued)), nil)
	if code != http.StatusOK || doc["state"] != string(JobCanceled) {
		t.Fatalf("cancel queued: %d %v", code, doc)
	}

	// Cancel the running one; it must settle quickly despite slow tasks.
	start := time.Now()
	doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%.0f", ts.URL, jobID(t, running)), nil)
	final := waitJob(t, ts.URL, jobID(t, running), 30*time.Second)
	if final["state"] != string(JobCanceled) {
		t.Fatalf("cancel running: state %v", final["state"])
	}
	if time.Since(start) > 15*time.Second {
		t.Fatal("running cancel was not prompt")
	}
	fault.SlowTask(0)
}

// mustCatTable builds the categorical-confidential fixture used by the CSV
// registration test.
func mustCatTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	schema, err := dataset.NewSchema(
		dataset.Attribute{Name: "AGE", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "ZIP", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "DISEASE", Role: dataset.Confidential, Kind: dataset.Categorical},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := dataset.NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"flu", "asthma", "ulcer", "cold"}
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(float64(20+i%37), float64(1000+7*i%400), labels[i%len(labels)]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}
