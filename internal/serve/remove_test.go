package serve

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve/faultinject"
	"repro/internal/store"
)

// DELETE /v1/datasets/{name} removes the dataset end to end: the engine
// entry, its cached results, and the backing store file. A re-registered
// dataset under the same name must not be served stale results from the
// removed one's cache.
func TestRemoveDataset(t *testing.T) {
	dir := t.TempDir()
	backend, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Store: backend})
	registerSynth(t, ts.URL, "patients", "clinic", 300)

	// Prime the result cache: first run computes, identical resubmission
	// answers from cache.
	req := map[string]any{"dataset": "clinic", "algorithm": "alg3", "k": 4, "t": 0.2, "skip_assessment": true}
	code, doc, _ := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, doc)
	}
	waitJob(t, ts.URL, jobID(t, doc), 60*time.Second)
	code, doc, _ = submit(t, ts.URL, req)
	if code != http.StatusOK || doc["cached"] != true {
		t.Fatalf("resubmit before remove: %d cached=%v, want a cache hit", code, doc["cached"])
	}

	code, doc, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/clinic", nil)
	if code != http.StatusOK || doc["removed"] != true || doc["name"] != "clinic" {
		t.Fatalf("remove: %d (%v)", code, doc)
	}
	// Engine entry is gone from every surface.
	code, _, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/clinic", nil)
	if code != http.StatusNotFound {
		t.Fatalf("GET after remove: %d, want 404", code)
	}
	code, doc, _ = submit(t, ts.URL, req)
	if code != http.StatusNotFound {
		t.Fatalf("submit after remove: %d (%v), want 404", code, doc)
	}
	// The store file is gone too: nothing to restore.
	names, err := backend.List()
	if err != nil || len(names) != 0 {
		t.Fatalf("store after remove: names=%v err=%v, want empty", names, err)
	}

	// Unknown names 404 — including the one just removed.
	code, _, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/clinic", nil)
	if code != http.StatusNotFound {
		t.Fatalf("double remove: %d, want 404", code)
	}

	// Re-register the same name with the same synthetic table: identical
	// dataset name, epoch, and spec. The old result must NOT come back —
	// eviction, not epoch bumping, is what protects this key.
	registerSynth(t, ts.URL, "patients", "clinic", 300)
	code, doc, _ = submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit after re-register: %d (%v)", code, doc)
	}
	if doc["cached"] == true {
		t.Fatal("resubmission after remove + re-register served the evicted dataset's cached result")
	}
	waitJob(t, ts.URL, jobID(t, doc), 60*time.Second)
}

// A dataset with queued or running jobs is busy: DELETE answers 409 and
// removes nothing; once the jobs finish the removal goes through.
func TestRemoveDatasetBusy(t *testing.T) {
	fault := &faultinject.Hooks{}
	fault.SlowTask(20 * time.Millisecond)
	_, ts := testServer(t, Config{JobWorkers: 1, Fault: fault})
	registerSynth(t, ts.URL, "patients", "clinic", 300)

	req := map[string]any{"dataset": "clinic", "algorithm": "alg3", "k": 3, "t": 0.15, "skip_assessment": true, "no_cache": true}
	code, doc, _ := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := jobID(t, doc)

	code, doc, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/clinic", nil)
	if code != http.StatusConflict {
		t.Fatalf("remove with job in flight: %d (%v), want 409", code, doc)
	}
	// The dataset survived the refused removal.
	code, _, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/clinic", nil)
	if code != http.StatusOK {
		t.Fatalf("GET after refused remove: %d", code)
	}

	fault.SlowTask(0)
	waitJob(t, ts.URL, id, 60*time.Second)
	code, doc, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/clinic", nil)
	if code != http.StatusOK || doc["removed"] != true {
		t.Fatalf("remove after drain: %d (%v)", code, doc)
	}
}

// The 429 body carries the real backlog estimate alongside the clamped
// Retry-After header. On a cold start — no completed runs, so no p50 —
// both fall back to exactly 1.
func TestShedBodyCarriesEstimate(t *testing.T) {
	fault := &faultinject.Hooks{}
	fault.SlowTask(20 * time.Millisecond)
	_, ts := testServer(t, Config{MaxQueue: 1, JobWorkers: 1, Fault: fault})
	registerSynth(t, ts.URL, "patients", "patients", 400)

	req := func(k int) map[string]any {
		return map[string]any{"dataset": "patients", "algorithm": "alg3", "k": k, "t": 0.1, "skip_assessment": true, "no_cache": true}
	}
	code, first, _ := submit(t, ts.URL, req(2))
	if code != http.StatusAccepted {
		t.Fatalf("job1: %d", code)
	}
	var queued []float64
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, doc, hdr := submit(t, ts.URL, req(3))
		if code == http.StatusAccepted {
			queued = append(queued, jobID(t, doc))
			continue
		}
		if code != http.StatusTooManyRequests {
			t.Fatalf("submit: unexpected status %d (%v)", code, doc)
		}
		// Shed before any run completed: the estimate has no p50 to work
		// from and must fall back to 1 — not 0, not the 60s clamp.
		est, ok := doc["retry_after_seconds"].(float64)
		if !ok {
			t.Fatalf("429 body carries no retry_after_seconds: %v", doc)
		}
		if est != 1 {
			t.Fatalf("cold-start estimate %v, want exactly 1", est)
		}
		if hdr.Get("Retry-After") != "1" {
			t.Fatalf("cold-start Retry-After header %q, want 1", hdr.Get("Retry-After"))
		}
		fault.SlowTask(0)
		waitJob(t, ts.URL, jobID(t, first), 60*time.Second)
		for _, id := range queued {
			waitJob(t, ts.URL, id, 60*time.Second)
		}
		return
	}
	t.Fatal("queue never shed load")
}

// RestoreDatasets rebuilds every stored dataset by streaming its committed
// history — append and tombstone epochs included — through core.Open: same
// names, epochs, and table hashes as before the restart, and the restored
// engines keep accepting epochs.
func TestRestoreDatasetsStreaming(t *testing.T) {
	dir := t.TempDir()
	backend, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Store: backend})
	registerSynth(t, ts.URL, "patients", "clinic", 300)
	code, doc, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/clinic/rows", map[string]any{
		"rows": [][]any{patientRow(7)},
	})
	if code != http.StatusOK {
		t.Fatalf("append: %d (%v)", code, doc)
	}
	code, doc, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/clinic/rows", map[string]any{
		"rows": []int{2, 9},
	})
	if code != http.StatusOK {
		t.Fatalf("delete: %d (%v)", code, doc)
	}
	before := listDocs(t, ts.URL)

	backend2, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := testServer(t, Config{Store: backend2})
	names, err := srv2.RestoreDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "clinic" {
		t.Fatalf("restored %v, want [clinic]", names)
	}
	after := listDocs(t, ts2.URL)
	if got, want := mustMarshal(t, after), mustMarshal(t, before); got != want {
		t.Fatalf("restore changed the listing:\nbefore: %s\nafter:  %s", want, got)
	}
	code, doc, _ = doJSON(t, http.MethodDelete, ts2.URL+"/v1/datasets/clinic/rows", map[string]any{
		"rows": []int{0},
	})
	if code != http.StatusOK || doc["epoch"].(float64) != 3 {
		t.Fatalf("epoch after post-restore delete: %d (%v)", code, doc)
	}
}

// Stray files in the data dir are advisory: RestoreDatasets restores
// every intact dataset and passes the *store.StrayFilesError through for
// the operator, instead of aborting the boot.
func TestRestoreDatasetsToleratesStrays(t *testing.T) {
	dir := t.TempDir()
	backend, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Store: backend})
	registerSynth(t, ts.URL, "patients", "clinic", 200)
	if err := os.WriteFile(filepath.Join(dir, "%zz-bogus.tcs"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	backend2, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := testServer(t, Config{Store: backend2})
	names, err := srv2.RestoreDatasets()
	var strays *store.StrayFilesError
	if !errors.As(err, &strays) {
		t.Fatalf("RestoreDatasets error %v, want a *store.StrayFilesError", err)
	}
	if len(strays.Files) != 1 || strays.Files[0] != "%zz-bogus.tcs" {
		t.Fatalf("stray files %v", strays.Files)
	}
	if len(names) != 1 || names[0] != "clinic" {
		t.Fatalf("restored %v despite strays, want [clinic]", names)
	}
	code, _, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/clinic", nil)
	if code != http.StatusOK {
		t.Fatalf("restored dataset not served: %d", code)
	}
}
