package serve

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/faultinject"
)

// TestPanicIsolation is the headline robustness criterion: a job that
// panics mid-partition fails with the recovered stack in its record, the
// process keeps serving (/healthz stays 200), and a subsequent identical
// job succeeds once the fault is disarmed.
func TestPanicIsolation(t *testing.T) {
	fault := &faultinject.Hooks{}
	fault.PanicAtTask(3) // detonate on the third progress tick: mid-partition
	s, ts := testServer(t, Config{Fault: fault})
	registerSynth(t, ts.URL, "census-mcd", "census", 240)

	req := map[string]any{"dataset": "census", "algorithm": "alg3", "k": 4, "t": 0.2}
	code, doc, _ := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitJob(t, ts.URL, jobID(t, doc), 30*time.Second)
	if final["state"] != string(JobFailed) {
		t.Fatalf("panicking job state = %v, want failed", final["state"])
	}
	if final["error_kind"] != errKindPanic {
		t.Fatalf("error_kind = %v, want panic", final["error_kind"])
	}
	errMsg, _ := final["error"].(string)
	if !strings.Contains(errMsg, "injected panic") {
		t.Fatalf("error %q does not carry the panic value", errMsg)
	}
	stack, _ := final["stack"].(string)
	if stack == "" {
		t.Fatal("failed job record carries no recovered stack")
	}
	// The stack must reach the panic site — through the engine, not just
	// the recovery shim.
	if !strings.Contains(stack, "faultinject") {
		t.Fatalf("stack does not show the panic site:\n%s", stack)
	}
	if fault.Panics.Load() != 1 {
		t.Fatalf("injected panics = %d, want 1", fault.Panics.Load())
	}
	if s.metrics.panics.Load() != 1 {
		t.Fatal("panic metric not incremented")
	}

	// The process keeps serving.
	code, hz, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz after panic: %d %v", code, hz)
	}

	// A failed run must not have been cached; the identical job now
	// succeeds end to end.
	fault.PanicAtTask(0)
	code, doc2, _ := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit: %d (cached=%v — failed result leaked into cache?)", code, doc2["cached"])
	}
	final2 := waitJob(t, ts.URL, jobID(t, doc2), 30*time.Second)
	if final2["state"] != string(JobDone) {
		t.Fatalf("identical job after panic: %v (%v)", final2["state"], final2["error"])
	}
}

// TestDeadlineExceeded: a job over its per-job deadline fails promptly
// with the typed deadline kind, and the stored error wraps ErrDeadline.
func TestDeadlineExceeded(t *testing.T) {
	fault := &faultinject.Hooks{}
	fault.SlowTask(25 * time.Millisecond)
	s, ts := testServer(t, Config{Fault: fault})
	registerSynth(t, ts.URL, "patients", "patients", 600)

	start := time.Now()
	code, doc, _ := submit(t, ts.URL, map[string]any{
		"dataset": "patients", "algorithm": "alg2", "k": 2, "t": 0.05,
		"timeout_ms": 120, "skip_assessment": true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitJob(t, ts.URL, jobID(t, doc), 30*time.Second)
	if final["state"] != string(JobFailed) || final["error_kind"] != errKindDeadline {
		t.Fatalf("deadline job: state=%v kind=%v err=%v", final["state"], final["error_kind"], final["error"])
	}
	// "Promptly": well under the test's own generous bound — the engine
	// checks ctx between rounds, and slow tasks are 25ms each.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline took %v to surface", elapsed)
	}
	if !strings.Contains(final["error"].(string), ErrDeadline.Error()) {
		t.Fatalf("stored error %q does not wrap ErrDeadline", final["error"])
	}
	if s.metrics.timeouts.Load() != 1 {
		t.Fatal("timeout metric not incremented")
	}
	fault.SlowTask(0)
}

// TestTransientRetrySucceeds: attempts failing with a transient error are
// retried with backoff and the job ultimately succeeds; a persistent
// transient fault exhausts the retry budget and fails with the transient
// kind.
func TestTransientRetrySucceeds(t *testing.T) {
	fault := &faultinject.Hooks{}
	fault.FailNextRuns(2)
	s, ts := testServer(t, Config{Fault: fault, RetryMax: 2, RetryBackoff: 5 * time.Millisecond})
	registerSynth(t, ts.URL, "census-mcd", "census", 200)

	code, doc, _ := submit(t, ts.URL, map[string]any{
		"dataset": "census", "algorithm": "alg3", "k": 3, "t": 0.25,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitJob(t, ts.URL, jobID(t, doc), 30*time.Second)
	if final["state"] != string(JobDone) {
		t.Fatalf("retried job: %v (%v)", final["state"], final["error"])
	}
	if final["attempts"].(float64) != 3 {
		t.Fatalf("attempts = %v, want 3 (2 transient failures + success)", final["attempts"])
	}
	if s.metrics.retries.Load() != 2 {
		t.Fatalf("retries = %d, want 2", s.metrics.retries.Load())
	}

	// Persistent transient fault: budget exhausts, job fails transient.
	fault.FailNextRuns(100)
	code, doc2, _ := submit(t, ts.URL, map[string]any{
		"dataset": "census", "algorithm": "alg3", "k": 7, "t": 0.25, "no_cache": true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit2: %d", code)
	}
	final2 := waitJob(t, ts.URL, jobID(t, doc2), 30*time.Second)
	if final2["state"] != string(JobFailed) || final2["error_kind"] != errKindTransient {
		t.Fatalf("exhausted retries: state=%v kind=%v", final2["state"], final2["error_kind"])
	}
	if final2["attempts"].(float64) != 3 { // first attempt + RetryMax retries
		t.Fatalf("attempts = %v, want 3", final2["attempts"])
	}
	fault.FailNextRuns(0)
}

// TestGracefulShutdownDrains: Shutdown with a generous grace lets queued
// and in-flight jobs finish (clean nil return), and post-drain submissions
// are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	s, ts := testServer(t, Config{MaxQueue: 8, JobWorkers: 1})
	registerSynth(t, ts.URL, "census-mcd", "census", 200)

	var ids []float64
	for i := 0; i < 3; i++ {
		code, doc, _ := submit(t, ts.URL, map[string]any{
			"dataset": "census", "algorithm": "alg3", "k": 2 + i, "t": 0.2, "no_cache": true,
		})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, jobID(t, doc))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown returned %v, want nil", err)
	}
	for _, id := range ids {
		code, doc, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%.0f", ts.URL, id), nil)
		if code != http.StatusOK || doc["state"] != string(JobDone) {
			t.Fatalf("job %v after drain: %v (%v)", id, doc["state"], doc["error"])
		}
	}
	// Draining refuses new work but stays reachable.
	code, _, _ := submit(t, ts.URL, map[string]any{"dataset": "census", "algorithm": "alg3", "k": 2, "t": 0.2})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", code)
	}
	code, hz, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK || hz["status"] != "draining" {
		t.Fatalf("healthz during drain: %d %v", code, hz)
	}
}

// TestShutdownGraceExpiryCancels: when in-flight work cannot finish within
// the grace period, Shutdown cancels it — the job lands in the canceled
// state and Shutdown still returns (with the grace context's error).
func TestShutdownGraceExpiryCancels(t *testing.T) {
	fault := &faultinject.Hooks{}
	fault.SlowTask(50 * time.Millisecond)
	s, ts := testServer(t, Config{JobWorkers: 1, Fault: fault})
	registerSynth(t, ts.URL, "patients", "patients", 600)

	code, doc, _ := submit(t, ts.URL, map[string]any{
		"dataset": "patients", "algorithm": "alg2", "k": 2, "t": 0.05, "skip_assessment": true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Give the job a moment to start.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.inFlight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("grace-expired shutdown returned nil, want context error")
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("shutdown hung %v after grace expiry", elapsed)
	}
	final := waitJob(t, ts.URL, jobID(t, doc), 10*time.Second)
	if final["state"] != string(JobCanceled) {
		t.Fatalf("in-flight job after forced shutdown: %v", final["state"])
	}
	fault.SlowTask(0)
}

// TestFaultInjectionStress is the heavy leg CI runs with SERVE_FAULT_HEAVY:
// a burst of jobs under rotating faults (panics, slowdowns, transients)
// must leave the server healthy, every job in a terminal state, and a
// final clean job working.
func TestFaultInjectionStress(t *testing.T) {
	if os.Getenv("SERVE_FAULT_HEAVY") == "" {
		t.Skip("set SERVE_FAULT_HEAVY=1 for the heavy fault-injection leg")
	}
	fault := &faultinject.Hooks{}
	s, ts := testServer(t, Config{MaxQueue: 32, JobWorkers: 4, Fault: fault,
		RetryMax: 1, RetryBackoff: time.Millisecond})
	registerSynth(t, ts.URL, "census-mcd", "census", 240)

	var ids []float64
	for round := 0; round < 12; round++ {
		switch round % 4 {
		case 0:
			fault.PanicAtTask(1 + round%5)
		case 1:
			fault.PanicAtTask(0)
			fault.FailNextRuns(2)
		case 2:
			fault.SlowTask(time.Millisecond)
		case 3:
			fault.SlowTask(0)
		}
		code, doc, _ := submit(t, ts.URL, map[string]any{
			"dataset": "census", "algorithm": []string{"alg1", "alg2", "alg3"}[round%3],
			"k": 2 + round%4, "t": 0.15, "no_cache": true, "skip_assessment": true,
		})
		switch code {
		case http.StatusAccepted, http.StatusOK:
			ids = append(ids, jobID(t, doc))
			if round%4 == 0 {
				// The next round disarms the panic; let this round's job
				// reach its armed task first, so the fault lands every run.
				waitJob(t, ts.URL, jobID(t, doc), 60*time.Second)
			}
		case http.StatusTooManyRequests:
			// Shedding under stress is correct behavior.
		default:
			t.Fatalf("round %d: status %d (%v)", round, code, doc)
		}
	}
	for _, id := range ids {
		waitJob(t, ts.URL, id, 60*time.Second)
	}

	// Disarm everything: the server must still do clean work.
	fault.PanicAtTask(0)
	fault.SlowTask(0)
	fault.FailNextRuns(0)
	code, doc, _ := submit(t, ts.URL, map[string]any{
		"dataset": "census", "algorithm": "alg3", "k": 5, "t": 0.15,
	})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("final submit: %d", code)
	}
	final := waitJob(t, ts.URL, jobID(t, doc), 60*time.Second)
	if final["state"] != string(JobDone) {
		t.Fatalf("final clean job: %v (%v)", final["state"], final["error"])
	}
	code, hz, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz after stress: %d %v", code, hz)
	}
	if s.metrics.panics.Load() == 0 {
		t.Fatal("stress run injected no panics — fault wiring broken")
	}
}
