package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/synth"
)

// FuzzHandlers sends fuzzed bodies to the handlers that decode client
// input — job submission, row appends and CSV registration — on a server
// holding one small dataset. A handler may reject a body with any 4xx; it
// must not panic, and the only 5xx it may answer is the 503 of shedding or
// draining.
func FuzzHandlers(f *testing.F) {
	// Appends wait for the running job, so short deadlines keep a fuzzed
	// job from stalling the inputs behind it.
	s := New(Config{
		JobWorkers: 1, MaxQueue: 4, MaxDatasets: 4, JobHistory: 64, EngineWorkers: 1,
		DefaultTimeout: time.Second, MaxTimeout: time.Second, MaxBodyBytes: 1 << 16,
	})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	tbl := synth.Census(60, synth.FedTax, synth.DefaultSeed)
	if err := s.RegisterDataset("census", tbl); err != nil {
		f.Fatal(err)
	}
	var csv bytes.Buffer
	if err := tbl.WriteCSV(&csv); err != nil {
		f.Fatal(err)
	}
	routes := [...]string{"/v1/jobs", "/v1/datasets/census/rows", "/v1/datasets?name=upload"}
	// Timeouts past the Duration range once wrapped into negative deadlines.
	f.Add(uint8(0), []byte(`{"dataset":"census","algorithm":"alg3","k":3,"t":0.2,"timeout_ms":9300000000000}`))
	f.Add(uint8(0), []byte(`{"dataset":"census","algorithm":"alg2","k":3,"t":0.2,"timeout_ms":18446744073709}`))
	f.Add(uint8(0), []byte(`{"dataset":"census","algorithm":"mondrian","k":2,"t":0.5,"cold":true}`))
	f.Add(uint8(1), []byte(`{"rows":[[40000,9000,2500]]}`))
	f.Add(uint8(1), []byte(`{"rows":[["x",1e308,-1]]}`))
	f.Add(uint8(2), csv.Bytes())
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if path == routes[2] && rec.Code == http.StatusCreated {
			// Keep the server at one dataset: unregister the upload.
			s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v1/datasets/upload", nil))
		}
	})
}
