// Package serve is the fault-tolerant anonymization service layer over
// core.Engine: dataset registration and epoch ingest, asynchronous
// anonymization jobs (submit / status-with-progress / result / cancel),
// and the ops endpoints (/healthz, /metrics) a long-running deployment
// needs. Robustness is the headline contract:
//
//   - Panic isolation: a panicking job — a defensive panic escaping the
//     clustering core, on the run goroutine or re-raised from a worker
//     pool — fails only that job; its record carries the recovered value
//     and stack, and the process keeps serving.
//   - Deadlines: every job runs under context.WithTimeout; exceeding it
//     fails the job with the typed ErrDeadline promptly.
//   - Backpressure: the job queue is bounded; submissions beyond the bound
//     are shed with 429 and a Retry-After estimate instead of growing the
//     process without bound.
//   - Retry with backoff: attempts failing with a transient
//     (non-deterministic) error are retried with exponential backoff;
//     deterministic failures — panics included — are not.
//   - Graceful shutdown: Shutdown stops admissions, drains queued and
//     in-flight jobs within the caller's grace context, then cancels
//     whatever remains.
//
// Identical submissions are served from a keyed result cache over
// (dataset, epoch, Spec) without re-running the engine. A job's result
// document is formatted once, when it finishes, and the job record and the
// cache share it, so a fetch copies escaped bytes instead of re-encoding
// the release; the job keeps no table or clusters. Appends and deletes
// take their own per-dataset lock and never wait for a running job. Jobs
// on the paper's three algorithms run warm by default: after an append or
// delete epoch the engine repairs its cached partition locally instead of
// recomputing from scratch (cold=true per job opts out), and /metrics
// reports the warm hit/miss split plus the repair scope. The
// internal/serve/faultinject subpackage can inject panics, slowdowns and
// transient failures so the conformance suite proves each degradation
// path end to end.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve/faultinject"
	"repro/internal/store"
	"repro/internal/synth"
)

// Config tunes a Server. The zero value gets sensible defaults from New.
type Config struct {
	// MaxQueue bounds the job queue; submissions beyond it get 429.
	MaxQueue int
	// JobWorkers is the number of jobs executed concurrently.
	JobWorkers int
	// DefaultTimeout is the per-job deadline when a submission names none.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines.
	MaxTimeout time.Duration
	// RetryMax is the number of retries (beyond the first attempt) for
	// transient failures.
	RetryMax int
	// RetryBackoff is the first retry's backoff; it doubles per attempt.
	RetryBackoff time.Duration
	// CacheEntries bounds the result cache (0 disables caching).
	CacheEntries int
	// JobHistory bounds retained finished-job records; the oldest finished
	// jobs are forgotten beyond it.
	JobHistory int
	// MaxDatasets bounds registered datasets.
	MaxDatasets int
	// EngineWorkers caps each dataset engine's parallel fan-out
	// (core.WithWorkers); 0 keeps the engine default.
	EngineWorkers int
	// MaxBodyBytes bounds request bodies (CSV uploads, append batches).
	MaxBodyBytes int64
	// Fault, when non-nil, injects faults into job execution; see package
	// faultinject. Nil in production.
	Fault *faultinject.Hooks
	// Store, when non-nil, makes registered datasets persistent: each
	// registration snapshots the table into the store and every append or
	// delete epoch writes through durably before it becomes visible, so
	// RestoreDatasets on a later boot serves the same datasets at the same
	// epochs with identical table hashes. Nil keeps datasets in memory only.
	Store store.Backend
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	} else if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 1024
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// datasetEntry is one registered dataset and its prepared engine. runMu
// lets one job run on the dataset at a time, so current can route engine
// progress events (and the fault layer's task indices) to the job running
// right now; a run reports the epoch it released itself (Result.Epoch),
// so appends and deletes need not wait for it. epochMu serializes appends
// and deletes, so the (rows, epoch) pair each answers is the one its own
// epoch made.
type datasetEntry struct {
	name    string
	eng     *core.Engine
	created time.Time

	runMu   sync.Mutex
	current atomic.Pointer[job]
	epochMu sync.Mutex
}

// Server is the anonymization service. It implements http.Handler; create
// with New, stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics metrics
	cache   *resultCache

	rootCtx    context.Context
	rootCancel context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	datasets map[string]*datasetEntry
	reserved map[string]bool // names mid-registration, held out of reuse
	jobs     map[uint64]*job
	history  []uint64 // finished job ids, oldest first
	nextID   uint64
}

// New builds a Server and starts its job workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		cache:    newResultCache(cfg.CacheEntries),
		queue:    make(chan *job, cfg.MaxQueue),
		datasets: make(map[string]*datasetEntry),
		reserved: make(map[string]bool),
		jobs:     make(map[uint64]*job),
	}
	s.metrics.start = time.Now()
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegisterDataset)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.handleGetDataset)
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleRemoveDataset)
	s.mux.HandleFunc("POST /v1/datasets/{name}/rows", s.handleAppend)
	s.mux.HandleFunc("DELETE /v1/datasets/{name}/rows", s.handleDeleteRows)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)

	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server: no new submissions are admitted, queued and
// in-flight jobs run to completion within ctx, and when ctx expires first
// the remaining jobs are canceled (finishing in the canceled state) before
// Shutdown returns. It returns ctx.Err() when the grace period expired,
// nil on a clean drain. Safe to call once; later calls just wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.rootCancel() // cancel in-flight job contexts
		<-done
		return ctx.Err()
	}
}

// --- datasets ---

// RegisterDataset registers a table under a name and prepares its engine.
// With a persistent store configured (Config.Store) the table is
// snapshotted into the store first and the engine opened over the stored
// bytes, so the state it serves is exactly what a post-restart
// RestoreDatasets will serve. It is the programmatic form of
// POST /v1/datasets, used by tcserved's preload flag.
func (s *Server) RegisterDataset(name string, t *dataset.Table) error {
	if name == "" {
		return errors.New("serve: dataset name must not be empty")
	}
	// Reserve the name before touching the store: a registration losing the
	// race must fail here, not after writing (and orphaning) a snapshot
	// file for a name that turns out to be taken.
	if err := s.reserveDataset(name); err != nil {
		return err
	}
	ds := &datasetEntry{name: name, created: time.Now()}
	var (
		eng *core.Engine
		err error
	)
	if s.cfg.Store != nil {
		eng, err = core.Create(s.cfg.Store, name, t, s.engineOptions(ds)...)
		if err != nil && !errors.Is(err, store.ErrExists) {
			// The snapshot may have been committed before the engine build
			// failed; best-effort removal keeps the store orphan-free.
			_ = s.cfg.Store.Remove(name)
		}
	} else {
		eng, err = core.NewEngine(t, s.engineOptions(ds)...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.reserved, name)
	if err != nil {
		return err
	}
	ds.eng = eng
	s.datasets[name] = ds
	return nil
}

// reserveDataset holds a name for an in-flight registration, enforcing
// the availability and capacity checks up front.
func (s *Server) reserveDataset(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errors.New("serve: server is draining")
	}
	if _, ok := s.datasets[name]; ok {
		return fmt.Errorf("serve: dataset %q already registered", name)
	}
	if s.reserved[name] {
		return fmt.Errorf("serve: dataset %q already registered", name)
	}
	if len(s.datasets)+len(s.reserved) >= s.cfg.MaxDatasets {
		return fmt.Errorf("serve: dataset limit (%d) reached", s.cfg.MaxDatasets)
	}
	s.reserved[name] = true
	return nil
}

// RestoreDatasets opens every dataset committed in Config.Store and
// registers it under its stored name — the boot-time counterpart of
// write-through registration. Each restored engine carries the epoch
// counter and bit-identical table of the engine that wrote the store, so
// releases match across the restart. It returns
// the restored names in lexical order; with no store configured it
// restores nothing.
//
// A data directory holding files the store cannot account for does not
// abort the boot: every intact dataset is still restored, and the names
// come back alongside a *store.StrayFilesError (match with errors.As)
// describing what was skipped, so the operator learns about the strays
// without losing service.
func (s *Server) RestoreDatasets() ([]string, error) {
	if s.cfg.Store == nil {
		return nil, nil
	}
	names, listErr := s.cfg.Store.List()
	var strays *store.StrayFilesError
	if listErr != nil && !errors.As(listErr, &strays) {
		return nil, listErr
	}
	for _, name := range names {
		if err := s.reserveDataset(name); err != nil {
			return nil, err
		}
		ds := &datasetEntry{name: name, created: time.Now()}
		eng, err := core.Open(s.cfg.Store, name, s.engineOptions(ds)...)
		s.mu.Lock()
		delete(s.reserved, name)
		if err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("serve: restoring dataset %q: %w", name, err)
		}
		ds.eng = eng
		s.datasets[name] = ds
		s.mu.Unlock()
	}
	return names, listErr
}

// engineOptions wires the per-dataset engine: the worker cap and the
// progress hook that routes events to the running job and gives the fault
// layer its task index.
func (s *Server) engineOptions(ds *datasetEntry) []core.Option {
	opts := []core.Option{core.WithProgress(func(p core.Progress) {
		j := ds.current.Load()
		if j == nil {
			return
		}
		n := j.noteProgress(p)
		s.cfg.Fault.OnTask(n)
	})}
	if s.cfg.EngineWorkers > 0 {
		opts = append(opts, core.WithWorkers(s.cfg.EngineWorkers))
	}
	return opts
}

func (s *Server) dataset(name string) *datasetEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.datasets[name]
}

// SynthTable resolves the built-in synthetic dataset names ("census-mcd",
// "census-hcd", "patients"), so a server can be exercised without
// uploading data; n <= 0 selects each generator's default size. It backs
// both the ?synth registration parameter and tcserved's -preload flag.
func SynthTable(kind string, n int) (*dataset.Table, error) {
	switch kind {
	case "census-mcd":
		if n <= 0 {
			return synth.CensusMCD(), nil
		}
		return synth.Census(n, synth.FedTax, synth.DefaultSeed), nil
	case "census-hcd":
		if n <= 0 {
			return synth.CensusHCD(), nil
		}
		return synth.Census(n, synth.Fica, synth.DefaultSeed), nil
	case "patients":
		if n <= 0 {
			n = 1000
		}
		return synth.PatientDischarge(n, synth.DefaultSeed), nil
	default:
		return nil, fmt.Errorf("serve: unknown synthetic dataset %q", kind)
	}
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	var tbl *dataset.Table
	if kind := r.URL.Query().Get("synth"); kind != "" {
		n := 0
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 1 {
				httpError(w, http.StatusBadRequest, "bad n parameter")
				return
			}
			n = v
		}
		t, err := SynthTable(kind, n)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if name == "" {
			name = kind
		}
		tbl = t
	} else {
		if name == "" {
			httpError(w, http.StatusBadRequest, "name query parameter required for CSV registration")
			return
		}
		t, err := dataset.ReadCSV(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "parsing CSV: "+err.Error())
			return
		}
		tbl = t
	}
	if err := s.RegisterDataset(name, tbl); err != nil {
		code := http.StatusConflict
		if strings.Contains(err.Error(), "limit") {
			code = http.StatusTooManyRequests
		}
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name": name, "rows": tbl.Len(), "epoch": 0,
	})
}

// handleListDatasets returns one summary document per dataset, sorted by
// name: row count, epoch, a compact "name:role:kind" schema summary, and
// the table hash a client can compare across restarts to confirm a
// -data-dir restore served back the exact bytes.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]*datasetEntry, 0, len(s.datasets))
	for _, ds := range s.datasets {
		entries = append(entries, ds)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	docs := make([]map[string]any, len(entries))
	for i, ds := range entries {
		tbl := ds.eng.Table()
		sch := tbl.Schema()
		summary := make([]string, sch.Len())
		for c := 0; c < sch.Len(); c++ {
			a := sch.Attr(c)
			summary[c] = a.Name + ":" + a.Role.String() + ":" + a.Kind.String()
		}
		docs[i] = map[string]any{
			"name":       ds.name,
			"rows":       tbl.Len(),
			"epoch":      ds.eng.Epoch(),
			"schema":     summary,
			"table_hash": store.TableHash(tbl),
			"created":    ds.created.UTC().Format(time.RFC3339),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": docs})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	ds := s.dataset(r.PathValue("name"))
	if ds == nil {
		httpError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	sch := ds.eng.Table().Schema()
	attrs := make([]map[string]string, sch.Len())
	for i := 0; i < sch.Len(); i++ {
		a := sch.Attr(i)
		attrs[i] = map[string]string{"name": a.Name, "role": a.Role.String(), "kind": a.Kind.String()}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":       ds.name,
		"rows":       ds.eng.Len(),
		"epoch":      ds.eng.Epoch(),
		"attributes": attrs,
		"table_hash": store.TableHash(ds.eng.Table()),
		"created":    ds.created.UTC().Format(time.RFC3339),
	})
}

// handleRemoveDataset unregisters a dataset and deletes its persistent
// state: the engine entry goes away, its cached results are evicted, and
// the backing store file (when a store is configured) is removed. A
// dataset with queued or running jobs is busy — 409, retry after they
// finish; finished jobs keep their results and history. 404 on unknown
// names.
func (s *Server) handleRemoveDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	ds, ok := s.datasets[name]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	for _, j := range s.jobs {
		if j.ds != ds {
			continue
		}
		j.mu.Lock()
		busy := j.state == JobQueued || j.state == JobRunning
		j.mu.Unlock()
		if busy {
			s.mu.Unlock()
			httpError(w, http.StatusConflict, "dataset has jobs in flight")
			return
		}
	}
	delete(s.datasets, name)
	s.mu.Unlock()
	s.cache.evictDataset(name)
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Remove(name); err != nil && !errors.Is(err, store.ErrUnknownDataset) {
			// The entry is already unregistered; surface the orphaned file.
			httpError(w, http.StatusInternalServerError, "removing stored dataset: "+err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "removed": true})
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	ds := s.dataset(r.PathValue("name"))
	if ds == nil {
		httpError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	var req struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parsing body: "+err.Error())
		return
	}
	if len(req.Rows) == 0 {
		httpError(w, http.StatusBadRequest, "no rows")
		return
	}
	ds.epochMu.Lock()
	err := ds.eng.Append(req.Rows...)
	rows, epoch := ds.eng.Len(), ds.eng.Epoch()
	ds.epochMu.Unlock()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name": ds.name, "rows": rows, "epoch": epoch,
	})
}

// handleDeleteRows removes records by current row id, advancing the dataset
// one tombstone epoch. Like handleAppend it serializes on epochMu and does
// not wait for a running job; warm seeds cached for earlier epochs are
// remapped through the tombstones on the next warm job rather than
// discarded.
func (s *Server) handleDeleteRows(w http.ResponseWriter, r *http.Request) {
	ds := s.dataset(r.PathValue("name"))
	if ds == nil {
		httpError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	var req struct {
		Rows []int `json:"rows"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parsing body: "+err.Error())
		return
	}
	if len(req.Rows) == 0 {
		httpError(w, http.StatusBadRequest, "no rows")
		return
	}
	ds.epochMu.Lock()
	err := ds.eng.Delete(req.Rows...)
	rows, epoch := ds.eng.Len(), ds.eng.Epoch()
	ds.epochMu.Unlock()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name": ds.name, "rows": rows, "epoch": epoch,
	})
}

// --- jobs ---

type submitRequest struct {
	Dataset        string  `json:"dataset"`
	Algorithm      string  `json:"algorithm"`
	K              int     `json:"k"`
	T              float64 `json:"t"`
	TimeoutMillis  int64   `json:"timeout_ms"`
	SkipAssessment bool    `json:"skip_assessment"`
	NoCache        bool    `json:"no_cache"`
	// Cold opts this job out of warm-start re-anonymization. By default the
	// paper's three algorithms run with core.Spec.Warm set, so a re-run after
	// an append/delete epoch is repaired from the previous partition instead
	// of recomputed from scratch; cold=true forces a from-scratch run that
	// neither reads nor seeds the engine's warm cache. Baselines always run
	// cold regardless.
	Cold bool `json:"cold"`
	// Sharded requests sharded partition construction (core.Spec.Sharded):
	// clusters are built concurrently from disjoint k-d shards and
	// reconciled at the boundaries. k and t hold exactly, but the partition
	// varies with the engine worker budget, so sharded releases are cached
	// under their own (sharded, workers) key and never alias serial ones.
	// Sharded jobs always run cold (the warm seed cache stores
	// worker-independent serial partitions only). Only alg1/merge and
	// alg2/kanon-first support it; other algorithms are rejected with 400.
	Sharded bool `json:"sharded"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parsing body: "+err.Error())
		return
	}
	ds := s.dataset(req.Dataset)
	if ds == nil {
		httpError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	alg, err := core.ParseAlgorithm(req.Algorithm)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec := core.Spec{Algorithm: alg, K: req.K, T: req.T, SkipAssessment: req.SkipAssessment, Sharded: req.Sharded}
	// Warm by default for the paper's algorithms; cold=true is the escape
	// hatch. Baselines never set Warm, keeping their cache keys stable, and
	// neither do sharded jobs — they run cold by design, and leaving Warm off
	// keeps one cache key per sharded parameter point.
	switch alg {
	case core.Merge, core.KAnonymityFirst, core.TClosenessFirst:
		spec.Warm = !req.Cold && !req.Sharded
	}
	if err := core.ValidateSpec(spec); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		// Cap in milliseconds first: the Duration product overflows above
		// about 9.2e12 ms and would wrap into a negative deadline.
		timeout = time.Duration(min(req.TimeoutMillis, s.cfg.MaxTimeout.Milliseconds())) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	epoch := ds.eng.Epoch()
	j := &job{
		ds:        ds,
		spec:      spec,
		algName:   alg.String(),
		timeout:   timeout,
		noCache:   req.NoCache,
		state:     JobQueued,
		submitted: time.Now(),
		epoch:     epoch,
	}

	// Cache fast path: an identical (dataset epoch, Spec) release is served
	// without touching the queue or the engine.
	if !req.NoCache {
		if rel, ok := s.cache.get(s.cacheKeyOf(ds.name, epoch, spec)); ok {
			s.metrics.cacheHits.Add(1)
			j.state = JobDone
			j.cached = true
			j.rel = rel
			j.started = j.submitted
			j.finished = j.submitted
			s.mu.Lock()
			s.registerJobLocked(j)
			s.retireLocked(j.id)
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, s.statusDoc(j))
			return
		}
		s.metrics.cacheMiss.Add(1)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Re-verify under the lock: the entry resolved before the cache check
	// could have been removed (DELETE /v1/datasets/{name}) since, and a job
	// must never enqueue against an unregistered engine.
	if s.datasets[req.Dataset] != ds {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	select {
	case s.queue <- j:
		s.registerJobLocked(j)
		s.mu.Unlock()
		w.Header().Set("Location", fmt.Sprintf("/v1/jobs/%d", j.id))
		writeJSON(w, http.StatusAccepted, s.statusDoc(j))
	default:
		s.mu.Unlock()
		s.metrics.shed.Add(1)
		secs, estimate := s.retryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error": "job queue full",
			// The header is clamped to 60s (proxies and generic clients treat
			// large values poorly); the body carries the real backlog estimate
			// so clients running long jobs can back off realistically.
			"retry_after_seconds": estimate,
		})
	}
}

// retryAfter estimates when queue capacity should free up: the p50 run
// latency times the queue backlog per worker. The first value is for the
// Retry-After header, clamped to [1, 60]; the second is the unclamped
// estimate in seconds (at least 1 — with no completed runs yet, p50 is
// unknown and both fall back to 1).
func (s *Server) retryAfter() (headerSecs int, estimateSecs float64) {
	p50, _ := s.metrics.quantiles()
	if p50 <= 0 {
		return 1, 1
	}
	backlogPerWorker := float64(len(s.queue))/float64(s.cfg.JobWorkers) + 1
	estimateSecs = p50.Seconds() * backlogPerWorker
	if estimateSecs < 1 {
		estimateSecs = 1
	}
	secs := int(math.Ceil(estimateSecs))
	if secs > 60 {
		secs = 60
	}
	return secs, estimateSecs
}

func (s *Server) registerJobLocked(j *job) {
	s.nextID++
	j.id = s.nextID
	s.jobs[j.id] = j
	s.pruneHistoryLocked()
}

// retireLocked adds a job that has just finished to the history: every
// path that finishes a job (a run, a cache hit, a cancel while queued)
// calls it once, after the job reads finished.
func (s *Server) retireLocked(id uint64) {
	s.history = append(s.history, id)
	s.pruneHistoryLocked()
}

// pruneHistoryLocked forgets the oldest finished jobs beyond JobHistory so
// a long-running server's job map stays bounded. Queued and running jobs
// are not in the history, so they are never pruned.
func (s *Server) pruneHistoryLocked() {
	for len(s.jobs) > s.cfg.JobHistory && len(s.history) > 0 {
		delete(s.jobs, s.history[0])
		s.history = s.history[1:]
	}
}

func (s *Server) job(idStr string) *job {
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, s.statusDoc(j))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	state, finished := j.requestCancel(&s.metrics)
	if finished {
		s.mu.Lock()
		s.retireLocked(j.id)
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "state": state})
}

// handleJobResult serves a done job's result document: the job's id and
// cached flag, then the release formatted when the job finished.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	j.mu.Lock()
	state, rel, cached := j.state, j.rel, j.cached
	j.mu.Unlock()
	if state != JobDone {
		writeJSON(w, http.StatusConflict, s.statusDoc(j))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = rel.writeTo(w, j.id, cached) // a failed write means the client left
}

// statusDoc renders a job's record, including — for failed jobs — the
// error kind and, for panics, the recovered stack.
func (s *Server) statusDoc(j *job) map[string]any {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := map[string]any{
		"id":         j.id,
		"dataset":    j.ds.name,
		"epoch":      j.epoch,
		"algorithm":  j.algName,
		"k":          j.spec.K,
		"t":          j.spec.T,
		"state":      j.state,
		"cached":     j.cached,
		"attempts":   j.attempts,
		"timeout_ms": j.timeout.Milliseconds(),
		"submitted":  j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if j.state == JobRunning || (j.state == JobDone && !j.cached) ||
		j.state == JobFailed {
		doc["progress"] = map[string]any{
			"phase": j.progress.Phase,
			"done":  j.progress.Done,
			"total": j.progress.Total,
		}
	}
	if j.err != nil {
		doc["error"] = j.err.Error()
		doc["error_kind"] = j.errKind
		if len(j.stack) > 0 {
			doc["stack"] = string(j.stack)
		}
	}
	if !j.finished.IsZero() {
		doc["finished"] = j.finished.UTC().Format(time.RFC3339Nano)
		if !j.started.IsZero() {
			doc["run_ms"] = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	return doc
}

// --- ops ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshotMetrics())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}
