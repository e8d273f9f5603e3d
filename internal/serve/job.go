package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/par"
)

// JobState is the lifecycle of an anonymization job.
type JobState string

const (
	// JobQueued: accepted, waiting for a job worker.
	JobQueued JobState = "queued"
	// JobRunning: executing on the dataset's engine.
	JobRunning JobState = "running"
	// JobDone: finished with a release (possibly straight from the cache).
	JobDone JobState = "done"
	// JobFailed: finished with an error (deadline, panic, engine error).
	JobFailed JobState = "failed"
	// JobCanceled: canceled by the client or by shutdown before finishing.
	JobCanceled JobState = "canceled"
)

// Error kinds exposed in job records, so clients can branch on failure
// class without parsing messages.
const (
	errKindDeadline  = "deadline"
	errKindPanic     = "panic"
	errKindTransient = "transient"
	errKindError     = "error"
)

// ErrDeadline is the typed error of a job that exceeded its per-job
// deadline; job records wrap it, so errors.Is works on the stored error.
var ErrDeadline = errors.New("serve: job deadline exceeded")

// PanicError is a run attempt that panicked: the recovered value plus the
// stack of the panicking goroutine. Worker-pool panics arrive as
// *par.Panic with the worker's own stack preserved; panics on the run
// goroutine carry the stack captured at the recovery point.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("serve: job panicked: %v", e.Value) }

// transienter classifies errors whose cause is non-deterministic — worth
// retrying. faultinject's injected transient error implements it, and so
// can any future storage/network error type.
type transienter interface{ Transient() bool }

func isTransient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.Transient()
}

// job is one asynchronous anonymization request and its full record: spec,
// lifecycle, progress, attempts, outcome. All mutable fields are guarded
// by mu; the identity fields are immutable after submit.
type job struct {
	id      uint64
	ds      *datasetEntry
	spec    core.Spec
	algName string
	timeout time.Duration
	noCache bool

	mu         sync.Mutex
	state      JobState
	cancelReq  bool
	cancelRun  context.CancelFunc // non-nil while running
	attempts   int
	taskEvents int // progress ticks of the current attempt (faultinject index)
	progress   core.Progress
	epoch      int // dataset epoch the job ran (or hit the cache) against
	cached     bool
	res        *core.Result
	err        error
	errKind    string
	stack      []byte
	submitted  time.Time
	started    time.Time
	finished   time.Time
}

// noteProgress records the latest progress event and returns the 1-based
// task-event index within the current attempt.
func (j *job) noteProgress(p core.Progress) int {
	j.mu.Lock()
	j.taskEvents++
	n := j.taskEvents
	j.progress = p
	j.mu.Unlock()
	return n
}

// requestCancel cancels the job: a queued job flips straight to canceled
// (the worker will skip it), a running job gets its context canceled and
// finishes through the normal classification path. Finished jobs are
// untouched. Returns the state after the request.
func (j *job) requestCancel(m *metrics) JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobQueued:
		j.cancelReq = true
		j.state = JobCanceled
		j.errKind = errKindError
		j.err = context.Canceled
		j.finished = time.Now()
		m.cancels.Add(1)
	case JobRunning:
		j.cancelReq = true
		if j.cancelRun != nil {
			j.cancelRun()
		}
	}
	return j.state
}

// runJob executes one dequeued job end to end: deadline, attempts with
// backoff on transient failures, panic recovery, classification, cache
// publication.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != JobQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()

	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	ctx, cancel := context.WithTimeout(s.rootCtx, j.timeout)
	defer cancel()
	j.mu.Lock()
	j.cancelRun = cancel
	canceled := j.cancelReq // cancel raced the dequeue
	j.mu.Unlock()
	if canceled {
		cancel()
	}

	var res *core.Result
	var err error
	for attempt := 1; ; attempt++ {
		j.mu.Lock()
		j.attempts = attempt
		j.taskEvents = 0
		j.mu.Unlock()
		res, err = s.attempt(ctx, j)
		if err == nil || ctx.Err() != nil || !isTransient(err) || attempt > s.cfg.RetryMax {
			break
		}
		s.metrics.transients.Add(1)
		s.metrics.retries.Add(1)
		backoff := s.cfg.RetryBackoff << (attempt - 1)
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
		if ctx.Err() != nil {
			err = ctx.Err()
			break
		}
	}
	s.finishJob(j, res, err)
}

// attempt runs the engine once with panic isolation. The dataset's run
// lock serializes runs and appends per dataset, which makes the epoch read
// exact for the cache key; the engine itself stays concurrency-safe — the
// lock is a serving-layer bookkeeping contract, not an engine requirement.
func (s *Server) attempt(ctx context.Context, j *job) (res *core.Result, err error) {
	if err := s.cfg.Fault.BeforeAttempt(); err != nil {
		return nil, err
	}
	defer func() {
		if v := recover(); v != nil {
			s.metrics.panics.Add(1)
			if p, ok := v.(*par.Panic); ok {
				err = &PanicError{Value: p.Value, Stack: p.Stack}
			} else {
				err = &PanicError{Value: v, Stack: debug.Stack()}
			}
		}
	}()
	ds := j.ds
	ds.runMu.Lock()
	defer ds.runMu.Unlock()
	ds.current.Store(j)
	defer ds.current.Store(nil)
	j.mu.Lock()
	j.epoch = ds.eng.Epoch()
	j.mu.Unlock()
	return ds.eng.Run(ctx, j.spec)
}

// finishJob classifies the outcome into the job record and the metrics,
// and publishes successful results to the cache.
func (s *Server) finishJob(j *job, res *core.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancelRun = nil
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = JobDone
		j.res = res
		s.metrics.runs.Add(1)
		s.metrics.observe(j.finished.Sub(j.started))
		if res.Warm != nil {
			s.metrics.warmHits.Add(1)
			s.metrics.warmRepairRows.Add(int64(res.Warm.ScopeRows))
			s.metrics.warmRepairClusters.Add(int64(res.Warm.Folded + res.Warm.Split + res.Warm.Repaired))
		} else if j.spec.Warm {
			s.metrics.warmMisses.Add(1)
		}
		if j.spec.Sharded {
			s.metrics.shardedRuns.Add(1)
		}
		if !j.noCache {
			s.cache.put(s.cacheKeyOf(j.ds.name, j.epoch, j.spec), res)
		}
	case errors.Is(err, context.DeadlineExceeded):
		j.state = JobFailed
		j.errKind = errKindDeadline
		j.err = fmt.Errorf("%w after %v", ErrDeadline, j.timeout)
		s.metrics.timeouts.Add(1)
		s.metrics.failures.Add(1)
	case errors.Is(err, context.Canceled):
		// Client cancel or shutdown grace expiry; either way the job did
		// not fail on its own.
		j.state = JobCanceled
		j.errKind = errKindError
		j.err = err
		s.metrics.cancels.Add(1)
	default:
		j.state = JobFailed
		j.err = err
		var pe *PanicError
		switch {
		case errors.As(err, &pe):
			j.errKind = errKindPanic
			j.stack = pe.Stack
		case isTransient(err):
			j.errKind = errKindTransient
			s.metrics.transients.Add(1)
		default:
			j.errKind = errKindError
		}
		s.metrics.failures.Add(1)
	}
}

// cacheKeyOf derives the result-cache key of a submission. Serial releases
// are worker-independent (the parallel determinism contract), so their keys
// carry workers == 0; sharded releases vary with the engine worker budget,
// so their keys pin the budget the dataset's engine runs under.
func (s *Server) cacheKeyOf(dataset string, epoch int, spec core.Spec) cacheKey {
	key := cacheKey{
		dataset:        dataset,
		epoch:          epoch,
		algorithm:      spec.Algorithm,
		k:              spec.K,
		t:              spec.T,
		skipAssessment: spec.SkipAssessment,
		warm:           spec.Warm,
		sharded:        spec.Sharded,
	}
	if spec.Sharded {
		key.workers = s.engineWorkers()
	}
	return key
}

// engineWorkers is the effective parallel fan-out of every dataset engine:
// the configured cap, or the process-wide default the engine falls back to.
func (s *Server) engineWorkers() int {
	if s.cfg.EngineWorkers > 0 {
		return s.cfg.EngineWorkers
	}
	return runtime.GOMAXPROCS(0)
}
