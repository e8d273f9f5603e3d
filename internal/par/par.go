// Package par holds the small concurrency primitives shared by the
// partition loops and the benchmark drivers: a bounded one-shot fan-out
// (Cells), a reusable fixed-size worker pool (Pool) for loops that fan out
// thousands of times, and an order-stable argmin reduction whose result is
// bit-identical to the serial left-to-right scan at any worker count.
//
// # Panic isolation
//
// A panic inside a task does not crash the process from an anonymous
// worker goroutine: every fan-out recovers worker panics, lets the round
// finish (remaining tasks are skipped once a panic is recorded), and
// re-raises the first panic on the submitting goroutine as a *Panic
// carrying the original value and the panicking worker's stack. Callers
// that recover engine panics — the serving layer — therefore see them on
// the goroutine that called Run/Cells/Chunks, with the worker stack
// preserved, and the pool itself stays usable for later rounds. On the
// serial fallbacks (degenerate pool, single chunk) tasks run inline, so a
// panic propagates on the caller's goroutine unwrapped, exactly as before.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is a worker panic re-raised on the submitting goroutine. Value is
// the original panic value; Stack is the stack of the panicking worker
// goroutine, captured at recovery time.
type Panic struct {
	Value any
	Stack []byte
}

// Error makes *Panic an error, so services recovering it can store and
// classify it like any other failure.
func (p *Panic) Error() string {
	return fmt.Sprintf("par: worker panic: %v", p.Value)
}

// String returns the panic value followed by the captured worker stack.
func (p *Panic) String() string {
	return fmt.Sprintf("par: worker panic: %v\n%s", p.Value, p.Stack)
}

// panicBox records the first panic of one fan-out round. Later panics of
// the same round are dropped: the round fails once, deterministically, on
// the earliest recovery.
type panicBox struct {
	tripped atomic.Bool
	mu      sync.Mutex
	p       *Panic
}

// run executes fn, recording a recovered panic. Once the box is tripped,
// remaining tasks of the round are skipped — their results would be
// discarded by the re-raise anyway, and skipping lets a poisoned round
// drain quickly.
func (b *panicBox) run(fn func()) {
	if b.tripped.Load() {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			b.record(v)
		}
	}()
	fn()
}

// record stores the first panic of the round, preserving an already
// wrapped *Panic (a nested fan-out) instead of double-wrapping it.
func (b *panicBox) record(v any) {
	b.mu.Lock()
	if b.p == nil {
		if p, ok := v.(*Panic); ok {
			b.p = p
		} else {
			b.p = &Panic{Value: v, Stack: debug.Stack()}
		}
		b.tripped.Store(true)
	}
	b.mu.Unlock()
}

// rethrow re-raises the recorded panic, if any, on the calling goroutine.
// It must be called after the round's workers are known to be done, so the
// read is ordered after every record.
func (b *panicBox) rethrow() {
	if b.tripped.Load() {
		b.mu.Lock()
		p := b.p
		b.mu.Unlock()
		panic(p)
	}
}

// Cells evaluates n independent work items on a bounded pool of worker
// goroutines and returns when all are done. Each item must write only its
// own result slot, which keeps the overall output deterministic regardless
// of scheduling. workers < 1 is treated as 1.
func Cells(n, workers int, cell func(i int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var box panicBox
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The recover inside box.run keeps the worker consuming after a
			// task panics, so the feeding loop below can never block on a
			// dead pool.
			for i := range work {
				box.run(func() { cell(i) })
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	box.rethrow()
}

// Chunks splits [0, n) into at most workers near-equal contiguous chunks and
// evaluates fn(w, lo, hi) for each on its own goroutine, returning when all
// are done. Chunk boundaries depend only on (n, workers), so any per-chunk
// result written to slot w is deterministic. workers < 1 is treated as 1; a
// single chunk runs on the calling goroutine with no fan-out at all, so
// serial callers pay nothing.
func Chunks(n, workers int, fn func(w, lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	var box panicBox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			box.run(func() { fn(w, w*n/workers, (w+1)*n/workers) })
		}(w)
	}
	wg.Wait()
	box.rethrow()
}

// Pool is a reusable fixed-size worker pool for loops that fan out many
// times (one fan-out per partition round, say): the goroutines are spawned
// once and fed through a channel, so a round pays only the channel handoff
// instead of a spawn per task. Run blocks until every task of the round is
// done, making rounds strictly sequential; tasks within a round must touch
// disjoint state (their own shard, their own result slot), which keeps the
// outcome deterministic regardless of scheduling.
//
// A Pool is owned by a single running goroutine: Run must not be called
// concurrently. Close releases the workers; a closed pool must not be used
// again.
type Pool struct {
	workers int
	work    chan poolTask
	wg      sync.WaitGroup
}

type poolTask struct {
	i    int
	fn   func(int)
	done *sync.WaitGroup
	box  *panicBox
}

// exec runs the task with panic capture, always signalling completion so a
// panicking round can neither deadlock Run nor kill the pooled worker.
func (t poolTask) exec() {
	defer t.done.Done()
	t.box.run(func() { t.fn(t.i) })
}

// NewPool spawns a pool of the given size. Sizes < 2 return a degenerate
// pool whose Run executes inline on the caller — the serial fallback every
// gated parallel seam relies on, costing nothing when tuning says one
// worker.
func NewPool(workers int) *Pool {
	p := &Pool{workers: workers}
	if workers < 2 {
		return p
	}
	p.work = make(chan poolTask)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.work {
				t.exec()
			}
		}()
	}
	return p
}

// Size returns the pool's worker count (at least 1).
func (p *Pool) Size() int {
	if p.workers < 1 {
		return 1
	}
	return p.workers
}

// Run evaluates task(i) for i in [0, n) across the pool and returns when
// all are done. Tasks must write only their own result slots. On a
// degenerate (serial) pool the tasks run inline in index order.
func (p *Pool) Run(n int, task func(i int)) {
	if p.work == nil || n <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var done sync.WaitGroup
	var box panicBox
	done.Add(n)
	for i := 0; i < n; i++ {
		p.work <- poolTask{i: i, fn: task, done: &done, box: &box}
	}
	done.Wait()
	box.rethrow()
}

// Close shuts the pool's workers down. Safe on a degenerate pool.
func (p *Pool) Close() {
	if p.work != nil {
		close(p.work)
		p.wg.Wait()
		p.work = nil
	}
}

// ArgminFloat64 returns the index minimizing eval(i) over [0, n), breaking
// ties toward the lowest index — exactly the winner of the serial
// left-to-right scan that keeps the first strict improvement. Indices the
// caller wants skipped must evaluate to +Inf, which only loses to real
// candidates when real (finite) candidates exist — as in every partition
// loop, whose costs are finite. eval must never return NaN: a NaN poisons
// whichever scan first accepts it (every later < comparison is false), so
// the winner would depend on which chunk held it — breaking the
// worker-count invariance this package guarantees. n = 0 returns -1. Chunk
// boundaries and the chunk-ordered combine depend only on (n, workers), so
// the result is bit-identical at any worker count. eval must be safe for
// concurrent calls
// on distinct indices.
func ArgminFloat64(n, workers int, eval func(i int) float64) int {
	if workers < 2 || n < 2 {
		best, bestV := -1, 0.0
		for i := 0; i < n; i++ {
			if v := eval(i); best < 0 || v < bestV {
				best, bestV = i, v
			}
		}
		return best
	}
	if workers > n {
		workers = n
	}
	bestIdx := make([]int, workers)
	bestVal := make([]float64, workers)
	Chunks(n, workers, func(w, lo, hi int) {
		best, bestV := -1, 0.0
		for i := lo; i < hi; i++ {
			if v := eval(i); best < 0 || v < bestV {
				best, bestV = i, v
			}
		}
		bestIdx[w], bestVal[w] = best, bestV
	})
	best, bestV := -1, 0.0
	for w := 0; w < workers; w++ {
		if bestIdx[w] >= 0 && (best < 0 || bestVal[w] < bestV) {
			best, bestV = bestIdx[w], bestVal[w]
		}
	}
	return best
}
