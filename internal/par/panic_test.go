package par

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// recoverPanic runs fn and returns the recovered panic value (nil when fn
// returns normally).
func recoverPanic(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// wantWorkerPanic asserts that v is a *Panic wrapping the given value with
// a non-empty worker stack that still names this package's test frame.
func wantWorkerPanic(t *testing.T, v any, value string) *Panic {
	t.Helper()
	p, ok := v.(*Panic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *par.Panic", v, v)
	}
	if got, _ := p.Value.(string); got != value {
		t.Fatalf("panic value = %v, want %q", p.Value, value)
	}
	if len(p.Stack) == 0 {
		t.Fatalf("panic carries no worker stack")
	}
	if !strings.Contains(p.String(), value) {
		t.Fatalf("String() = %q does not contain the panic value", p.String())
	}
	var err error = p
	if err.Error() == "" {
		t.Fatalf("empty Error()")
	}
	return p
}

func TestCellsPanicReRaisedOnCaller(t *testing.T) {
	var ran atomic.Int32
	v := recoverPanic(func() {
		Cells(64, 4, func(i int) {
			if i == 13 {
				panic("cell boom")
			}
			ran.Add(1)
		})
	})
	p := wantWorkerPanic(t, v, "cell boom")
	if !strings.Contains(string(p.Stack), "par.TestCellsPanicReRaisedOnCaller") &&
		!strings.Contains(string(p.Stack), "par_test") && !strings.Contains(string(p.Stack), "panic_test") {
		// The stack is from the worker goroutine; it must at least show the
		// panicking closure's frames rather than the caller's.
		if !strings.Contains(string(p.Stack), "goroutine") {
			t.Fatalf("stack looks empty:\n%s", p.Stack)
		}
	}
	if int(ran.Load()) >= 64 {
		t.Fatalf("all cells ran despite panic")
	}
}

func TestChunksPanicReRaisedOnCaller(t *testing.T) {
	v := recoverPanic(func() {
		Chunks(100, 4, func(w, lo, hi int) {
			if w == 2 {
				panic("chunk boom")
			}
		})
	})
	wantWorkerPanic(t, v, "chunk boom")
}

func TestChunksSerialPanicUnwrapped(t *testing.T) {
	// The single-chunk fallback runs inline on the caller: the raw panic
	// value must propagate unwrapped, as it always has.
	v := recoverPanic(func() {
		Chunks(5, 1, func(w, lo, hi int) { panic("inline boom") })
	})
	if s, _ := v.(string); s != "inline boom" {
		t.Fatalf("serial panic = %v (%T), want raw string", v, v)
	}
}

func TestArgminPanicReRaisedOnCaller(t *testing.T) {
	v := recoverPanic(func() {
		ArgminFloat64(100, 4, func(i int) float64 {
			if i == 57 {
				panic("eval boom")
			}
			return float64(i)
		})
	})
	wantWorkerPanic(t, v, "eval boom")
}

// TestPoolPanicNoDeadlockNoLeak pins the three pool guarantees of the
// robustness contract: a panicking task re-raises on the Run caller rather
// than crashing the process, Run neither deadlocks nor leaks goroutines,
// and the same pool keeps working for later rounds.
func TestPoolPanicNoDeadlockNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4)

	done := make(chan any, 1)
	go func() {
		done <- recoverPanic(func() {
			p.Run(128, func(i int) {
				if i%17 == 5 {
					panic("task boom")
				}
			})
		})
	}()
	select {
	case v := <-done:
		wantWorkerPanic(t, v, "task boom")
	case <-time.After(30 * time.Second):
		t.Fatal("Pool.Run deadlocked on a panicking round")
	}

	// The pool survives the poisoned round: a clean round still runs every
	// task exactly once.
	var ran atomic.Int32
	p.Run(200, func(i int) { ran.Add(1) })
	if ran.Load() != 200 {
		t.Fatalf("post-panic round ran %d/200 tasks", ran.Load())
	}

	// And a second panicking round still re-raises (the box is per-round).
	v := recoverPanic(func() {
		p.Run(8, func(i int) { panic("again") })
	})
	wantWorkerPanic(t, v, "again")

	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after close", before, g)
	}
}

func TestPoolSerialPanicUnwrapped(t *testing.T) {
	p := NewPool(1) // degenerate pool: tasks run inline
	defer p.Close()
	v := recoverPanic(func() {
		p.Run(3, func(i int) { panic(errors.New("inline")) })
	})
	if _, ok := v.(*Panic); ok {
		t.Fatalf("inline panic was wrapped; want raw value")
	}
	if err, _ := v.(error); err == nil || err.Error() != "inline" {
		t.Fatalf("inline panic = %v, want raw error", v)
	}
}

// TestNestedFanoutPanicNotDoubleWrapped pins that a panic crossing two
// fan-out layers (Pool task running Chunks, as the sharded partition loops
// do) surfaces as a single *Panic with the innermost worker's stack.
func TestNestedFanoutPanicNotDoubleWrapped(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	v := recoverPanic(func() {
		p.Run(4, func(i int) {
			Chunks(16, 2, func(w, lo, hi int) {
				if i == 1 && w == 1 {
					panic("deep boom")
				}
			})
		})
	})
	wantWorkerPanic(t, v, "deep boom")
}
