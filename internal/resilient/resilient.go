// Package resilient is the fault-tolerance layer around campaign and sweep
// execution. A framework whose subject is graceful tolerance of rare faults
// should itself tolerate them: one panicking worker, one hung variant
// program, or one corrupt cache entry must degrade a multi-hour exploration,
// not kill it. The package provides three mechanisms, composed by
// internal/sweep, core.Engine, internal/inject and the long-running
// commands:
//
//   - isolation:  Safe runs a function under recover(), converting panics
//     into classified errors carrying the goroutine stack;
//   - deadlines:  WithWatchdog bounds a computation with a wall-clock
//     deadline, abandoning (not killing) the runaway goroutine;
//   - exclusion:  Acquire/Release guard shared mutable files (sweep state)
//     with a pid lock file including stale-lock detection, and
//     WithSignals turns SIGINT/SIGTERM into context cancellation with a
//     second-signal hard-exit escape hatch.
package resilient

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered panic converted into an error: the panic value
// plus the goroutine stack at the recovery point.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// TimeoutError reports a computation abandoned by WithWatchdog after its
// deadline expired.
type TimeoutError struct {
	After string // rendered deadline, e.g. "30s"
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("watchdog: no result within %s (evaluation abandoned)", e.After)
}

// Safe runs fn under panic isolation: a panic inside fn is recovered and
// returned as a *PanicError with the stack captured, instead of unwinding
// the caller's goroutine (and, in a worker pool, the whole process).
func Safe[T any](fn func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// KindOf names the failure class of err for reports and observers:
// "panic", "timeout", or "error".
func KindOf(err error) string {
	if err == nil {
		return ""
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return "panic"
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		return "timeout"
	}
	return "error"
}

// StackOf returns the captured goroutine stack when err wraps a recovered
// panic, and "" otherwise.
func StackOf(err error) string {
	var pe *PanicError
	if errors.As(err, &pe) {
		return string(pe.Stack)
	}
	return ""
}
