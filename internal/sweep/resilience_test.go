package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/resilient"
)

// stripPanicked removes the named combination's row so surviving rows can
// be compared bit-for-bit across runs that disagree only on that combo.
func stripRow(rows []Row, name string) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		if r.Name != name {
			out = append(out, r)
		}
	}
	return out
}

// TestPanicIsolation injects panics into specific cells: the sweep must
// complete, evaluate each panicking cell once, record those cells in
// Failures with kind "panic" and the stack captured, keep the surviving
// cells' rows bit-identical to a clean run, and a resume must re-run only
// the panicked cells.
func TestPanicIsolation(t *testing.T) {
	state := filepath.Join(t.TempDir(), "sweep.json")
	panicCombo := core.Enumerate(inject.InO)[2].Name()
	clean := arithEval(0)
	var panics atomic.Int64
	evil := func(c core.Combo, b *bench.Benchmark) (core.Outcome, error) {
		if c.Name() == panicCombo {
			panics.Add(1)
			panic(fmt.Sprintf("injected worker panic on %s/%s", c.Name(), b.Name))
		}
		return clean(c, b)
	}

	sw := fakeSweep(10, 3, evil)
	res, err := Run(context.Background(), sw, Options{Workers: 4, StatePath: state, FlushEvery: 1})
	if err != nil {
		t.Fatalf("panicking cells aborted the sweep: %v", err)
	}
	if len(res.Failures) != 3 {
		t.Fatalf("failures = %d, want 3 (one per benchmark of the panicking combo)", len(res.Failures))
	}
	if got := panics.Load(); got != 3 {
		t.Fatalf("panicking cells evaluated %d times, want 3 (once each)", got)
	}
	for _, f := range res.Failures {
		if f.Combo != panicCombo {
			t.Fatalf("unexpected failed combo %s", f.Combo)
		}
		if f.Kind != "panic" {
			t.Fatalf("failure kind = %q, want panic", f.Kind)
		}
		if !strings.Contains(f.Stack, "resilience_test.go") {
			t.Fatalf("stack not captured or does not reach the panic site:\n%s", f.Stack)
		}
		if !strings.Contains(f.Err, "injected worker panic") {
			t.Fatalf("failure err = %q", f.Err)
		}
	}

	// Surviving rows are bit-identical to an undisturbed run.
	ref, err := Run(context.Background(), fakeSweep(10, 3, clean), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripRow(res.Rows, panicCombo), stripRow(ref.Rows, panicCombo)) {
		t.Fatal("surviving rows differ from the undisturbed reference")
	}

	// Resume re-runs exactly the panicked cells and heals the sweep.
	var evals atomic.Int64
	sw.Eval = func(c core.Combo, b *bench.Benchmark) (core.Outcome, error) {
		evals.Add(1)
		return clean(c, b)
	}
	res2, err := Run(context.Background(), sw, Options{Workers: 4, StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	if got := evals.Load(); got != 3 {
		t.Fatalf("resume evaluated %d cells, want only the 3 panicked ones", got)
	}
	if len(res2.Failures) != 0 {
		t.Fatalf("resume failures = %v, want none", res2.Failures)
	}
	if !reflect.DeepEqual(res2.Rows, ref.Rows) {
		t.Fatal("healed rows differ from the undisturbed reference")
	}
}

// TestWatchdogPermanentTimeout: a hung cell is evaluated once, abandoned by
// the watchdog, and recorded as a timeout failure; the rest of the grid
// completes.
func TestWatchdogPermanentTimeout(t *testing.T) {
	hangRelease := make(chan struct{})
	defer close(hangRelease)
	hangCombo := core.Enumerate(inject.InO)[0].Name()
	clean := arithEval(0)
	var hangs atomic.Int64
	eval := func(c core.Combo, b *bench.Benchmark) (core.Outcome, error) {
		if c.Name() == hangCombo {
			hangs.Add(1)
			<-hangRelease
		}
		return clean(c, b)
	}
	res, err := Run(context.Background(), fakeSweep(3, 1, eval), Options{
		Workers:     2,
		CellTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v, want the one hung cell", res.Failures)
	}
	if f := res.Failures[0]; f.Kind != "timeout" || f.Combo != hangCombo {
		t.Fatalf("failure = %+v, want kind=timeout on %s", f, hangCombo)
	}
	if got := hangs.Load(); got != 1 {
		t.Fatalf("hung cell evaluated %d times, want 1", got)
	}
}

// observerFunc adapts a function to the Observer interface.
type observerFunc func(Event)

func (f observerFunc) Event(ev Event) { f(ev) }

// TestStateLockExcludesConcurrentSweep is the regression test for the
// state-file race: a second Run pointed at the same -state file must fail
// fast with a lock error while the first holds it, and succeed after.
func TestStateLockExcludesConcurrentSweep(t *testing.T) {
	state := filepath.Join(t.TempDir(), "sweep.json")
	started := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool
	slowEval := func(c core.Combo, b *bench.Benchmark) (core.Outcome, error) {
		if once.CompareAndSwap(false, true) {
			close(started)
			<-release
		}
		return arithEval(0)(c, b)
	}

	runA := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), fakeSweep(4, 2, slowEval), Options{Workers: 1, StatePath: state})
		runA <- err
	}()
	<-started

	_, err := Run(context.Background(), fakeSweep(4, 2, arithEval(0)), Options{Workers: 1, StatePath: state})
	if !IsLocked(err) {
		t.Fatalf("concurrent run err = %v, want a lock error", err)
	}
	if !errors.Is(err, resilient.ErrLocked) {
		t.Fatalf("lock error does not wrap resilient.ErrLocked: %v", err)
	}

	close(release)
	if err := <-runA; err != nil {
		t.Fatalf("first run: %v", err)
	}
	// Lock released: the state file is reusable.
	res, err := Run(context.Background(), fakeSweep(4, 2, arithEval(0)), Options{Workers: 1, StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored != 8 {
		t.Fatalf("restored = %d, want all 8 cells", res.Restored)
	}
}

// TestAdaptiveWatchdogDeadline exercises the deadline derivation rules:
// fixed timeout wins, the adaptive deadline needs an observation and never
// drops below the floor, and negative disables.
func TestAdaptiveWatchdogDeadline(t *testing.T) {
	fixed := &watchdog{fixed: 5 * time.Second, factor: 100}
	if d := fixed.deadline(); d != 5*time.Second {
		t.Fatalf("fixed deadline = %s", d)
	}
	adaptive := &watchdog{factor: 20}
	if d := adaptive.deadline(); d != 0 {
		t.Fatalf("unobserved adaptive deadline = %s, want 0 (unbounded)", d)
	}
	adaptive.observe(3 * time.Millisecond)
	if d := adaptive.deadline(); d != AdaptiveTimeoutFloor {
		t.Fatalf("adaptive deadline = %s, want the %s floor", d, AdaptiveTimeoutFloor)
	}
	adaptive.observe(time.Minute)
	if d := adaptive.deadline(); d != 20*time.Minute {
		t.Fatalf("adaptive deadline = %s, want 20m", d)
	}
	adaptive.observe(time.Second) // slower observation never shrinks it
	if d := adaptive.deadline(); d != 20*time.Minute {
		t.Fatalf("deadline shrank to %s", d)
	}
	off := &watchdog{fixed: -1}
	if d := off.deadline(); d >= 0 {
		t.Fatalf("disabled watchdog deadline = %s, want negative (no deadline)", d)
	}
}

// TestChaosSweepSurvivesEverything is the acceptance chaos test: one
// engine-backed sweep suffers an injected worker panic, a hung
// (watchdog-tripping) cell, a corrupt campaign cache entry, and a mid-run
// SIGINT — and after one resume ends with Failures empty, rankings
// bit-identical to an undisturbed serial run, and exactly one .corrupt
// quarantine file on disk. The hung cell, once dispatched, is recorded as
// a timeout, and the resume re-runs it.
func TestChaosSweepSurvivesEverything(t *testing.T) {
	cacheDir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", cacheDir)
	state := filepath.Join(t.TempDir(), "sweep.json")

	mkSweep := func() Sweep {
		e := core.NewEngine(inject.InO)
		e.SamplesBase, e.SamplesTech = 1, 1
		sw := New(e, e.Benchmarks()[:2], core.SDC, 5)
		sw.Combos = sw.Combos[:6] // hardware-only head of the enumeration
		return sw
	}

	// Undisturbed serial reference (also warms the disk cache).
	refSw := mkSweep()
	ref, err := Run(context.Background(), refSw, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Failures) != 0 {
		t.Fatalf("reference run failed: %v", ref.Failures)
	}

	// Chaos ingredient 1: corrupt one cached campaign (truncate mid-file).
	gobs, _ := filepath.Glob(filepath.Join(cacheDir, "*.gob"))
	if len(gobs) == 0 {
		t.Fatal("reference run produced no cache entries")
	}
	data, err := os.ReadFile(gobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gobs[0], data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, stop := resilient.WithSignals(context.Background())
	defer stop()

	// Chaos ingredients 2-4: a panicking cell, a hung cell, and a SIGINT
	// after five cells. The gate makes the interrupt deterministic: once
	// the signal is sent, new evaluations wait for the cancellation to
	// propagate, so some cells always remain pending for the resume.
	hangRelease, hangDone := make(chan struct{}), make(chan struct{})
	chaosSw := mkSweep()
	panicCombo := chaosSw.Combos[0].Name()
	hangCombo := chaosSw.Combos[1].Name()
	benches := chaosSw.Benches
	var paniced, hung, sigSent atomic.Bool
	realEval := chaosSw.Eval
	chaosSw.Eval = func(c core.Combo, b *bench.Benchmark) (core.Outcome, error) {
		for sigSent.Load() && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		if c.Name() == panicCombo && b.Name == benches[0].Name && paniced.CompareAndSwap(false, true) {
			panic("chaos: injected worker panic")
		}
		if c.Name() == hangCombo && b.Name == benches[1].Name && hung.CompareAndSwap(false, true) {
			defer close(hangDone)
			<-hangRelease
		}
		time.Sleep(10 * time.Millisecond) // pace the sweep so the signal lands mid-run
		return realEval(c, b)
	}
	var cellsSeen atomic.Int64
	var hangTimedOut atomic.Bool
	obs := observerFunc(func(ev Event) {
		if ev.Type != EventCellDone && ev.Type != EventCellFailed {
			return
		}
		if ev.Type == EventCellFailed && ev.Combo == hangCombo && ev.Bench == benches[1].Name && ev.Kind == "timeout" {
			hangTimedOut.Store(true)
		}
		if cellsSeen.Add(1) == 5 && sigSent.CompareAndSwap(false, true) {
			syscall.Kill(os.Getpid(), syscall.SIGINT)
		}
	})
	_, err = Run(ctx, chaosSw, Options{
		Workers:     2,
		Observer:    obs,
		StatePath:   state,
		FlushEvery:  1,
		CellTimeout: 2 * time.Second,
	})
	// Release the hung cell and wait for its abandoned evaluation to
	// return, so it writes no campaign once the test's cache dir is gone.
	close(hangRelease)
	if hung.Load() {
		<-hangDone
		if !hangTimedOut.Load() {
			t.Fatal("the hung cell was not recorded as a timeout")
		}
	}
	if err != context.Canceled {
		t.Fatalf("chaos run err = %v, want context.Canceled (mid-run SIGINT)", err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("state file not flushed on interrupt: %v", err)
	}

	// Resume undisturbed and heal. The watchdog is disabled here: under
	// the race detector legitimate cold campaigns can outlast any deadline
	// tight enough to make the chaos run's injected hang affordable, and a
	// cell the chaos run recorded as a timeout would then time out again.
	resumeSw := mkSweep()
	res, err := Run(context.Background(), resumeSw, Options{
		Workers:     2,
		StatePath:   state,
		CellTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("failures after resume = %+v, want none", res.Failures)
	}
	if res.Restored == 0 || res.Evaluated == 0 || res.Restored+res.Evaluated != 12 {
		t.Fatalf("restored=%d evaluated=%d, want a genuine split of 12", res.Restored, res.Evaluated)
	}
	if !reflect.DeepEqual(res.Rows, ref.Rows) {
		t.Fatalf("healed rankings differ from the undisturbed serial run\nref: %+v\ngot: %+v", ref.Rows, res.Rows)
	}
	if !reflect.DeepEqual(res.Frontier, ref.Frontier) {
		t.Fatal("healed frontier differs from the undisturbed serial run")
	}
	corrupt, _ := filepath.Glob(filepath.Join(cacheDir, "*.corrupt"))
	if len(corrupt) != 1 {
		t.Fatalf("quarantine files = %v, want exactly one", corrupt)
	}
}
