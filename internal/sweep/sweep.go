// Package sweep is the parallel, resumable exploration engine behind the
// paper's headline result: evaluating every cross-layer combination ×
// benchmark cell to find minimum-cost resilient designs (Fig. 1d, Tables
// 5/6). It schedules cells over a work-stealing worker pool, relies on
// core.Engine's singleflight deduplication so concurrent cells never run
// the same campaign twice, streams structured progress through a pluggable
// Observer, and persists completed cells to a versioned JSON state file so
// an interrupted sweep resumes where it stopped.
//
// Parallel and serial sweeps produce bit-identical aggregates: cell results
// are stored by (combination, benchmark) index and aggregated in index
// order, so worker count and scheduling order never reach the arithmetic.
//
// Long sweeps are fault-tolerant (see DESIGN.md §8): every cell evaluation
// runs under panic isolation and an optional watchdog deadline, a failed
// cell is recorded and re-run on the next resume, a canceled context (e.g.
// SIGINT) drains in-flight cells and flushes state, and the state file is
// guarded by a pid lock so two sweeps cannot clobber each other's
// resumable progress.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/obs"
	"clear/internal/resilient"
	"clear/internal/technique"
)

// EvalFunc evaluates one (combination, benchmark) cell.
type EvalFunc func(c core.Combo, b *bench.Benchmark) (core.Outcome, error)

// Sweep describes one exploration: the cell grid (combinations ×
// benchmarks), the evaluation function, and the identity key used for
// persistence.
type Sweep struct {
	Key     Key
	Combos  []core.Combo
	Benches []*bench.Benchmark
	Eval    EvalFunc
	// Stats, when non-nil, supplies engine memoization counters for
	// progress events (set by New; optional for custom sweeps).
	Stats func() core.EngineStats
	// Inject, when non-nil, supplies the injection-level counters (prune,
	// quarantine, cache) scoped to the engine behind Eval (set by New).
	// When nil, events report zero injection counters.
	Inject func() inject.Snapshot
}

// New builds the standard full-enumeration sweep for an engine: every
// valid combination of the core against the given benchmarks (nil means
// the core's full suite) at one (metric, target) design point.
func New(e *core.Engine, benches []*bench.Benchmark, metric core.Metric, target float64) Sweep {
	if benches == nil {
		benches = e.Benchmarks()
	}
	return Sweep{
		Key: Key{
			Core:        e.Kind.String(),
			Metric:      metric.String(),
			Target:      F64(target),
			Seed:        e.Seed,
			SamplesBase: e.SamplesBase,
			SamplesTech: e.SamplesTech,
			FaultModel:  normalizeModel(e.FaultModel),
		},
		Combos:  core.EnumerateForModel(e.Kind, nil, e.FaultModel),
		Benches: benches,
		Eval: func(c core.Combo, b *bench.Benchmark) (core.Outcome, error) {
			return e.EvalCombo(b, c, metric, target)
		},
		Stats:  e.Stats,
		Inject: e.Inj.Snapshot,
	}
}

// ApplyFilter restricts the sweep's combination grid to the techniques a
// filter admits (nil restores the full enumeration) and keys the persisted
// state on the filter's canonical spec, so state saved under one
// -techniques selection is rejected — never silently mixed — when resumed
// under another.
func (s *Sweep) ApplyFilter(e *core.Engine, f *technique.Filter) {
	s.Combos = core.EnumerateForModel(e.Kind, f, e.FaultModel)
	s.Key.Techniques = f.Spec()
}

// normalizeModel maps the ssb default (and "") to the empty string so
// legacy state files — which predate fault models and carry no
// "fault_model" key — keep matching single-bit sweeps.
func normalizeModel(model string) string {
	if model == inject.DefaultModel {
		return ""
	}
	return model
}

// Options tunes a sweep run.
type Options struct {
	// Workers is the number of concurrent cell evaluations; <= 0 uses one
	// per available CPU. Workers == 1 is the serial reference order.
	Workers int
	// Observer receives progress events (nil discards them).
	Observer Observer
	// StatePath, when non-empty, enables persistence: completed cells are
	// flushed to this JSON file and restored by the next run with a
	// matching Key. The file is guarded by StatePath+".lock" — a second
	// sweep pointed at the same file fails fast with resilient.ErrLocked.
	StatePath string
	// FlushEvery is the number of completed cells between state flushes
	// (default 16; lower is safer against kills, higher is less IO).
	FlushEvery int
	// CellTimeout bounds each cell evaluation: > 0 is a fixed per-cell
	// watchdog deadline, 0 derives one adaptively (CellTimeoutFactor ×
	// the slowest successful cell observed so far, never below
	// AdaptiveTimeoutFloor), and < 0 disables the watchdog entirely.
	CellTimeout time.Duration
	// CellTimeoutFactor is the adaptive watchdog's safety factor over the
	// slowest observed cell (<= 0 disables adaptive deadlines; 0 with
	// CellTimeout 0 therefore means no watchdog).
	CellTimeoutFactor float64
	// Metrics, when non-nil, receives the sweep's instruments (cell latency
	// histogram, done/failed counters, failure-kind counters, worker
	// utilization gauge — DESIGN.md §10 lists the names). Instrument
	// updates are single atomic operations and never influence evaluation:
	// a sweep with Metrics set produces bit-identical results to one
	// without.
	Metrics *obs.Registry
}

// AdaptiveTimeoutFloor is the minimum adaptive watchdog deadline. Memoized
// cells finish in microseconds; without a floor the first cold multi-second
// campaign behind them would be condemned by a deadline derived from cache
// hits.
const AdaptiveTimeoutFloor = 2 * time.Minute

// watchdog derives per-cell deadlines. A fixed timeout wins; otherwise the
// deadline adapts to factor × the slowest successful cell seen so far.
// Cells before the first completion run unbounded — there is nothing yet to
// derive a nominal duration from.
type watchdog struct {
	fixed   time.Duration
	factor  float64
	slowest atomic.Int64 // nanoseconds of the slowest successful cell
}

func (w *watchdog) deadline() time.Duration {
	if w.fixed != 0 {
		return w.fixed
	}
	if w.factor <= 0 {
		return 0
	}
	s := w.slowest.Load()
	if s == 0 {
		return 0
	}
	d := time.Duration(w.factor * float64(s))
	if d < AdaptiveTimeoutFloor {
		d = AdaptiveTimeoutFloor
	}
	return d
}

func (w *watchdog) observe(d time.Duration) {
	for {
		cur := w.slowest.Load()
		if int64(d) <= cur {
			return
		}
		if w.slowest.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// CellFailure records one cell whose evaluation failed. Each cell is
// evaluated once per run; a failed cell is re-run on the next resume.
type CellFailure struct {
	Combo string
	Bench string
	Err   string
	// Kind classifies the failure ("panic", "timeout", "error"); see
	// resilient.KindOf.
	Kind string
	// Stack is the captured goroutine stack when the failure was a panic.
	Stack string
}

// Result is a finished sweep.
type Result struct {
	// Rows holds one aggregated row per combination, ranked by increasing
	// energy (ties broken by name, so the ranking is total and
	// deterministic).
	Rows []Row
	// Frontier is the Pareto-optimal subset of complete rows in the
	// (improvement-at-metric, energy) plane.
	Frontier []core.ParetoPoint
	// Evaluated and Restored count cells computed this run vs. resumed
	// from the state file; Failures lists cells whose evaluation failed.
	Evaluated int
	Restored  int
	Failures  []CellFailure
}

// Run executes a sweep. Cell evaluations run on a work-stealing pool under
// panic isolation and per-cell watchdog deadlines; failures are classified
// and recorded rather than aborting the run. On a canceled context the
// in-flight cells drain, completed cells are flushed to the state file
// (when persistence is on), and ctx.Err() is returned.
func Run(ctx context.Context, sw Sweep, opt Options) (*Result, error) {
	observer := opt.Observer
	if observer == nil {
		observer = NopObserver{}
	}
	flushEvery := opt.FlushEvery
	if flushEvery <= 0 {
		flushEvery = 16
	}
	if opt.StatePath != "" {
		lock, err := resilient.Acquire(opt.StatePath + ".lock")
		if err != nil {
			return nil, fmt.Errorf("sweep: state file %q unavailable: %w (another sweep appears to own it; remove the .lock file if that process is gone)",
				opt.StatePath, err)
		}
		defer lock.Release()
	}
	nB := len(sw.Benches)
	total := len(sw.Combos) * nB

	cells := make([]*CellOutcome, total)
	restored := 0
	if opt.StatePath != "" {
		if saved, ok := loadState(opt.StatePath, sw); ok {
			for idx, co := range saved {
				c := co
				cells[idx] = &c
				restored++
			}
		}
	}

	// Name walks the technique registry: render each combination once.
	names := make([]string, len(sw.Combos))
	for i, c := range sw.Combos {
		names[i] = c.Name()
	}

	var pending []int
	for i := range cells {
		if cells[i] == nil {
			pending = append(pending, i)
		}
	}

	observer.Event(Event{Type: EventStart, Total: total, Restored: restored})

	ins := newRunInstruments(opt.Metrics)
	ins.cellsTotal.Set(int64(total))
	ins.cellsRestored.Set(int64(restored))

	// injSnap reads the injection counters scoped to this sweep's engine
	// (zero for engine-less sweeps).
	injSnap := func() inject.Snapshot {
		if sw.Inject != nil {
			return sw.Inject()
		}
		return inject.Snapshot{}
	}

	wd := &watchdog{fixed: opt.CellTimeout, factor: opt.CellTimeoutFactor}

	start := time.Now()
	// mu guards done/failed counts, stacks, state flushes, AND event
	// delivery: cell events are built and dispatched inside the same
	// critical section that advances Done, so observers see events in
	// strict Done order with engine/prune counters sampled consistently
	// with that Done count. (Delivering after unlocking — the old way —
	// let a Done=51 event overtake Done=50 under parallel workers and
	// paired counters with the wrong progress line.)
	var mu sync.Mutex
	done, failed := 0, 0
	sinceFlush := 0
	stacks := make(map[int]string) // idx -> panic stack (this run only)

	flushLocked := func() {
		if opt.StatePath != "" {
			// Flushing is best-effort: a failed write only costs resume
			// coverage, never the in-memory sweep.
			_ = saveState(opt.StatePath, sw, cells)
		}
		sinceFlush = 0
	}

	runWorkStealing(ctx, len(pending), opt.Workers, func(_, k int) {
		idx := pending[k]
		ci, bi := idx/nB, idx%nB

		ins.workersActive.Add(1)
		cellStart := time.Now()
		out, err := resilient.WithWatchdog(wd.deadline(), func() (core.Outcome, error) {
			return sw.Eval(sw.Combos[ci], sw.Benches[bi])
		})
		cellDur := time.Since(cellStart)
		ins.workersActive.Add(-1)
		ins.cellLatency.Observe(int64(cellDur))

		co := CellOutcome{
			SDCImp:    F64(out.SDCImp),
			DUEImp:    F64(out.DUEImp),
			Energy:    F64(out.Cost.Energy()),
			Area:      F64(out.Cost.Area),
			TargetMet: out.TargetMet,
		}
		if err != nil {
			co = CellOutcome{Err: err.Error(), Kind: resilient.KindOf(err)}
			ins.cellsFailed.Inc()
			ins.failureKind(resilient.KindOf(err)).Inc()
		} else {
			wd.observe(cellDur)
			ins.cellsDone.Inc()
		}

		// Everything the event reports — the Done/Failed counts, the
		// engine and injection counters, the flush — is read and the event
		// delivered inside one critical section (see mu above).
		mu.Lock()
		cells[idx] = &co
		done++
		if err != nil {
			failed++
			if st := resilient.StackOf(err); st != "" {
				stacks[idx] = st
			}
		}
		sinceFlush++
		if sinceFlush >= flushEvery {
			flushLocked()
		}
		ev := Event{
			Type:     EventCellDone,
			Combo:    names[ci],
			Bench:    sw.Benches[bi].Name,
			Done:     done,
			Failed:   failed,
			Total:    total,
			Restored: restored,
			Elapsed:  time.Since(start),
		}
		if err != nil {
			ev.Type = EventCellFailed
			ev.Err = err.Error()
			ev.Kind = resilient.KindOf(err)
		}
		if done > 0 {
			remaining := len(pending) - done
			ev.ETA = time.Duration(float64(ev.Elapsed) / float64(done) * float64(remaining))
		}
		if sw.Stats != nil {
			s := sw.Stats()
			ev.Engine = &s
		}
		snap := injSnap()
		ev.Quarantined = snap.Quarantined
		ev.PrunedInjections, ev.TotalInjections = snap.PrunedInjections, snap.TotalInjections
		observer.Event(ev)
		mu.Unlock()
	})

	mu.Lock()
	flushLocked()
	evaluated, nFailed := done, failed
	mu.Unlock()

	// The closing event carries the run's final counters, so a trace's last
	// record is a self-contained summary.
	doneEvent := func() Event {
		ev := Event{Type: EventDone, Done: evaluated, Failed: nFailed,
			Total: total, Restored: restored, Elapsed: time.Since(start)}
		if sw.Stats != nil {
			s := sw.Stats()
			ev.Engine = &s
		}
		snap := injSnap()
		ev.Quarantined = snap.Quarantined
		ev.PrunedInjections, ev.TotalInjections = snap.PrunedInjections, snap.TotalInjections
		return ev
	}

	if err := ctx.Err(); err != nil {
		observer.Event(doneEvent())
		return nil, err
	}

	res := &Result{
		Rows:      buildRows(sw, names, cells),
		Evaluated: evaluated,
		Restored:  restored,
	}
	for idx, co := range cells {
		if co != nil && co.Err != "" {
			res.Failures = append(res.Failures, CellFailure{
				Combo: names[idx/nB],
				Bench: sw.Benches[idx%nB].Name,
				Err:   co.Err,
				Kind:  co.Kind,
				Stack: stacks[idx],
			})
		}
	}
	res.Frontier = frontierOf(res.Rows, sw.Key.Metric)

	observer.Event(doneEvent())
	return res, nil
}

// IsLocked reports whether a Run error means another sweep holds the state
// file's lock.
func IsLocked(err error) bool {
	return errors.Is(err, resilient.ErrLocked)
}

// frontierOf projects complete rows onto the (improvement, energy) plane of
// the sweep's target metric and returns the shared Pareto frontier.
func frontierOf(rows []Row, metric string) []core.ParetoPoint {
	var pts []core.ParetoPoint
	for _, r := range rows {
		if r.Failed > 0 || r.Benches == 0 {
			continue
		}
		imp := r.SDCImp
		if metric == core.DUE.String() {
			imp = r.DUEImp
		}
		if math.IsNaN(imp) {
			continue
		}
		pts = append(pts, core.ParetoPoint{Name: r.Name, Improvement: imp, Energy: r.Energy})
	}
	return core.ParetoFrontier(pts)
}

// rankRows sorts rows by increasing energy, breaking ties by name so the
// order is total (required for the parallel-equals-serial guarantee).
func rankRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Energy != rows[j].Energy {
			return rows[i].Energy < rows[j].Energy
		}
		return rows[i].Name < rows[j].Name
	})
}
