package sweep

import (
	"clear/internal/core"
	"clear/internal/obs"
)

// runInstruments holds one Run's registered instruments. Built from
// Options.Metrics; a nil registry yields nil instruments whose updates
// no-op (see internal/obs), so the uninstrumented path pays one nil check
// per update and allocates nothing.
//
// Instrument names (the observability contract, DESIGN.md §10):
//
//	sweep.cells.total      gauge     cells in the grid
//	sweep.cells.restored   gauge     cells resumed from the state file
//	sweep.cells.done       counter   cells evaluated successfully this run
//	sweep.cells.failed     counter   cells failed this run
//	sweep.cell.latency_ns  histogram per-cell wall time (ns, log-scale)
//	sweep.workers.active   gauge     workers currently evaluating a cell
//	sweep.failures.<kind>  counter   failures by classification
type runInstruments struct {
	reg           *obs.Registry
	cellsTotal    *obs.Gauge
	cellsRestored *obs.Gauge
	cellsDone     *obs.Counter
	cellsFailed   *obs.Counter
	cellLatency   *obs.Histogram
	workersActive *obs.Gauge
}

func newRunInstruments(reg *obs.Registry) runInstruments {
	return runInstruments{
		reg:           reg,
		cellsTotal:    reg.Gauge("sweep.cells.total"),
		cellsRestored: reg.Gauge("sweep.cells.restored"),
		cellsDone:     reg.Counter("sweep.cells.done"),
		cellsFailed:   reg.Counter("sweep.cells.failed"),
		cellLatency:   reg.Histogram("sweep.cell.latency_ns"),
		workersActive: reg.Gauge("sweep.workers.active"),
	}
}

// failureKind returns the per-classification failure counter
// ("sweep.failures.panic", ".timeout", ".error"). Kinds are a
// small closed set, so get-or-create per failure is cheap — and failures
// are never the hot path.
func (ins *runInstruments) failureKind(kind string) *obs.Counter {
	return ins.reg.Counter("sweep.failures." + kind)
}

// eventRecord is the JSONL trace schema of one sweep event, emitted by
// TraceObserver with type "sweep.<event>" ("sweep.start",
// "sweep.cell-done", "sweep.cell-failed", "sweep.done"). Counters mirror
// the Event; the *_ms fields are the only ones expected to differ between
// two otherwise identical runs.
type eventRecord struct {
	Type     string `json:"type"`
	Combo    string `json:"combo,omitempty"`
	Bench    string `json:"bench,omitempty"`
	Err      string `json:"err,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Total    int    `json:"total"`
	Restored int    `json:"restored"`

	Quarantined      int64 `json:"quarantined,omitempty"`
	PrunedInjections int64 `json:"pruned_injections"`
	TotalInjections  int64 `json:"total_injections"`

	Engine *core.EngineStats `json:"engine,omitempty"`

	ElapsedMS int64 `json:"elapsed_ms"`
	ETAMS     int64 `json:"eta_ms,omitempty"`
}

// TraceObserver writes every sweep event as one JSONL record to a tracer —
// the sweep half of the -trace-out file (campaign records are emitted by
// the engine's injector into the same tracer). Events arrive serialized in
// Done order, so the trace is an ordered replay of the run's progress.
type TraceObserver struct {
	T *obs.Tracer
}

// Event implements Observer.
func (o TraceObserver) Event(ev Event) {
	if o.T == nil {
		return
	}
	o.T.Emit(eventRecord{
		Type:             "sweep." + ev.Type.String(),
		Combo:            ev.Combo,
		Bench:            ev.Bench,
		Err:              ev.Err,
		Kind:             ev.Kind,
		Done:             ev.Done,
		Failed:           ev.Failed,
		Total:            ev.Total,
		Restored:         ev.Restored,
		Quarantined:      ev.Quarantined,
		PrunedInjections: ev.PrunedInjections,
		TotalInjections:  ev.TotalInjections,
		Engine:           ev.Engine,
		ElapsedMS:        ev.Elapsed.Milliseconds(),
		ETAMS:            ev.ETA.Milliseconds(),
	})
}

// MultiObserver fans each event out to every non-nil observer in order —
// the way a command combines progress logging with event tracing.
type MultiObserver []Observer

// Event implements Observer.
func (m MultiObserver) Event(ev Event) {
	for _, o := range m {
		if o != nil {
			o.Event(ev)
		}
	}
}
