package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/obs"
)

// recordingObserver captures the cell-event sequence exactly as delivered,
// adding scheduling jitter to provoke the pre-fix race: when events were
// dispatched after the progress lock was released, a worker that built
// Done=n could be overtaken by the worker that built Done=n+1, so the
// observer saw progress run backwards. With ordered dispatch under the
// lock the jitter only slows delivery, never reorders it.
type recordingObserver struct {
	mu     sync.Mutex
	dones  []int
	engine []int64 // ev.Engine.CampaignsRun per cell event, in delivery order
}

func (o *recordingObserver) Event(ev Event) {
	if ev.Type != EventCellDone && ev.Type != EventCellFailed {
		return
	}
	if ev.Done%2 == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	o.mu.Lock()
	o.dones = append(o.dones, ev.Done)
	if ev.Engine != nil {
		o.engine = append(o.engine, ev.Engine.CampaignsRun)
	}
	o.mu.Unlock()
}

// TestCellEventsMonotonicDone is the regression test for the racy event
// dispatch: at -workers=8 every cell event must arrive in strict Done
// order (1, 2, 3, ...), and the engine counters attached to each event
// must never run backwards in delivery order — both fail against the
// pre-fix code that delivered events outside the lock.
func TestCellEventsMonotonicDone(t *testing.T) {
	var evals atomic.Int64
	eval := func(c core.Combo, b *bench.Benchmark) (core.Outcome, error) {
		evals.Add(1)
		return arithEval(0)(c, b)
	}
	sw := fakeSweep(50, 3, eval)
	// A synthetic engine-stats source backed by the eval counter: sampled
	// inside the event's critical section it is non-decreasing across
	// delivered events; sampled late (the old bug) it goes backwards
	// whenever events reorder.
	sw.Stats = func() core.EngineStats {
		return core.EngineStats{CampaignsRun: evals.Load()}
	}
	obsv := &recordingObserver{}
	if _, err := Run(context.Background(), sw, Options{Workers: 8, Observer: obsv}); err != nil {
		t.Fatal(err)
	}
	if len(obsv.dones) != 150 {
		t.Fatalf("saw %d cell events, want 150", len(obsv.dones))
	}
	for i, d := range obsv.dones {
		if d != i+1 {
			t.Fatalf("event %d carries Done=%d, want %d (events reordered)", i, d, i+1)
		}
	}
	for i := 1; i < len(obsv.engine); i++ {
		if obsv.engine[i] < obsv.engine[i-1] {
			t.Fatalf("engine counters ran backwards between events %d and %d (%d -> %d)",
				i-1, i, obsv.engine[i-1], obsv.engine[i])
		}
	}
	// Counters are sampled in the same critical section that advanced
	// Done: at that instant every completed eval has finished, so the
	// sampled counter can never lag the Done count it ships with.
	for i, v := range obsv.engine {
		if v < int64(obsv.dones[i]) {
			t.Fatalf("event Done=%d shipped a counter of %d sampled before its own completion",
				obsv.dones[i], v)
		}
	}
}

// TestSweepInstruments checks the registry wiring: a run with Metrics set
// registers the contract's instrument names and tallies cells, failures,
// latencies, and worker occupancy.
func TestSweepInstruments(t *testing.T) {
	eval := func(c core.Combo, b *bench.Benchmark) (core.Outcome, error) {
		if c.Name() == core.Enumerate(inject.InO)[1].Name() && b.Name == bench.All()[0].Name {
			return core.Outcome{}, errSynthetic
		}
		return arithEval(0)(c, b)
	}
	sw := fakeSweep(8, 2, eval)
	reg := obs.NewRegistry()
	if _, err := Run(context.Background(), sw, Options{Workers: 4, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"sweep.cells.total", "sweep.cells.restored", "sweep.cells.done",
		"sweep.cells.failed", "sweep.cell.latency_ns", "sweep.workers.active",
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("instrument %q missing from registry: %v", name, reg.Names())
		}
	}
	if snap["sweep.cells.total"] != int64(16) || snap["sweep.cells.done"] != int64(15) ||
		snap["sweep.cells.failed"] != int64(1) {
		t.Fatalf("cell counters wrong: %v", snap)
	}
	if snap["sweep.failures.error"] != int64(1) {
		t.Fatalf("failure-kind counter wrong: %v", snap)
	}
	if snap["sweep.workers.active"] != int64(0) {
		t.Fatalf("workers.active = %v after the run, want 0", snap["sweep.workers.active"])
	}
	if reg.Histogram("sweep.cell.latency_ns").Count() != 16 {
		t.Fatalf("latency histogram holds %d observations, want 16",
			reg.Histogram("sweep.cell.latency_ns").Count())
	}
}

var errSynthetic = errSyntheticType{}

type errSyntheticType struct{}

func (errSyntheticType) Error() string { return "synthetic failure" }

// TestMetricsAndTraceDoNotChangeResults is the acceptance guarantee: an
// engine-backed sweep run with metrics, event tracing, and campaign
// tracing enabled produces bit-identical state files and rows to the same
// sweep with observability off.
func TestMetricsAndTraceDoNotChangeResults(t *testing.T) {
	t.Setenv("CLEAR_CACHE_DIR", t.TempDir())
	dir := t.TempDir()

	run := func(state string, instrumented bool) *Result {
		e := core.NewEngine(inject.InO)
		e.SamplesBase, e.SamplesTech = 1, 1
		sw := New(e, e.Benchmarks()[:2], core.SDC, 5)
		sw.Combos = sw.Combos[:6]
		opt := Options{Workers: 4, StatePath: state}
		var tr *obs.Tracer
		if instrumented {
			f, err := os.Create(filepath.Join(dir, "trace.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			tr = obs.NewTracer(f)
			e.Inj.Tracer = tr
			reg := obs.NewRegistry()
			e.Instrument(reg)
			opt.Metrics = reg
			opt.Observer = MultiObserver{TraceObserver{T: tr}}
		}
		res, err := Run(context.Background(), sw, opt)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return res
	}

	statePlain := filepath.Join(dir, "plain.json")
	stateObs := filepath.Join(dir, "instrumented.json")
	plain := run(statePlain, false)
	instrumented := run(stateObs, true)

	if !reflect.DeepEqual(plain.Rows, instrumented.Rows) {
		t.Fatal("instrumented sweep rows differ from plain rows")
	}
	if !reflect.DeepEqual(plain.Frontier, instrumented.Frontier) {
		t.Fatal("instrumented sweep frontier differs from plain frontier")
	}
	b1, err := os.ReadFile(statePlain)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(stateObs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("state files differ between plain and instrumented runs:\n%s\n---\n%s", b1, b2)
	}

	// The trace itself must be an ordered, parseable JSONL replay: sweep
	// records in Done order interleaved with campaign records.
	data, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	types := map[string]int{}
	lastDone := 0
	for _, l := range lines {
		var rec struct {
			Type string `json:"type"`
			Done int    `json:"done"`
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("trace line %q is not JSON: %v", l, err)
		}
		types[rec.Type]++
		if rec.Type == "sweep.cell-done" || rec.Type == "sweep.cell-failed" {
			if rec.Done != lastDone+1 {
				t.Fatalf("trace cell records out of order: Done=%d after %d", rec.Done, lastDone)
			}
			lastDone = rec.Done
		}
	}
	if types["sweep.start"] != 1 || types["sweep.done"] != 1 {
		t.Fatalf("trace record types = %v, want one sweep.start and one sweep.done", types)
	}
	if types["sweep.cell-done"] != 12 {
		t.Fatalf("trace holds %d cell records, want 12", types["sweep.cell-done"])
	}
	if types["campaign"] == 0 {
		t.Fatalf("trace holds no campaign records: %v", types)
	}
}

// TestEventInjectScopedToEngine verifies events report the sweep engine's
// own injection counters, not another engine's: a second engine doing
// unrelated campaign work in the same process must not leak into this
// sweep's prune numbers.
func TestEventInjectScopedToEngine(t *testing.T) {
	t.Setenv("CLEAR_CACHE_DIR", t.TempDir())

	// Foreign engine does inject work first: its counters are nonzero.
	foreign := core.NewEngine(inject.InO)
	foreign.SamplesBase, foreign.SamplesTech = 1, 1
	if _, err := foreign.Base(foreign.Benchmarks()[0]); err != nil {
		t.Fatal(err)
	}
	if foreign.Inj.Snapshot().TotalInjections == 0 {
		t.Fatal("foreign engine performed no injections; test premise broken")
	}

	e := core.NewEngine(inject.InO)
	e.SamplesBase, e.SamplesTech = 1, 1
	sw := New(e, e.Benchmarks()[:1], core.SDC, 5)
	sw.Combos = sw.Combos[:2]

	var first Event
	got := false
	obsv := observerFunc(func(ev Event) {
		if !got && ev.Type == EventCellDone {
			first, got = ev, true
		}
	})
	if _, err := Run(context.Background(), sw, Options{Workers: 2, Observer: obsv}); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("no cell event observed")
	}
	ownTotal := e.Inj.Snapshot().TotalInjections
	if first.TotalInjections > ownTotal {
		t.Fatalf("event reports %d injections but the sweep's engine only ran %d — foreign engine leaked in",
			first.TotalInjections, ownTotal)
	}
	if first.TotalInjections == 0 {
		t.Fatal("event reports zero injections for an engine-backed sweep")
	}
}
