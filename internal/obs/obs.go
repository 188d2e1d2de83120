// Package obs is the observability layer for long-running campaigns and
// sweeps: typed counters, gauges, and log-scale histograms behind a named
// registry, a JSONL event-trace sink, and a debug HTTP endpoint exposing
// the registry as JSON (plus expvar and net/http/pprof) so an operator can
// watch — and profile — an hours-long exploration while it runs.
//
// Design constraints (DESIGN.md §10):
//
//   - Hot-path updates are single atomic operations and never allocate.
//     Every instrument method is also safe on a nil receiver (a no-op), so
//     instrumented code needs no "is observability on?" branches: code
//     built against a nil *Registry gets nil instruments and all updates
//     vanish.
//   - Observability must never change results. Instruments only ever
//     export derived counts; nothing reads them back into a computation.
//   - Instrument names are flat dotted paths, lowercase, with snake_case
//     leaves ("sweep.cells.done", "inject.ino.injections.pruned"). The
//     name is the contract: dashboards and the CI smoke test key on it.
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 instrument.
// The zero value is ready to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 instrument (worker counts, queue depths).
// The zero value is ready to use; a nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a Histogram: one power-of-two bucket
// per possible bit length of a non-negative int64, plus bucket 0 for
// values <= 0.
const histBuckets = 64

// Histogram is a log-scale (power-of-two buckets) distribution of int64
// observations — latencies in nanoseconds, cycle counts, sizes. Bucket i
// (i >= 1) counts values v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i); bucket 0 counts values <= 0. Log-scale buckets make the
// histogram fixed-size and allocation-free while still separating a 2 µs
// memoized cell from a 20 s cold campaign.
// The zero value is ready to use; a nil *Histogram discards observations.
type Histogram struct {
	count, sum atomic.Int64
	buckets    [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.buckets[i].Add(1)
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observed value (0 before any observation).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// histSnapshot is the JSON shape of a histogram in a registry snapshot:
// counts per power-of-two upper bound, plus totals.
type histSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets,omitempty"` // upper bound -> count
}

func (h *Histogram) snapshot() histSnapshot {
	s := histSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
		s.Buckets = make(map[string]int64)
		for i := range h.buckets {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			s.Buckets[bucketLabel(i)] = n
		}
	}
	return s
}

// bucketLabel names bucket i by its exclusive upper bound ("0" for the
// non-positive bucket): the bucket labeled "4096" counts values in
// [2048, 4096).
func bucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	return strconv.FormatUint(uint64(1)<<uint(i), 10)
}

// Registry is a named collection of instruments. Instruments are either
// owned by the registry (created by Counter/Gauge/Histogram, get-or-create
// by name) or owned elsewhere and published into it (Attach) — the engine
// and injector own their counters so per-instance semantics survive, and a
// command attaches them to its registry for export.
//
// All methods are safe on a nil *Registry: creation methods return nil
// instruments (whose updates no-op), so a code path instrumented against
// an optional registry pays one nil check per update and nothing else.
type Registry struct {
	mu   sync.Mutex
	vars map[string]any // *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it on first
// use. A name already holding a different instrument kind yields a fresh
// detached counter (updates work, export skips it) — observability must
// degrade, never panic, mid-sweep.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		if c, ok := v.(*Counter); ok {
			return c
		}
		return new(Counter) // kind conflict: detached
	}
	c := new(Counter)
	r.vars[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use
// (same conflict policy as Counter).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		if g, ok := v.(*Gauge); ok {
			return g
		}
		return new(Gauge)
	}
	g := new(Gauge)
	r.vars[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use (same conflict policy as Counter).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		if h, ok := v.(*Histogram); ok {
			return h
		}
		return new(Histogram)
	}
	h := new(Histogram)
	r.vars[name] = h
	return h
}

// Attach publishes an externally owned instrument (*Counter, *Gauge, or
// *Histogram) under name, replacing any previous registration of that
// name. Other kinds are ignored.
func (r *Registry) Attach(name string, instrument any) {
	if r == nil {
		return
	}
	switch instrument.(type) {
	case *Counter, *Gauge, *Histogram:
	default:
		return
	}
	r.mu.Lock()
	r.vars[name] = instrument
	r.mu.Unlock()
}

// Names returns the sorted registered instrument names.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.vars))
	for n := range r.vars {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Snapshot returns a JSON-marshalable view of every instrument: counters
// and gauges as int64, histograms as {count, sum, mean, buckets}.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range r.vars {
		switch i := v.(type) {
		case *Counter:
			out[name] = i.Value()
		case *Gauge:
			out[name] = i.Value()
		case *Histogram:
			out[name] = i.snapshot()
		}
	}
	return out
}

// WriteJSON writes the snapshot as a single sorted-key JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
