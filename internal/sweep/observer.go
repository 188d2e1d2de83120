package sweep

import (
	"fmt"
	"time"

	"clear/internal/core"
)

// EventType classifies a sweep progress event.
type EventType int

// Event kinds emitted during a sweep run.
const (
	// EventStart fires once before any cell runs; Total and Restored
	// describe the cell grid and how many cells were resumed from disk.
	EventStart EventType = iota
	// EventCellDone fires after each successfully evaluated cell.
	EventCellDone
	// EventCellFailed fires after a cell whose evaluation failed; the
	// sweep records the classified failure and keeps going.
	EventCellFailed
	// EventDone fires once after the last cell (or after cancellation).
	EventDone
)

func (t EventType) String() string {
	switch t {
	case EventStart:
		return "start"
	case EventCellDone:
		return "cell-done"
	case EventCellFailed:
		return "cell-failed"
	case EventDone:
		return "done"
	}
	return "?"
}

// Event is one structured progress report. Cell events carry the cell's
// coordinates plus cumulative progress, timing, and engine counters, so an
// observer can render throughput, cache effectiveness, prune rate, and ETA
// without polling anything itself.
type Event struct {
	Type  EventType
	Combo string // cell events: combination name
	Bench string // cell events: benchmark name
	Err   string // EventCellFailed: the evaluation error
	Kind  string // failure classification ("panic", "timeout", "error")

	Done     int // cells evaluated so far this run
	Failed   int // cells failed so far this run
	Total    int // cells in the grid
	Restored int // cells resumed from the state file (not re-run)

	// Quarantined counts corrupt campaign cache entries renamed aside and
	// recomputed (monotonic), scoped to the sweep's engine when the sweep
	// knows one (Sweep.Inject), else zero — degradation made visible as it
	// happens.
	Quarantined int64

	Elapsed time.Duration
	ETA     time.Duration // estimated time to finish remaining cells (0 if unknown)

	// Engine holds the evaluation engine's memoization counters (campaigns
	// run vs. memo-cached vs. singleflight-joined) when the sweep knows its
	// engine; nil otherwise.
	Engine *core.EngineStats

	// Injection-level prune counters (monotonic; engine-scoped when the
	// sweep knows its engine, zero otherwise).
	PrunedInjections, TotalInjections int64
}

// Observer consumes sweep progress events. Events are delivered serially,
// under the sweep's progress lock, in strict Done order: a cell event's
// Done/Failed counts, engine counters, and injection counters are all
// sampled in the same critical section that advanced Done, so successive
// events never run backwards and their counters never mix progress points.
// The flip side: a slow Event implementation backpressures the worker
// pool, so observers should hand expensive work off rather than doing it
// inline.
type Observer interface {
	Event(Event)
}

// NopObserver discards all events.
type NopObserver struct{}

// Event implements Observer.
func (NopObserver) Event(Event) {}

// LogObserver renders events through a printf-style function (log.Printf
// fits), throttling cell events to one line every Every cells. It replaces
// the ad-hoc progress printing the sweep command used to do inline.
type LogObserver struct {
	Printf func(format string, args ...any)
	Every  int // cells between progress lines (default 50)
}

// Event implements Observer.
func (o LogObserver) Event(ev Event) {
	if o.Printf == nil {
		return
	}
	every := o.Every
	if every <= 0 {
		every = 50
	}
	switch ev.Type {
	case EventStart:
		if ev.Restored > 0 {
			o.Printf("sweep: %d cells (%d restored from state, %d to run)",
				ev.Total, ev.Restored, ev.Total-ev.Restored)
		} else {
			o.Printf("sweep: %d cells to run", ev.Total)
		}
	case EventCellFailed:
		o.Printf("sweep: cell %s/%s failed [%s]: %s",
			ev.Combo, ev.Bench, ev.Kind, ev.Err)
	case EventCellDone:
		if ev.Done%every != 0 {
			return
		}
		line := ""
		if ev.Engine != nil {
			pruneRate := 0.0
			if ev.TotalInjections > 0 {
				pruneRate = float64(ev.PrunedInjections) / float64(ev.TotalInjections)
			}
			line = renderStats(ev.Engine, pruneRate)
		}
		if ev.Quarantined > 0 {
			line += fmt.Sprintf(" [%d cache entries quarantined]", ev.Quarantined)
		}
		o.Printf("sweep: %d/%d cells (%s elapsed, ETA %s)%s",
			ev.Done+ev.Restored, ev.Total, ev.Elapsed.Round(time.Second),
			ev.ETA.Round(time.Second), line)
	case EventDone:
		o.Printf("sweep: finished %d cells in %s (%d failed)",
			ev.Done, ev.Elapsed.Round(time.Second), ev.Failed)
	}
}

func renderStats(s *core.EngineStats, pruneRate float64) string {
	return fmt.Sprintf(" [campaigns: %d run, %d cached, %d joined; prune %.0f%%]",
		s.CampaignsRun, s.CampaignsCached, s.CampaignsJoined, 100*pruneRate)
}
