package sweep

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"clear/internal/core"
)

// TestLogObserverGolden pins the exact lines LogObserver renders for every
// event shape: start (with and without restored cells), a failure, a
// throttled done line with engine counters and a quarantine marker, and
// the final summary.
func TestLogObserverGolden(t *testing.T) {
	var lines []string
	o := LogObserver{
		Printf: func(format string, args ...any) {
			lines = append(lines, fmt.Sprintf(format, args...))
		},
		Every: 2,
	}

	o.Event(Event{Type: EventStart, Total: 10})
	o.Event(Event{Type: EventStart, Total: 10, Restored: 4})
	o.Event(Event{Type: EventCellFailed, Combo: "parity", Bench: "gzip",
		Kind: "panic", Err: "boom"})
	// Done=1 is throttled away (Every=2), Done=2 prints.
	o.Event(Event{Type: EventCellDone, Done: 1, Total: 10, Elapsed: time.Second})
	o.Event(Event{Type: EventCellDone, Done: 2, Total: 10, Restored: 4,
		Elapsed: 10 * time.Second, ETA: 20 * time.Second,
		Engine:           &core.EngineStats{CampaignsRun: 7, CampaignsCached: 5, CampaignsJoined: 1},
		PrunedInjections: 25, TotalInjections: 100, Quarantined: 2})
	o.Event(Event{Type: EventDone, Done: 6, Failed: 1, Elapsed: 65 * time.Second})

	want := []string{
		"sweep: 10 cells to run",
		"sweep: 10 cells (4 restored from state, 6 to run)",
		"sweep: cell parity/gzip failed [panic]: boom",
		"sweep: 6/10 cells (10s elapsed, ETA 20s) [campaigns: 7 run, 5 cached, 1 joined; prune 25%] [2 cache entries quarantined]",
		"sweep: finished 6 cells in 1m5s (1 failed)",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("LogObserver output diverged.\n got: %#v\nwant: %#v", lines, want)
	}
}

// TestLogObserverNilPrintf checks the zero-value observer is inert.
func TestLogObserverNilPrintf(t *testing.T) {
	LogObserver{}.Event(Event{Type: EventDone, Done: 1})
}

// TestETASanity runs a real (fake-eval) sweep and checks every reported
// ETA is finite and non-negative, and that the estimate trends to zero:
// by the final cell the remaining work is zero, so the last ETA must be 0.
func TestETASanity(t *testing.T) {
	sw := fakeSweep(10, 4, arithEval(200*time.Microsecond))
	var mu sync.Mutex
	var etas []time.Duration
	obsv := observerFunc(func(ev Event) {
		if ev.Type != EventCellDone && ev.Type != EventCellFailed {
			return
		}
		mu.Lock()
		etas = append(etas, ev.ETA)
		mu.Unlock()
	})
	if _, err := Run(context.Background(), sw, Options{Workers: 4, Observer: obsv}); err != nil {
		t.Fatal(err)
	}
	if len(etas) != 40 {
		t.Fatalf("saw %d ETAs, want 40", len(etas))
	}
	for i, eta := range etas {
		if eta < 0 {
			t.Fatalf("ETA %d is negative: %v", i, eta)
		}
		if eta > time.Hour {
			t.Fatalf("ETA %d is absurd for a sub-second sweep: %v", i, eta)
		}
	}
	if last := etas[len(etas)-1]; last != 0 {
		t.Fatalf("final cell reports ETA %v, want 0", last)
	}
	// The estimate must shrink overall: the tail of the run should predict
	// less remaining time than the head.
	if etas[len(etas)-2] >= etas[0] && etas[0] > 0 {
		t.Fatalf("ETA did not shrink: first %v, second-to-last %v", etas[0], etas[len(etas)-2])
	}
}
