package inject

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"clear/internal/resilient"
)

// TestFanOutRunsEachItemOnce: for 0, 1, 3 and 1,000 items under GOMAXPROCS
// 1, 2 and 8, every item runs exactly once, newWorker and merge run once
// per worker, and the merges, which add each worker's count of the items
// it ran to one plain total, run one at a time (the race detector checks
// that) and account for every item.
func TestFanOutRunsEachItemOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, items := range []int{0, 1, 3, 1000} {
			t.Run(fmt.Sprintf("procs=%d/items=%d", procs, items), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				runs := make([]atomic.Int32, items)
				var workers atomic.Int32
				merges, merged := 0, 0
				err := fanOut(items, func() (func(int), func()) {
					workers.Add(1)
					ran := 0
					do := func(item int) { runs[item].Add(1); ran++ }
					merge := func() { merges++; merged += ran }
					return do, merge
				})
				if err != nil {
					t.Fatal(err)
				}
				for item := range runs {
					if n := runs[item].Load(); n != 1 {
						t.Fatalf("item %d ran %d times", item, n)
					}
				}
				if int(workers.Load()) != procs || merges != procs {
					t.Fatalf("%d workers started and %d merged, want %d each", workers.Load(), merges, procs)
				}
				if merged != items {
					t.Fatalf("merges accounted for %d items, want %d", merged, items)
				}
			})
		}
	}
}

// TestFanOutStopsAfterPanic: once a worker panics, no item starts beyond
// those already claimed. Under GOMAXPROCS n, items 0..n-2 hold their
// workers until well after item n-1, which the last free worker must
// claim, has panicked; then none of the 1,000 items beyond them may start.
// fanOut returns the panic, and only the workers that did not panic merge.
// Nothing outside fanOut can observe the stop flag landing, so the held
// items wait 100 ms after the panic instead; a flag that landed later
// still could only fail the test, never pass it.
func TestFanOutStopsAfterPanic(t *testing.T) {
	const items = 1000
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			held, panicking, gate := make(chan struct{}, procs), make(chan struct{}), make(chan struct{})
			go func() {
				<-panicking
				time.Sleep(100 * time.Millisecond)
				close(gate)
			}()
			var started [items]atomic.Bool
			var merges atomic.Int32
			err := fanOut(items, func() (func(int), func()) {
				return func(item int) {
					started[item].Store(true)
					switch {
					case item < procs-1:
						held <- struct{}{}
						<-gate
					case item == procs-1:
						for range procs - 1 {
							<-held
						}
						close(panicking)
						panic("fanout test panic")
					}
				}, func() { merges.Add(1) }
			})
			var pe *resilient.PanicError
			if !errors.As(err, &pe) || pe.Value != "fanout test panic" {
				t.Fatalf("fanOut = %v, want the worker's panic", err)
			}
			for item := range started {
				if started[item].Load() != (item < procs) {
					t.Fatalf("item %d started = %v; only items 0..%d were claimed before the panic",
						item, started[item].Load(), procs-1)
				}
			}
			if n := merges.Load(); int(n) != procs-1 {
				t.Fatalf("%d workers merged, want %d", n, procs-1)
			}
		})
	}
}
