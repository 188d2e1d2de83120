package singleflight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSharedExecution checks that N concurrent callers of the same key run
// the function exactly once and all observe its value, with every caller
// but the executor reporting joined.
func TestSharedExecution(t *testing.T) {
	var g Group[int]
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	vals := make([]int, n)
	joins := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, joined := g.Do("k", func() (int, error) {
				calls.Add(1)
				close(started)
				<-release // hold the call open so every goroutine piles up
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: unexpected error %v", i, err)
			}
			vals[i] = v
			joins[i] = joined
		}(i)
	}
	// Hold the single execution open long enough for every goroutine to
	// reach Do and join the in-flight call before it completes.
	<-started
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("function ran %d times, want 1", got)
	}
	joined := 0
	for i := range vals {
		if vals[i] != 42 {
			t.Errorf("caller %d got %d, want 42", i, vals[i])
		}
		if joins[i] {
			joined++
		}
	}
	if joined != n-1 {
		t.Errorf("%d callers joined, want %d", joined, n-1)
	}
}

// TestErrorNotRetained checks that a failed call is forgotten: the next
// sequential call re-executes instead of replaying the error.
func TestErrorNotRetained(t *testing.T) {
	var g Group[string]
	boom := errors.New("boom")
	_, err, _ := g.Do("k", func() (string, error) { return "", boom })
	if err != boom {
		t.Fatalf("first call: err = %v, want boom", err)
	}
	v, err, joined := g.Do("k", func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" || joined {
		t.Fatalf("second call = (%q, %v, joined=%v), want (ok, nil, false)", v, err, joined)
	}
}

// TestDistinctKeysIndependent checks that different keys never share.
func TestDistinctKeysIndependent(t *testing.T) {
	var g Group[int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, _ := g.Do(string(rune('a'+i)), func() (int, error) {
				calls.Add(1)
				return i, nil
			})
			if v != i {
				t.Errorf("key %d got %d", i, v)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() != 8 {
		t.Fatalf("calls = %d, want 8", calls.Load())
	}
}

// TestPanicDoesNotWedgeKey: a panicking flight must not leave its key
// behind. The caller running fn panics, callers that joined the flight
// panic with the same value instead of blocking, and a later Do on the key
// runs fn again. Every wait is bounded, so a wedged key fails the test
// instead of hanging it.
func TestPanicDoesNotWedgeKey(t *testing.T) {
	var g Group[int]
	started := make(chan struct{})
	release := make(chan struct{})
	const joiners = 4
	panics := make(chan any, 1+joiners)
	call := func(fn func() (int, error)) {
		defer func() { panics <- recover() }()
		g.Do("k", fn)
	}

	go call(func() (int, error) {
		close(started)
		<-release
		panic("boom")
	})
	<-started
	var joinedRan atomic.Int64
	for i := 0; i < joiners; i++ {
		go call(func() (int, error) {
			joinedRan.Add(1)
			return 0, nil
		})
	}
	// Hold the flight open long enough for every joiner to reach Do.
	time.Sleep(200 * time.Millisecond)
	close(release)

	timeout := time.After(5 * time.Second)
	for i := 0; i < 1+joiners; i++ {
		select {
		case v := <-panics:
			if v != "boom" {
				t.Errorf("caller %d recovered %v, want the flight's panic boom", i, v)
			}
		case <-timeout:
			t.Fatalf("only %d of %d callers returned; the key is wedged", i, 1+joiners)
		}
	}
	if n := joinedRan.Load(); n != 0 {
		t.Fatalf("%d joined callers ran fn themselves instead of joining the flight", n)
	}

	again := make(chan int, 1)
	go func() {
		v, err, joined := g.Do("k", func() (int, error) { return 7, nil })
		if err != nil || joined {
			t.Errorf("later Do = (%d, %v, joined=%v), want (7, nil, false)", v, err, joined)
		}
		again <- v
	}()
	select {
	case v := <-again:
		if v != 7 {
			t.Fatalf("later Do returned %d, want 7 from a fresh run of fn", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a later Do on the key blocked after a panicking flight")
	}
}
