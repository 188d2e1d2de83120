// Package singleflight deduplicates concurrent calls that compute the same
// keyed value: while one caller runs the computation, every other caller
// with the same key blocks and shares the first caller's result instead of
// recomputing it. It is the mechanism behind core.Engine's exactly-once
// campaign guarantee under a parallel sweep.
//
// Unlike a memo cache, a Group forgets a key as soon as its in-flight call
// finishes; long-term memoization is the caller's job (the Engine stores
// finished results in its own maps inside the in-flight function, which
// closes the window between "not yet memoized" and "call forgotten").
package singleflight

import "sync"

// call is one in-flight computation.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
	pval any // what fn panicked with, if it did
}

// Group deduplicates concurrent calls by key. The zero value is ready to
// use. V is the computed value type.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// Do runs fn exactly once per key among concurrent callers: the first
// caller executes fn while later callers with the same key wait for and
// share its return values. joined reports whether this caller shared
// another caller's execution instead of running fn itself. Errors are
// shared like values and never retained past the in-flight call.
//
// A panic in fn is shared the same way: the caller running fn panics with
// it, every joined caller panics with the same value, and the key is
// forgotten, so a later Do runs fn again.
func (g *Group[V]) Do(key string, fn func() (V, error)) (v V, err error, joined bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		if c.pval != nil {
			panic(c.pval)
		}
		return c.val, c.err, true
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		c.pval = recover()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		if c.pval != nil {
			panic(c.pval)
		}
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}
