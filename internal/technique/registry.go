package technique

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"clear/internal/power"
	"clear/internal/recovery"
)

// Registry holds registered techniques in deterministic canonical order
// (registration order). The default registry is seeded with the paper's
// library in the canonical display order; third-party techniques append
// after the built-ins.
type Registry struct {
	mu     sync.RWMutex
	order  []Technique
	byName map[string]Technique
	// techs and recs are order split into the non-recovery techniques and
	// the recovery mechanisms. Every registration change replaces both with
	// new slices and never writes into the old ones, so Walk and Recovery
	// read them without copying.
	techs []Technique
	recs  []RecoveryTechnique
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Technique)}
}

var std = NewRegistry()

// Default returns the process-wide registry the engine consults.
func Default() *Registry { return std }

// Register adds a technique at the end of the canonical order. It returns
// an error (never panics) for a nil technique, an invalid name, or a
// duplicate registration.
func (r *Registry) Register(t Technique) error {
	if t == nil {
		return fmt.Errorf("technique: register nil technique")
	}
	name := t.Name()
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("technique: register with empty name")
	}
	if strings.ContainsAny(name, "+()") {
		return fmt.Errorf("technique: name %q contains a combination-label separator", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("technique: %q already registered", name)
	}
	r.byName[name] = t
	r.order = append(r.order, t)
	r.split()
	return nil
}

// split rebuilds techs and recs from order; r.mu is held for writing.
func (r *Registry) split() {
	var techs []Technique
	var recs []RecoveryTechnique
	for _, t := range r.order {
		if t.Layer() != Recovery {
			techs = append(techs, t)
		} else if rt, ok := t.(RecoveryTechnique); ok {
			recs = append(recs, rt)
		}
	}
	r.techs, r.recs = techs, recs
}

// mustRegister is Register for the built-in seeding, where failure is a
// programming error.
func (r *Registry) mustRegister(t Technique) {
	if err := r.Register(t); err != nil {
		panic(err)
	}
}

// Unregister removes a technique by name, reporting whether it existed.
// Intended for tests and short-lived experiment registrations; removing a
// built-in leaves the engine unable to express its combinations.
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		return false
	}
	delete(r.byName, name)
	for i, t := range r.order {
		if t.Name() == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.split()
	return true
}

// Lookup returns the technique registered under name, or an error (never a
// panic) listing the known names.
func (r *Registry) Lookup(name string) (Technique, error) {
	r.mu.RLock()
	t, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("technique: unknown technique %q (registered: %s)",
			name, strings.Join(r.Names(), ", "))
	}
	return t, nil
}

// All returns every registered technique (recoveries included) in canonical
// order.
func (r *Registry) All() []Technique {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Technique(nil), r.order...)
}

// Techniques returns the registered non-recovery techniques in canonical
// order.
func (r *Registry) Techniques() []Technique {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.techs)
}

// Walk calls fn on each registered non-recovery technique in canonical
// order, without copying the registry.
func (r *Registry) Walk(fn func(Technique)) {
	r.mu.RLock()
	techs := r.techs
	r.mu.RUnlock()
	for _, t := range techs {
		fn(t)
	}
}

// Recoveries returns the registered recovery mechanisms in canonical order.
func (r *Registry) Recoveries() []RecoveryTechnique {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.recs)
}

// Recovery returns the registered recovery technique implementing kind k,
// or nil (recovery.None has no technique).
func (r *Registry) Recovery(k recovery.Kind) RecoveryTechnique {
	r.mu.RLock()
	recs := r.recs
	r.mu.RUnlock()
	for _, rt := range recs {
		if rt.Kind() == k {
			return rt
		}
	}
	return nil
}

// Names returns the canonical-order name list.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	for i, t := range r.order {
		out[i] = t.Name()
	}
	return out
}

// Validate checks every registered technique's contract: a layer within
// the stack, at least one applicable core kind, and a well-formed (finite,
// non-NaN) cost contribution on each applicable core. It returns the first
// violation, or nil.
func (r *Registry) Validate() error {
	for _, t := range r.All() {
		if t.Layer() < Circuit || t.Layer() > Recovery {
			return fmt.Errorf("technique %q: invalid layer %d", t.Name(), t.Layer())
		}
		models := map[string]power.Model{"InO": power.InO(), "OoO": power.OoO()}
		applies := false
		for _, core := range CoreKinds {
			if !t.AppliesTo(core) {
				continue
			}
			applies = true
			c := t.Cost(models[core], core)
			for _, v := range []float64{c.Area, c.Power, c.ExecTime} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("technique %q: non-finite cost contribution on %s", t.Name(), core)
				}
			}
		}
		if !applies {
			return fmt.Errorf("technique %q: applies to no core kind", t.Name())
		}
	}
	return nil
}
