package inject

import (
	"sort"

	"clear/internal/prog"
	"clear/internal/sim"
)

// Scenario execution: the k-flip generalization of RunOne/RunOneFrom. A
// scenario's delay-0 flips land together at the injection cycle; delayed
// flips land at cycle+Delay as the run proceeds. All flips go through the
// packed ff.State exactly like FlipBit, so the compiled-execution latch
// mirrors (DESIGN.md §11) observe them at the same State() boundary as
// single-bit injections.

// normalize sorts a scenario by (Delay, Bit) — the order flips are
// applied in — and reports the largest delay.
func (sc Scenario) normalize() (maxDelay int) {
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].Delay != sc[j].Delay {
			return sc[i].Delay < sc[j].Delay
		}
		return sc[i].Bit < sc[j].Bit
	})
	if len(sc) > 0 {
		maxDelay = sc[len(sc)-1].Delay
	}
	return maxDelay
}

// applyAt flips every scenario bit scheduled for the core's current cycle
// offset from the injection cycle, returning the count of flips consumed
// from position i.
func (sc Scenario) applyAt(c sim.Core, i, offset int) int {
	n := 0
	for i+n < len(sc) && sc[i+n].Delay == offset {
		c.State().FlipBit(sc[i+n].Bit)
		n++
	}
	return n
}

// runScenarioCold is the from-reset scenario injection: run to cycle,
// apply the flips at their scheduled offsets, run to completion or the
// hang cutoff, classify. The returned detect cycle mirrors RunOne's (-1
// unless the outcome is ED).
func runScenarioCold(c sim.Core, p *prog.Program, sc Scenario, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return runScenarioColdObs(nil, c, p, sc, cycle, nomCycles, hookFactory)
}

// runScenarioColdObs is runScenarioCold with optional attribution: when in
// carries a record sink, the in-flight occupancy is observed at the
// injection cycle (right before the first flip lands) and one Record is
// emitted after classification. The observation reads state the run was
// about to read anyway, so outcomes are identical with or without it.
func runScenarioColdObs(in *Injector, c sim.Core, p *prog.Program, sc Scenario, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	maxDelay := sc.normalize()
	c.Reset(p)
	if hookFactory != nil {
		c.SetCommitHook(hookFactory(p))
	} else {
		c.SetCommitHook(nil)
	}
	for i := 0; i < cycle && !c.Done(); i++ {
		c.Step()
	}
	sinkOn := in != nil && in.Sink != nil && len(sc) > 0
	var rec Record
	if sinkOn {
		rec = observe(c, sc[0].Bit, cycle)
	}
	applied := sc.applyAt(c, 0, 0)
	for off := 1; off <= maxDelay && applied < len(sc); off++ {
		if !c.Done() {
			c.Step()
		}
		applied += sc.applyAt(c, applied, off)
	}
	res := c.Run(HangFactor * nomCycles)
	out := Classify(p, res)
	det := -1
	if out == ED {
		det = res.Steps
	}
	if sinkOn {
		in.emit(rec, out, det)
	}
	return out, det
}

// RunScenarioFrom performs one scenario injection warm-started from the
// reference trajectory, generalizing RunOneFrom (one flip) and RunPairFrom
// (two same-cycle flips) to arbitrary flip sets. An empty scenario — a
// strike the fault model says latches nothing — is Vanished by
// construction and costs no simulation. Convergence pruning begins only
// after every flip has been applied: a state matching the reference before
// the last delayed flip lands is not provably Vanished, because the flip
// still to come would diverge it again.
//
// When the injector carries a record sink, one attribution Record is
// emitted per executed scenario, with Bit = the first-applied flip. An
// empty scenario latches nothing and emits nothing.
//
// The package-level function counts against the default injection scope;
// use the Injector method to attribute the injection to a specific scope.
func RunScenarioFrom(c sim.Core, p *prog.Program, ref *Reference, sc Scenario, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return std.RunScenarioFrom(c, p, ref, sc, cycle, nomCycles, hookFactory)
}

// RunScenarioFrom is the scoped form of the package-level RunScenarioFrom.
func (in *Injector) RunScenarioFrom(c sim.Core, p *prog.Program, ref *Reference, sc Scenario,
	cycle, nomCycles int, hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return in.runScenarioFrom(c, nil, p, ref, sc, cycle, nomCycles, hookFactory)
}

// runScenarioFrom is RunScenarioFrom for a core that may carry a checker
// (see newChecked); a checked caller passes a nil hookFactory and a usable
// ref.
func (in *Injector) runScenarioFrom(c sim.Core, chk sim.Checker, p *prog.Program, ref *Reference,
	sc Scenario, cycle, nomCycles int, hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	in.injTotal.Add(1)
	if len(sc) == 0 {
		return Vanished, -1
	}
	if hookFactory != nil || !ref.usable() {
		return runScenarioColdObs(in, c, p, sc, cycle, nomCycles, hookFactory)
	}
	return in.runScenarioWarm(c, chk, p, ref, sc, cycle, nomCycles)
}

// runScenarioWarm is the warm-started scenario injection body shared by
// RunScenarioFrom and the packed engine's spill replays (batch.go); the
// caller has already tallied the injection, ruled out the cold fallback,
// and ensured the scenario is non-empty.
func (in *Injector) runScenarioWarm(c sim.Core, chk sim.Checker, p *prog.Program, ref *Reference,
	sc Scenario, cycle, nomCycles int) (Outcome, int) {
	maxDelay := sc.normalize()
	idx := cycle / ref.Interval
	if idx >= len(ref.Ckpts) {
		idx = len(ref.Ckpts) - 1
	}
	ref.restore(c, chk, idx)
	for c.Cycles() < cycle && !c.Done() {
		c.Step()
	}
	sinkOn := in.Sink != nil
	var rec Record
	if sinkOn {
		rec = observe(c, sc[0].Bit, cycle)
	}
	applied := sc.applyAt(c, 0, 0)
	for off := 1; off <= maxDelay && applied < len(sc); off++ {
		if !c.Done() {
			c.Step()
		}
		applied += sc.applyAt(c, applied, off)
	}
	out, det := in.finishInjected(c, chk, p, ref, cycle, nomCycles)
	if sinkOn {
		in.emit(rec, out, det)
	}
	return out, det
}
