package inject

import (
	"clear/internal/prog"
	"clear/internal/sim"
)

// The injection kernel. Every strike — a single-bit upset, a SEMU pair, an
// mbu cluster — is a Scenario: flip-flops flipped together at the
// injection cycle. It runs through one of two bodies. The cold body
// (runCold) replays from reset; it is the reference the tests hold the
// warm body to. The warm body (runWarm) restores the nearest fault-free
// checkpoint and ends the run as Vanished once the state reconverges. The
// packed engine (batch.go) forks its lanes off a carrier core instead of
// restoring, and finishes them through the warm body's tail,
// finishInjected. All flips go through the packed ff.State (FlipBit), so
// the compiled-execution latch mirrors (DESIGN.md §11) observe every
// strike at the same State() boundary.

// RunOne performs a single-bit cold injection: RunScenario with the
// one-flip scenario {bit}.
func RunOne(c sim.Core, p *prog.Program, bit, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return RunScenario(c, p, Scenario{bit}, cycle, nomCycles, hookFactory)
}

// RunScenario performs one cold injection: reset c, run to cycle, flip
// every bit of sc, run to completion or the hang cutoff, classify.
// hookFactory, when non-nil, supplies a fresh commit-stream checker for the
// run (its detections classify as ED). The returned detect cycle is the
// cycle a detection fired at (-1 unless the outcome is ED).
func RunScenario(c sim.Core, p *prog.Program, sc Scenario, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return runCold(nil, c, p, sc, cycle, nomCycles, hookFactory)
}

// runCold is the cold body behind RunScenario. A non-nil sink receives the
// run's attribution Record; sc must then be non-empty.
func runCold(sink RecordSink, c sim.Core, p *prog.Program, sc Scenario, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	c.Reset(p)
	var hook sim.CommitHook
	if hookFactory != nil {
		hook = hookFactory(p)
	}
	c.SetCommitHook(hook)
	for i := 0; i < cycle && !c.Done(); i++ {
		c.Step()
	}
	var rec Record
	if sink != nil {
		rec = observe(c, sc[0], cycle)
	}
	strike(c, sc)
	out, det := classifyRun(p, c.Run(HangFactor*nomCycles))
	if sink != nil {
		emit(sink, rec, out, det)
	}
	return out, det
}

// RunOneFrom performs a single-bit injection warm-started from the
// reference trajectory: it restores the nearest snapshot at or before the
// injection cycle, steps the remaining cycle-mod-interval cycles, flips the
// bit, and runs to completion with convergence pruning — at every
// checkpoint boundary the injected state is compared against the
// fault-free snapshot for the same cycle, and an exact match ends the run
// immediately as Vanished (two bit-identical states of a deterministic
// core share the same future, and the reference future halts with the
// golden output).
//
// The returned (Outcome, detectCycle) is identical to RunOne's for the same
// (bit, cycle): restoring reproduces the exact pre-injection state, and
// pruning only replaces a suffix whose outcome is already decided. A commit
// hook passed as an opaque hookFactory has no state the engine can restore
// or compare, so such runs take RunOne's exact from-reset path. The
// injection and any convergence prune are tallied on this injector.
func (in *Injector) RunOneFrom(c sim.Core, p *prog.Program, ref *Reference, bit, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return in.runScenarioFrom(c, nil, p, ref, Scenario{bit}, cycle, nomCycles, hookFactory)
}

// runScenarioFrom performs and tallies one injection of sc at cycle. An
// empty scenario — a strike the fault model says latches nothing — is
// Vanished by construction and costs no simulation. An opaque hookFactory,
// or a reference that cannot warm-start, takes the cold body; everything
// else takes the warm body. chk is the checker newChecked installed on c in
// a checked campaign (nil otherwise); a checked caller passes a nil
// hookFactory and a usable ref. With a record sink attached, one Record is
// emitted per executed scenario and none for the empty one.
func (in *Injector) runScenarioFrom(c sim.Core, chk sim.Checker, p *prog.Program, ref *Reference,
	sc Scenario, cycle, nomCycles int, hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	in.injTotal.Add(1)
	switch {
	case len(sc) == 0:
		return Vanished, -1
	case hookFactory != nil || !ref.usable():
		return runCold(in.Sink, c, p, sc, cycle, nomCycles, hookFactory)
	}
	return in.runWarm(c, chk, p, ref, sc, cycle, nomCycles)
}

// runWarm is the warm body: restore the nearest reference snapshot at or
// before cycle (core and checker), step to cycle, flip sc, and finish
// through finishInjected. sc must be non-empty.
func (in *Injector) runWarm(c sim.Core, chk sim.Checker, p *prog.Program, ref *Reference,
	sc Scenario, cycle, nomCycles int) (Outcome, int) {
	ref.restore(c, chk, min(cycle/ref.Interval, len(ref.Ckpts)-1))
	for c.Cycles() < cycle && !c.Done() {
		c.Step()
	}
	var rec Record
	if in.Sink != nil {
		rec = observe(c, sc[0], cycle)
	}
	strike(c, sc)
	out, det := in.finishInjected(c, chk, p, ref, cycle, nomCycles)
	if in.Sink != nil {
		emit(in.Sink, rec, out, det)
	}
	return out, det
}

// strike flips every bit of sc in c's current cycle.
func strike(c sim.Core, sc Scenario) {
	st := c.State()
	for _, bit := range sc {
		st.FlipBit(bit)
	}
}

// finishInjected runs the already-injected remainder of a warm run: step to
// each checkpoint boundary, end as Vanished the moment the state — core and
// checker — reconverges with the fault-free reference, classify at
// completion or the hang budget. The packed engine continues evicted lanes
// through it too: an evicted lane holds exactly the state the warm body
// would have at the same cycle (lanes step the same deterministic core and
// carry their own checker copy), so the continuation's boundary checks and
// classification reproduce the warm body's outcome bit for bit.
func (in *Injector) finishInjected(c sim.Core, chk sim.Checker, p *prog.Program, ref *Reference,
	cycle, nomCycles int) (Outcome, int) {
	budget := HangFactor * nomCycles
	for !c.Done() && c.Cycles() < budget {
		next := min((c.Cycles()/ref.Interval+1)*ref.Interval, budget)
		for !c.Done() && c.Cycles() < next {
			c.Step()
		}
		if c.Done() {
			break
		}
		if i := c.Cycles() / ref.Interval; c.Cycles()%ref.Interval == 0 && i < len(ref.Ckpts) &&
			ref.matches(c, chk, i) {
			in.injPruned.Add(1)
			in.pruneCycles.Observe(int64(c.Cycles() - cycle))
			return Vanished, -1
		}
	}
	if c.Done() {
		return classifyRun(p, c.Result())
	}
	return classifyRun(p, prog.Result{Status: prog.StatusMaxSteps, Output: c.Output(), Steps: c.Cycles()})
}
