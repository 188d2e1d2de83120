package inject

import (
	"clear/internal/prog"
	"clear/internal/sim"
)

// The injection kernel. Every strike — a single-bit upset, a SEMU pair, an
// mbu cluster — is a Scenario: flip-flops flipped together at the
// injection cycle. It runs through one of two bodies. The cold body
// (runCold) replays from reset; it runs clear.InjectOne's injections and
// the tests' reference campaign. The warm body (runWarm) restores the
// nearest fault-free checkpoint and ends the run as Vanished once the
// state reconverges. The gang engine (batch.go) forks its lanes off a
// carrier core instead of restoring and finishes them through the warm
// body's tail, finishInjected; a lane whose flips all land in inert or
// dead flip-flops is decided at its fork. Every strike lands through the
// core's FlipBits, which flips bits numbered as in its ff.Space, each in
// its latch word in place (DESIGN.md §11), so a strike costs nanoseconds
// beside the cycles around it.

// RunOne performs a single-bit cold injection: RunScenario with the
// one-flip scenario {bit}.
func RunOne(c sim.Core, p *prog.Program, bit, cycle, nomCycles int,
	cf func(*prog.Program) sim.Checker) (Outcome, int) {
	return RunScenario(c, p, Scenario{bit}, cycle, nomCycles, cf)
}

// RunScenario performs one cold injection: reset c, run to cycle, flip
// every bit of sc, run to completion or the hang cutoff, classify. cf,
// when non-nil, supplies a fresh commit-stream checker for the run (its
// detections classify as ED). The returned detect cycle is the cycle a
// detection fired at (-1 unless the outcome is ED).
func RunScenario(c sim.Core, p *prog.Program, sc Scenario, cycle, nomCycles int,
	cf func(*prog.Program) sim.Checker) (Outcome, int) {
	return runCold(nil, c, p, sc, cycle, nomCycles, cf)
}

// runCold is the cold body behind RunScenario. A non-nil r records the
// run; sc must then be non-empty.
func runCold(r *recorder, c sim.Core, p *prog.Program, sc Scenario, cycle, nomCycles int,
	cf func(*prog.Program) sim.Checker) (Outcome, int) {
	c.Reset(p)
	var hook sim.CommitHook
	if cf != nil {
		hook = cf(p).Observe
	}
	c.SetCommitHook(hook)
	for i := 0; i < cycle && !c.Done(); i++ {
		c.Step()
	}
	var rec Record
	if r != nil {
		rec = r.observe(c, sc[0], cycle)
	}
	strike(c, sc)
	out, det := classifyRun(p, c.Run(HangFactor*nomCycles))
	if r != nil {
		r.emit(rec, out, det)
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
// pruning only replaces a suffix whose outcome is already decided. A
// BuildReference trajectory saves no checker state, so a run checked by a
// non-nil cf takes RunOne's exact from-reset path. The injection and any
// convergence prune are tallied on this injector, and an attached Sink
// receives the injection's record.
func (in *Injector) RunOneFrom(c sim.Core, p *prog.Program, ref *Reference, bit, cycle, nomCycles int,
	cf func(*prog.Program) sim.Checker) (Outcome, int) {
	in.injTotal.Add(1)
	if cf != nil {
		return runCold(newRecorder(in.Sink), c, p, Scenario{bit}, cycle, nomCycles, cf)
	}
	return in.runWarm(newRecorder(in.Sink), c, nil, p, ref, Scenario{bit}, cycle, nomCycles)
}

// runWarm is the warm body: restore the nearest reference snapshot at or
// before cycle (core and checker), step to cycle, flip sc, and finish
// through finishInjected. A non-nil r records the run. sc must be
// non-empty.
func (in *Injector) runWarm(r *recorder, c sim.Core, chk sim.Checker, p *prog.Program, ref *Reference,
	sc Scenario, cycle, nomCycles int) (Outcome, int) {
	ref.restore(c, chk, min(cycle/ref.Interval, len(ref.Ckpts)-1))
	for c.Cycles() < cycle && !c.Done() {
		c.Step()
	}
	var rec Record
	if r != nil {
		rec = r.observe(c, sc[0], cycle)
	}
	strike(c, sc)
	out, det := in.finishInjected(c, chk, p, ref, cycle, nomCycles)
	if r != nil {
		r.emit(rec, out, det)
	}
	return out, det
}

// strike flips every bit of sc in c's current cycle.
func strike(c sim.Core, sc Scenario) { c.FlipBits(sc...) }

// finishInjected runs the already-injected remainder of a warm run: step to
// each checkpoint boundary, end as Vanished the moment the state — core and
// checker — reconverges with the fault-free reference, classify at
// completion or the hang budget. The gang engine continues evicted lanes
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
