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
// nearest fault-free checkpoint and, at each checkpoint boundary, ends the
// run as Vanished once its state matches the fault-free one in everything
// a future cycle reads, or as Hang once its core is deadlocked. The gang
// engine (batch.go) forks its lanes off a carrier core instead of
// restoring and finishes them through the warm body's tail,
// finishInjected; a lane whose flips all land in inert or dead flip-flops
// is decided at its fork. Every strike lands through the
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
	c.Run(cycle)
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
// bit, and runs to completion through finishInjected — at every
// checkpoint boundary, the strike cycle's included, a state that matches
// the fault-free snapshot for the same cycle (sim.Core.Matches: equal but
// for the retired counter and flip-flops inert or dead in the snapshot)
// ends the run as Vanished, since it shares the reference future, which
// halts with the golden output; and a deadlocked core ends it as Hang.
//
// The returned (Outcome, detectCycle) is identical to RunOne's for the same
// (bit, cycle): restoring reproduces the exact pre-injection state, and
// both early decisions only replace a suffix whose outcome is already
// decided. A BuildReference trajectory saves no checker state, so a run
// checked by a non-nil cf takes RunOne's exact from-reset path. The
// injection, any convergence prune and any deadlock decision are tallied
// on this injector, and an attached Sink receives the injection's record.
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
	c.Run(cycle)
	var rec Record
	if r != nil {
		rec = r.observe(c, sc[0], cycle)
	}
	strike(c, sc)
	var scratch sim.Core
	out, det := in.finishInjected(c, chk, &scratch, p, ref, cycle, nomCycles)
	if r != nil {
		r.emit(rec, out, det)
	}
	return out, det
}

// strike flips every bit of sc in c's current cycle.
func strike(c sim.Core, sc Scenario) { c.FlipBits(sc...) }

// finishInjected runs the already-injected remainder of a warm run: at
// each checkpoint boundary from the cycle it starts on, end as Vanished the
// moment the state — core and checker — matches the fault-free reference
// (sim.Core.Matches, which sets aside what no future cycle reads), and as
// Hang the moment the core is deadlocked; otherwise step to the next
// boundary, and classify at completion or the hang budget. The gang engine
// continues evicted lanes and window-end survivors through it too: such a
// lane holds exactly the state the warm body would have at the same cycle
// (lanes step the same deterministic core and carry their own checker
// copy), so the continuation's boundary checks and classification
// reproduce the warm body's outcome bit for bit.
//
// The run stops at each boundary and every deadlockStride cycles, and
// steps the core from one stop to the next with one Run call. The deadlock
// test runs at a stop where the retired count has not moved since the
// previous stop: it copies the core into *scratch (created on first use)
// and steps the copy once (deadlocked). A run stuck at such a fixed
// point would step on to the hang budget and classify as Hang with no
// detection, which is what it is decided as. A stop between boundaries
// never changes what a boundary decides: a fixed point never halts, so it
// never matches a checkpoint of the fault-free run, which does.
func (in *Injector) finishInjected(c sim.Core, chk sim.Checker, scratch *sim.Core, p *prog.Program,
	ref *Reference, cycle, nomCycles int) (Outcome, int) {
	budget := HangFactor * nomCycles
	retired := int64(-1) // the retired count at the previous stop; none yet
	for !c.Done() && c.Cycles() < budget {
		t := c.Cycles()
		if t%ref.Interval == 0 {
			if i := t / ref.Interval; i < len(ref.Ckpts) && ref.matches(c, chk, i) {
				in.injPruned.Add(1)
				in.pruneCycles.Observe(int64(t - cycle))
				return Vanished, -1
			}
		}
		if c.Retired() == retired && deadlocked(c, scratch, p) {
			in.injDeadlock.Add(1)
			return Hang, -1
		}
		retired = c.Retired()
		c.Run(min((t/ref.Interval+1)*ref.Interval, (t/deadlockStride+1)*deadlockStride, budget))
	}
	if c.Done() {
		return classifyRun(p, c.Result())
	}
	return classifyRun(p, prog.Result{Status: prog.StatusMaxSteps, Output: c.Output(), Steps: c.Cycles()})
}

// deadlockStride is the most cycles finishInjected steps between two
// stops. Stopping only at boundaries would let a deadlocked lane step on
// until the second boundary after it stuck, up to two checkpoint
// intervals, before it was decided.
const deadlockStride = 32

// deadlocked reports whether c's state is a fixed point of Step: a copy of
// it in *scratch, created on first use, stepped once, is not done, has
// retired nothing, and differs from c in nothing but the cycle counter,
// which no Step reads (sim.GangCore.DiffFrom leaves it out). Every later
// cycle then repeats the same state, so the run never halts and steps to
// the hang budget. Nothing commits on the way, so no checker observes
// anything. The copy carries no commit hook; a step that would call one
// retires an instruction, which fails the test.
func deadlocked(c sim.Core, scratch *sim.Core, p *prog.Program) bool {
	if *scratch == nil {
		*scratch = NewCore(kindOf(c), p)
	}
	s := (*scratch).(sim.GangCore)
	s.CopyStateFrom(c)
	s.Step()
	return !s.Done() && s.Retired() == c.Retired() && s.DiffFrom(c) == 0
}
