package inject

import (
	"fmt"

	"clear/internal/prog"
	"clear/internal/sim"
)

// CheckpointInterval is the spacing, in cycles, of the fault-free reference
// snapshots recorded during a campaign's nominal run. Each injection then
// restores the nearest preceding snapshot and steps at most
// CheckpointInterval-1 cycles to reach its injection point instead of
// replaying from reset, and the same snapshots drive convergence pruning
// (see RunOneFrom). Smaller intervals cut more warm-up cycles but cost more
// snapshot memory; 0 disables checkpointing entirely (every injection
// replays from reset, the pre-checkpoint behavior).
//
// The interval only affects campaign running time: results are bit-for-bit
// identical for any value, so it is deliberately not part of Config and
// does not key the on-disk campaign cache. The default suits this repo's
// workloads (nominal runs of a few hundred to a few thousand cycles); scale
// it with nominal length for longer programs.
var CheckpointInterval = 256

// Reference is the fault-free trajectory of one (core, program) pair:
// snapshots taken every Interval cycles during the nominal run. Ckpts[i]
// holds the state at cycle i*Interval; the last snapshot precedes the
// nominal halt. A reference built for a checked campaign also saves the
// checker's state beside each snapshot (Checks[i], taken at the same clock
// boundary; nil for hookless references), so warm starts restore the
// checker with the core. References are immutable and shared read-only by
// the campaign worker goroutines.
type Reference struct {
	Interval int
	Ckpts    []*sim.Checkpoint
	Checks   []sim.Checker
}

// usable reports whether ref can warm-start injections.
func (ref *Reference) usable() bool {
	return ref != nil && ref.Interval > 0 && len(ref.Ckpts) > 0
}

// restore rewinds c to snapshot idx. A checked run (chk non-nil, installed
// as c's commit hook by newChecked) loads the saved checker state too; an
// unchecked one drops whatever hook c carried.
func (ref *Reference) restore(c sim.Core, chk sim.Checker, idx int) {
	c.Restore(ref.Ckpts[idx])
	if chk != nil {
		chk.CopyFrom(ref.Checks[idx])
	} else {
		c.SetCommitHook(nil)
	}
}

// matches reports whether c, and chk when the run is checked, are
// bit-identical to snapshot idx: only then does the run provably share the
// reference's future.
func (ref *Reference) matches(c sim.Core, chk sim.Checker, idx int) bool {
	return c.Matches(ref.Ckpts[idx]) && (chk == nil || chk.Equal(ref.Checks[idx]))
}

// newChecked returns a fresh core of kind k bound to p and, when cf is
// non-nil, a fresh checker from cf installed as the core's commit hook for
// the core's lifetime (restores and state copies leave hooks untouched).
func newChecked(k CoreKind, p *prog.Program, cf func(*prog.Program) sim.Checker) (sim.Core, sim.Checker) {
	c := NewCore(k, p)
	if cf == nil {
		return c, nil
	}
	chk := cf(p)
	c.SetCommitHook(chk.Observe)
	return c, chk
}

// BuildReference performs the fault-free run of p on a fresh core of kind k,
// snapshotting every interval cycles (including cycle 0), and returns the
// reference trajectory together with the nominal run's result. The result is
// exactly what Core.Run(maxCycles) on a fresh core would report. A
// non-positive interval is rejected (it cannot space snapshots).
func BuildReference(k CoreKind, p *prog.Program, interval, maxCycles int) (*Reference, prog.Result, error) {
	ref, res, _, err := buildReferenceCore(k, p, interval, maxCycles, nil)
	return ref, res, err
}

// buildReferenceCore is BuildReference under an optional checker factory
// (the nominal run is then observed by one checker whose state is saved at
// every snapshot), also exposing the finished nominal core (the campaign
// records its retired-instruction count).
func buildReferenceCore(k CoreKind, p *prog.Program, interval, maxCycles int,
	cf func(*prog.Program) sim.Checker) (*Reference, prog.Result, sim.Core, error) {
	if interval <= 0 {
		return nil, prog.Result{}, nil, fmt.Errorf("inject: checkpoint interval %d must be positive", interval)
	}
	c, chk := newChecked(k, p, cf)
	ref := &Reference{Interval: interval}
	for !c.Done() && c.Cycles() < maxCycles {
		if c.Cycles()%interval == 0 {
			ref.Ckpts = append(ref.Ckpts, c.Snapshot())
			if chk != nil {
				ref.Checks = append(ref.Checks, chk.Clone())
			}
		}
		c.Step()
	}
	if !c.Done() {
		return ref, prog.Result{Status: prog.StatusMaxSteps, Output: c.Output(), Steps: c.Cycles()}, c, nil
	}
	return ref, c.Result(), c, nil
}

// RunOneFrom performs a single injection like RunOne but warm-starts from
// the reference trajectory: it restores the nearest snapshot at or before
// the injection cycle, steps the remaining cycle-mod-interval cycles, flips
// the bit, and runs to completion with convergence pruning — at every
// checkpoint boundary the injected state is compared against the fault-free
// snapshot for the same cycle, and an exact match ends the run immediately
// as Vanished (two bit-identical states of a deterministic core share the
// same future, and the reference future halts with the golden output).
//
// The returned (Outcome, detectCycle) is identical to RunOne's for the same
// (bit, cycle): restoring reproduces the exact pre-injection state, and
// pruning only replaces a suffix whose outcome is already decided. A commit
// hook passed as an opaque hookFactory has no state the engine can restore
// or compare, so such runs fall back to RunOne's exact from-reset path.
// Campaigns whose checkers implement sim.Checker (RunChecked) warm-start
// and prune instead: their reference saves the checker state at every
// snapshot, a warm start restores it with the core, and a prune requires
// both to match.
//
// The package-level function counts against the default injection scope;
// use the Injector method to attribute the injection to a specific scope.
func RunOneFrom(c sim.Core, p *prog.Program, ref *Reference, bit, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return std.RunOneFrom(c, p, ref, bit, cycle, nomCycles, hookFactory)
}

// RunOneFrom is the scoped form of the package-level RunOneFrom: the
// injection and any convergence prune are tallied on this injector.
func (in *Injector) RunOneFrom(c sim.Core, p *prog.Program, ref *Reference, bit, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return in.runOneFrom(c, nil, p, ref, bit, cycle, nomCycles, hookFactory)
}

// runOneFrom is RunOneFrom for a core that may carry a checker (see
// newChecked); a checked caller passes a nil hookFactory and a usable ref.
func (in *Injector) runOneFrom(c sim.Core, chk sim.Checker, p *prog.Program, ref *Reference,
	bit, cycle, nomCycles int, hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	in.injTotal.Add(1)
	if hookFactory != nil || !ref.usable() {
		if in.Sink == nil {
			return RunOne(c, p, bit, cycle, nomCycles, hookFactory)
		}
		// The single-bit cold path is the one-flip scenario's (identical
		// stepping, flip, and classification), and the scenario path carries
		// the attribution observation.
		return runScenarioColdObs(in, c, p, Scenario{{Bit: bit}}, cycle, nomCycles, hookFactory)
	}
	return in.runOneWarm(c, chk, p, ref, bit, cycle, nomCycles)
}

// runOneWarm is the warm-started single-flip injection body shared by
// RunOneFrom and the packed engine's spill replays (batch.go); the caller
// has already tallied the injection and ruled out the cold fallback.
func (in *Injector) runOneWarm(c sim.Core, chk sim.Checker, p *prog.Program, ref *Reference,
	bit, cycle, nomCycles int) (Outcome, int) {
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
		rec = observe(c, bit, cycle)
	}
	c.State().FlipBit(bit)
	out, det := in.finishInjected(c, chk, p, ref, cycle, nomCycles)
	if sinkOn {
		in.emit(rec, out, det)
	}
	return out, det
}

// finishInjected runs the already-injected remainder of a warm-started run:
// step to each checkpoint boundary, end as Vanished the moment the state —
// core and checker — reconverges with the fault-free reference, classify at
// completion or the hang budget. It is the common tail of runOneWarm and
// runScenarioWarm, and the packed engine continues evicted lanes through it
// — an evicted lane holds exactly the state the scalar path would have at
// the same cycle (lanes step the same deterministic core and carry their own
// checker copy), so the continuation's boundary checks and classification
// reproduce the scalar outcome bit for bit.
func (in *Injector) finishInjected(c sim.Core, chk sim.Checker, p *prog.Program, ref *Reference,
	cycle, nomCycles int) (Outcome, int) {
	budget := HangFactor * nomCycles
	for !c.Done() && c.Cycles() < budget {
		next := (c.Cycles()/ref.Interval + 1) * ref.Interval
		if next > budget {
			next = budget
		}
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
	var res prog.Result
	if c.Done() {
		res = c.Result()
	} else {
		res = prog.Result{Status: prog.StatusMaxSteps, Output: c.Output(), Steps: c.Cycles()}
	}
	out := Classify(p, res)
	det := -1
	if out == ED {
		det = res.Steps
	}
	return out, det
}
