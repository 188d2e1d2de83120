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
// (see scenario.go). Smaller intervals cut more warm-up cycles but cost
// more snapshot memory; 0 disables checkpointing entirely, so every
// injection replays from reset through the cold body — the reference path
// the equivalence tests compare against.
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
