package ooo

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"clear/internal/bench"
	"clear/internal/ff"
	"clear/internal/prog"
	"clear/internal/sim"
)

// The fault-injection engine decides a strike on inert flip-flops
// (AllocInert in allocInto, space.go) Vanished without simulating it. That
// is sound only if the declaration is closed: nothing Step computes may
// depend on an inert bit. The tests below check closure directly. From a
// captured state they randomize every inert bit of a compiled core and of
// an interpreter twin, step both in lockstep with an unperturbed core, and
// require every cycle that everything outside the inert bits stays
// identical: flip-flops, register file, memory, output, predictor and
// cache-tag SRAMs, counters, status and commit events.

// bitsWhere lists the bits of the space for which keep reports true:
// bitsWhere(sharedSpace.Inert) are the bits of the fields the core declares
// inert, bitsWhere(c.Dead) the bits dead in c's current state.
func bitsWhere(keep func(bit int) bool) []int {
	var bits []int
	for bit := 0; bit < sharedSpace.NumBits(); bit++ {
		if keep(bit) {
			bits = append(bits, bit)
		}
	}
	return bits
}

// commitLog collects the commit events a core emits.
type commitLog struct{ evs []sim.CommitEvent }

func (l *commitLog) observe(ev sim.CommitEvent) bool {
	l.evs = append(l.evs, ev)
	return false
}

// liveDiff names the first part of c's simulation state that differs from
// ref's outside the inert flip-flops — and, with dead, outside the
// flip-flops dead in ref (Dead) — or returns "". Both latch states are
// packed the way Snapshot packs them.
func liveDiff(ref, c *Core, dead bool) string {
	ref.packU()
	c.packU()
	switch {
	case c.cycles != ref.cycles || c.retired != ref.retired || c.done != ref.done || c.status != ref.status:
		return "counters or status"
	case !sharedSpace.EqualExceptInert(ref.st, c.st) && (!dead || !equalExceptDead(ref, c)):
		return "live flip-flops"
	case c.arf != ref.arf:
		return "register file"
	case !slices.Equal(c.mem, ref.mem):
		return "memory"
	case !slices.Equal(c.out, ref.out):
		return "output"
	case c.btbTag != ref.btbTag || c.btbTgt != ref.btbTgt || c.btbValid != ref.btbValid || c.gshare != ref.gshare:
		return "predictor SRAMs"
	case c.cacheTag != ref.cacheTag || c.cacheVld != ref.cacheVld:
		return "cache-tag SRAMs"
	}
	return ""
}

// requireClosure restores three cores of p to ck: an unperturbed compiled
// core, and a compiled core and an interpreter twin each restored from a
// copy of ck whose packed image perturb flips. It steps all three in lockstep until the unperturbed core
// finishes or maxCycles elapse, and fails t the first cycle a perturbed
// core's state (liveDiff, with dead) or commit events differ from the
// unperturbed core's. It stops early once both perturbed cores hold
// exactly the unperturbed core's state, which fixes their futures.
func requireClosure(t testing.TB, p *prog.Program, ck *sim.Checkpoint, perturb func(*ff.State), dead bool, maxCycles int, what string) {
	t.Helper()
	ref, refLog := New(p), &commitLog{}
	ref.Restore(ck)
	ref.SetCommitHook(refLog.observe)
	type twin struct {
		name string
		c    *Core
		step func()
		log  commitLog
	}
	ct, ci := New(p), New(p)
	twins := []*twin{{name: "compiled", c: ct, step: ct.Step}, {name: "interpreter", c: ci, step: ci.stepInterp}}
	for _, tw := range twins {
		pck := *ck
		pck.FF = ck.FF.Clone()
		perturb(pck.FF)
		tw.c.Restore(&pck)
		tw.c.SetCommitHook(tw.log.observe)
	}
	for n := 0; n < maxCycles && !ref.done; n++ {
		ref.Step()
		converged := true
		for _, tw := range twins {
			tw.step()
			if d := liveDiff(ref, tw.c, dead); d != "" {
				t.Fatalf("%s: perturbed %s core: %s diverged at cycle %d", what, tw.name, d, ref.cycles)
			}
			if !slices.Equal(tw.log.evs, refLog.evs) {
				t.Fatalf("%s: perturbed %s core: commit events diverged at cycle %d", what, tw.name, ref.cycles)
			}
			tw.log.evs = tw.log.evs[:0]
			converged = converged && tw.c.st.Equal(ref.st)
		}
		refLog.evs = refLog.evs[:0]
		if converged {
			return
		}
	}
}

// requireInertClosure runs requireClosure with every inert bit of both
// perturbed cores set to a random value.
func requireInertClosure(t testing.TB, p *prog.Program, ck *sim.Checkpoint, rng *rand.Rand, maxCycles int, what string) {
	t.Helper()
	bits := bitsWhere(sharedSpace.Inert)
	requireClosure(t, p, ck, func(st *ff.State) {
		for _, bit := range bits {
			if rng.IntN(2) == 1 {
				st.FlipBit(bit)
			}
		}
	}, false, maxCycles, what+" with random inert bits")
}

// TestInertClosure checks the inert declaration on the tiny program and
// every benchmark, from five points of each nominal run to completion.
func TestInertClosure(t *testing.T) {
	if len(bitsWhere(sharedSpace.Inert)) == 0 {
		t.Fatal("the core declares no inert flip-flops")
	}
	progs := []*prog.Program{tinyProgram(t)}
	for _, b := range bench.All() {
		p, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		progs = append(progs, p)
	}
	const maxCycles = 10_000_000
	rng := rand.New(rand.NewPCG(0x1AE7, 0))
	for _, p := range progs {
		nom := New(p).Run(maxCycles).Steps
		c := New(p)
		for k := 0; k < 5; k++ {
			for c.cycles < k*nom/5 {
				c.Step()
			}
			requireInertClosure(t, p, c.Snapshot(), rng, maxCycles, fmt.Sprintf("%s from cycle %d", p.Name, c.cycles))
		}
	}
}

// FuzzInertClosure checks the inert declaration on generated programs
// (FuzzInterpEquivalence's generator and seeds): from a fuzz-chosen cycle
// of a fault-free run, random inert bits must leave everything else
// unchanged for 512 cycles or until the program ends.
func FuzzInertClosure(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, bitSeed, cycleSeed uint32) {
		p := fuzzProgram(data)
		c := New(p)
		for c.cycles < int(cycleSeed%256) && !c.done {
			c.Step()
		}
		what := fmt.Sprintf("%d words from cycle %d", len(p.Words), c.cycles)
		requireInertClosure(t, p, c.Snapshot(), rand.New(rand.NewPCG(uint64(bitSeed), 0)), 512, what)
	})
}
