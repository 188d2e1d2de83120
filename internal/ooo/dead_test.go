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

// The fault-injection engine decides a strike on flip-flops that are dead
// in the fault-free carrier's state (Dead, dead.go) Vanished at its fork.
// That is sound only if the rule is closed under Step: from a state that
// differs from a fault-free run only in bits dead there, every cycle must
// again differ only in bits dead (or inert) in the fault-free run's state
// of that cycle, with identical registers, memory, output, SRAMs,
// counters, status and commit events. The tests below check exactly that,
// against Step and the interpreter oracle: they flip dead bits of a
// captured state — single bits, and about half of all dead bits at once —
// and run the perturbed cores in lockstep with an unperturbed one.

// liveField is a field that is not inert; gated masks the bits of it (over
// the field's value) that Dead gates with g, and is 0 for an ungated field.
type liveField struct {
	f     ff.Field
	gated uint64
	g     gate
}

// liveFields lists every field that is not inert with its gated bits, read
// from the per-bit table Dead uses, so the closure check masks whole fields
// per cycle instead of asking Dead bit by bit.
var liveFields = func() []liveField {
	var out []liveField
	for _, name := range sharedSpace.FieldNames() {
		f, _ := sharedSpace.Lookup(name)
		if sharedSpace.Inert(f.Offset()) {
			continue
		}
		lf := liveField{f: f}
		for b := 0; b < f.Width(); b++ {
			g := deadGates[f.Offset()+b]
			if g.kind == gateNone {
				continue
			}
			if lf.gated != 0 && g != lf.g {
				panic(name + " has bits under two gates")
			}
			lf.gated |= 1 << b
			lf.g = g
		}
		out = append(out, lf)
	}
	return out
}()

// equalExceptDead reports whether c's flip-flops equal ref's outside the
// inert bits and the bits dead in ref's current state. Both packed images
// must be current.
func equalExceptDead(ref, c *imaged) bool {
	for _, lf := range liveFields {
		x := lf.f.Get(ref.st) ^ lf.f.Get(c.st)
		if x&lf.gated != 0 && ref.closed(lf.g) {
			x &^= lf.gated
		}
		if x != 0 {
			return false
		}
	}
	return true
}

// requireDeadClosure runs requireClosure from ck three times: with about
// half of ck's dead bits flipped (drawn independently for each perturbed
// core), and with each of two random dead bits flipped alone.
func requireDeadClosure(t testing.TB, p *prog.Program, ck *sim.Checkpoint, rng *rand.Rand, maxCycles int, what string) {
	t.Helper()
	c := New(p)
	c.Restore(ck)
	bits := bitsWhere(c.Dead)
	if len(bits) == 0 {
		return
	}
	requireClosure(t, p, ck, func(st *ff.State) {
		for _, bit := range bits {
			if rng.IntN(2) == 1 {
				st.FlipBit(bit)
			}
		}
	}, true, maxCycles, what+" with half its dead bits flipped")
	for k := 0; k < 2; k++ {
		bit := bits[rng.IntN(len(bits))]
		name, _ := sharedSpace.NameOf(bit)
		requireClosure(t, p, ck, func(st *ff.State) { st.FlipBit(bit) }, true, maxCycles,
			fmt.Sprintf("%s with dead bit %d (%s) flipped", what, bit, name))
	}
}

// TestDeadClosure checks the dead-payload rule on the tiny program and
// every benchmark, from twelve points of each nominal run to completion.
// At each point it also requires Dead to answer the same on a core
// restored from a Snapshot of the stepped core's state.
func TestDeadClosure(t *testing.T) {
	progs := []*prog.Program{tinyProgram(t)}
	for _, b := range bench.All() {
		p, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		progs = append(progs, p)
	}
	const maxCycles = 10_000_000
	const points = 12
	rng := rand.New(rand.NewPCG(0xDEAD, 0))
	for _, p := range progs {
		nom := New(p).Run(maxCycles).Steps
		c := New(p)
		for k := 0; k < points; k++ {
			for c.cycles < k*nom/points {
				c.Step()
			}
			what := fmt.Sprintf("%s from cycle %d", p.Name, c.cycles)
			stepped := bitsWhere(c.Dead)
			ck := c.Snapshot()
			restored := New(p)
			restored.Restore(ck)
			if got := bitsWhere(restored.Dead); !slices.Equal(got, stepped) {
				t.Fatalf("%s: %d bits dead after a Snapshot/Restore round trip, %d before", what, len(got), len(stepped))
			}
			if len(stepped) == 0 {
				t.Fatalf("%s: no dead bits", what)
			}
			requireDeadClosure(t, p, ck, rng, maxCycles, what)
		}
	}
}

// FuzzDeadClosure checks the dead-payload rule on generated programs
// (FuzzInterpEquivalence's generator and seeds): from a fuzz-chosen cycle
// of a fault-free run, flipped dead bits must leave everything else
// unchanged for 512 cycles or until the program ends.
func FuzzDeadClosure(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, bitSeed, cycleSeed uint32) {
		p := fuzzProgram(data)
		c := New(p)
		for c.cycles < int(cycleSeed%256) && !c.done {
			c.Step()
		}
		what := fmt.Sprintf("%d words from cycle %d", len(p.Words), c.cycles)
		requireDeadClosure(t, p, c.Snapshot(), rand.New(rand.NewPCG(uint64(bitSeed), 0)), 512, what)
	})
}
