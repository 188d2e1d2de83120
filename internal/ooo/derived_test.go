package ooo

import (
	"fmt"
	"testing"

	"clear/internal/bench"
	"clear/internal/ff"
	"clear/internal/isa"
	"clear/internal/prog"
	"clear/internal/tcode"
)

// requireDerived fails t unless c's derived state follows its latch words:
// every carried decode translates its entry's instruction word (its In
// equals isa.Decode of the word), and each source's tag index equals one
// rebuilt from the tag latches.
func requireDerived(t testing.TB, c *Core, what string) {
	t.Helper()
	u := &c.u
	check := func(structure string, i int, d *tcode.DInst, word uint64) {
		t.Helper()
		if d == nil {
			t.Fatalf("%s: cycle %d: %s entry %d carries no decode", what, c.cycles, structure, i)
		}
		if want := isa.Decode(uint32(word)); d.In != want {
			t.Fatalf("%s: cycle %d: %s entry %d carries %+v for word %#08x, which decodes to %+v",
				what, c.cycles, structure, i, d.In, word, want)
		}
	}
	for i := range FBSize {
		check("fetch-buffer", i, c.d.fb[i], u.fbInst[i])
	}
	for i := range RobSize {
		check("ROB", i, c.d.rob[i], u.robInst[i])
	}
	for i := range IQSize {
		check("issue-queue", i, c.d.iq[i], u.iqInst[i])
	}
	var s1, s2 [1 << tagBits]uint16
	for i := range IQSize {
		s1[u.iqS1Tag[i]] |= 1 << i
		s2[u.iqS2Tag[i]] |= 1 << i
	}
	for tag := range s1 {
		if c.d.s1Holds[tag] != s1[tag] || c.d.s2Holds[tag] != s2[tag] {
			t.Fatalf("%s: cycle %d: tag %d indexes entries %016b and %016b; the tag latches hold it in %016b and %016b",
				what, c.cycles, tag, c.d.s1Holds[tag], c.d.s2Holds[tag], s1[tag], s2[tag])
		}
	}
}

// derivedFields are the latch words derived state reads: every
// fetch-buffer, ROB and issue-queue instruction word and every tag latch.
func derivedFields() []ff.Field {
	r := &sharedRegs
	fs := append([]ff.Field(nil), r.fbInst[:]...)
	fs = append(fs, r.robInst[:]...)
	fs = append(fs, r.iqInst[:]...)
	fs = append(fs, r.iqS1Tag[:]...)
	return append(fs, r.iqS2Tag[:]...)
}

// TestDerivedFollowsLatches runs the tiny program and every OoO benchmark
// and requires, after every Step, that the derived state follows the latch
// words (requireDerived). From four points of each nominal run it also
// checks each way the latch state is replaced, and the steps that follow:
// a Restore of the walking core after it ran ahead, a FlipBits into every
// word derived state reads (one bit of each, a different one at each
// point), and a CopyStateFrom into a core holding another cycle's derived
// state, which then steps in lockstep with its source.
func TestDerivedFollowsLatches(t *testing.T) {
	progs := []*prog.Program{tinyProgram(t)}
	for _, b := range bench.ForOoO() {
		p, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		progs = append(progs, p)
	}
	const points, tail = 4, 24
	fields := derivedFields()
	for _, p := range progs {
		nominal := New(p).Run(10_000_000).Steps
		c, f, g := New(p), New(p), New(p)
		requireDerived(t, c, p.Name+" Reset")
		g.Step() // g holds the derived state of another cycle before each copy
		step := func(c *Core, what string) {
			t.Helper()
			c.Step()
			requireDerived(t, c, what)
		}
		for pt := 1; pt <= points; pt++ {
			for at := pt * nominal / (points + 1); c.cycles < at; {
				step(c, p.Name+" nominal")
			}
			what := fmt.Sprintf("%s from cycle %d", p.Name, c.cycles)
			ck := c.Snapshot()

			for i := 0; i < tail && !c.done; i++ {
				step(c, what+" run ahead")
			}
			c.Restore(ck)
			requireDerived(t, c, what+" Restore")
			for i := 0; i < tail && !c.done; i++ {
				step(c, what+" after Restore")
			}
			c.Restore(ck)

			for i, fl := range fields {
				bit := fl.Offset() + (pt*7+i)%fl.Width()
				name, _ := sharedSpace.NameOf(bit)
				f.Restore(ck)
				f.FlipBits(bit)
				flipped := fmt.Sprintf("%s after flipping %s bit %d", what, name, bit)
				requireDerived(t, f, flipped)
				for j := 0; j < tail && !f.done; j++ {
					step(f, flipped)
				}
			}

			f.Restore(ck)
			step(f, what)
			g.CopyStateFrom(f)
			requireDerived(t, g, what+" CopyStateFrom")
			for j := 0; j < tail && !f.done; j++ {
				step(f, what+" copy source")
				step(g, what+" after CopyStateFrom")
				if g.DiffFrom(f) != 0 {
					t.Fatalf("%s: copy diverged from its source at cycle %d", what, f.cycles)
				}
			}
		}
		for !c.done {
			step(c, p.Name+" nominal")
		}
	}
}
