package ino

import (
	"fmt"
	"testing"

	"clear/internal/bench"
	"clear/internal/isa"
	"clear/internal/prog"
	"clear/internal/tcode"
)

// requireStageDecodes fails t unless every stage decode c carries is a
// translation of its latch's current word: its In equals isa.Decode of the
// word.
func requireStageDecodes(t testing.TB, c *Core, what string) {
	t.Helper()
	u := &c.u
	for _, s := range []struct {
		stage string
		d     *tcode.DInst
		word  uint32
	}{
		{"a", c.ud.a, u.aInst},
		{"e", c.ud.e, u.eInst},
		{"m", c.ud.m, u.mInst},
		{"x", c.ud.x, u.xInst},
		{"w", c.ud.w, u.wInst},
	} {
		if s.d == nil {
			t.Fatalf("%s: cycle %d: stage %s carries no decode", what, c.cycles, s.stage)
		}
		if want := isa.Decode(s.word); s.d.In != want {
			t.Fatalf("%s: cycle %d: stage %s carries %+v for word %#08x, which decodes to %+v",
				what, c.cycles, s.stage, s.d.In, s.word, want)
		}
	}
}

// latchFields are the instruction and PC latches of each stage that
// carries a decode; a flip in either makes FlipBits decode through the
// decode memo instead of the per-PC table.
var latchFields = []string{
	"a.ctrl.inst", "a.ctrl.pc",
	"e.ctrl.inst", "e.ctrl.pc",
	"m.ctrl.inst", "m.ctrl.pc",
	"x.ctrl.inst", "x.ctrl.pc",
	"w.ctrl.inst", "w.ctrl.pc",
}

// TestStageDecodesFollowLatches runs the tiny program and every benchmark
// and requires, after every Step, that each stage decode translates its
// latch word (requireStageDecodes). From eight points of each nominal run
// it also checks each way the latch state is replaced, and the steps that
// follow: a Restore of the walking core after it ran ahead, a FlipBits
// into each stage's instruction and PC latches, a FlushRecover, and a
// CopyStateFrom into a core holding another point's decodes, which then
// steps in lockstep with its source.
func TestStageDecodesFollowLatches(t *testing.T) {
	progs := []*prog.Program{tinyProgram(t)}
	for _, b := range bench.All() {
		p, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		progs = append(progs, p)
	}
	const points, tail = 8, 24
	for _, p := range progs {
		nominal := New(p).Run(10_000_000).Steps
		c, f, g := New(p), New(p), New(p)
		g.Step() // g holds live decodes of another cycle before each copy
		step := func(c *Core, what string) {
			t.Helper()
			c.Step()
			requireStageDecodes(t, c, what)
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
			requireStageDecodes(t, c, what+" Restore")
			for i := 0; i < tail && !c.done; i++ {
				step(c, what+" after Restore")
			}
			c.Restore(ck)

			for i, field := range latchFields {
				bits := sharedSpace.BitsOf(field)
				bit := bits[(pt*7+i)%len(bits)]
				f.Restore(ck)
				f.FlipBits(bit)
				flipped := fmt.Sprintf("%s after flipping %s bit %d", what, field, bit)
				requireStageDecodes(t, f, flipped)
				for j := 0; j < tail && !f.done; j++ {
					step(f, flipped)
				}
			}

			f.Restore(ck)
			step(f, what)
			f.FlushRecover()
			requireStageDecodes(t, f, what+" FlushRecover")
			for j := 0; j < tail && !f.done; j++ {
				step(f, what+" after FlushRecover")
			}

			f.Restore(ck)
			step(f, what)
			g.CopyStateFrom(f)
			requireStageDecodes(t, g, what+" CopyStateFrom")
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
