package ino

import (
	"testing"

	"clear/internal/bench"
	"clear/internal/prog"
)

// classify runs an injection at (bit, cycle) against b's golden output.
func classify(t *testing.T, p *prog.Program, bit, cycle, nom int) string {
	t.Helper()
	c := New(p)
	for i := 0; i < cycle && !c.Done(); i++ {
		c.Step()
	}
	c.FlipBits(bit)
	res := c.Run(2 * nom)
	switch {
	case res.Status == prog.StatusHalted && p.OutputsEqual(res.Output):
		return "vanish"
	case res.Status == prog.StatusHalted:
		return "omm"
	case res.Status == prog.StatusTrap:
		return "ut"
	case res.Status == prog.StatusDetected:
		return "ed"
	default:
		return "hang"
	}
}

// The paper's Appendix A: errors in certain structures ALWAYS vanish
// because nothing architecturally reads them. Our equivalents are the
// fields the core declares inert; strikes on every one of them, run from
// reset to the end, must vanish.
func TestAlwaysVanishStructures(t *testing.T) {
	p := bench.ByName("gap").MustProgram()
	nom := New(p).Run(1_000_000).Steps
	inert := 0
	for _, name := range Space().FieldNames() {
		bits := Space().BitsOf(name)
		if !Space().Inert(bits[0]) {
			continue
		}
		inert++
		for i, bit := range bits {
			if i%4 != 0 { // sample every 4th bit to bound runtime
				continue
			}
			for _, cycle := range []int{nom / 7, nom / 3, nom / 2, 2 * nom / 3} {
				if got := classify(t, p, bit, cycle, nom); got != "vanish" {
					t.Fatalf("%s bit %d at cycle %d: %s, want vanish", name, bit, cycle, got)
				}
			}
		}
	}
	if inert == 0 {
		t.Fatal("the core declares no inert fields")
	}
}

// Data-path structures must produce non-vanished outcomes at meaningful
// rates — if they never do, the injection plumbing is broken.
func TestVulnerableStructures(t *testing.T) {
	p := bench.ByName("gap").MustProgram()
	nom := New(p).Run(1_000_000).Steps
	for _, name := range []string{"f.pc", "e.op1", "m.result", "a.ctrl.inst"} {
		bits := Space().BitsOf(name)
		bad := 0
		total := 0
		for i := 0; i < len(bits); i += 3 {
			for _, cycle := range []int{nom / 5, nom / 2, 4 * nom / 5} {
				if classify(t, p, bits[i], cycle, nom) != "vanish" {
					bad++
				}
				total++
			}
		}
		if bad == 0 {
			t.Errorf("%s: all %d injections vanished; structure should be vulnerable", name, total)
		}
	}
}

// Injection at a cycle past the end of the run is harmless (the machine
// has halted).
func TestLateInjectionVanishes(t *testing.T) {
	p := bench.ByName("eon").MustProgram()
	nom := New(p).Run(1_000_000).Steps
	f, _ := Space().Lookup("e.op1")
	if got := classify(t, p, f.Offset()+5, nom+100, nom); got != "vanish" {
		t.Fatalf("post-halt injection: %s", got)
	}
}

// Determinism: the same (bit, cycle) always produces the same outcome.
func TestInjectionDeterminism(t *testing.T) {
	p := bench.ByName("parser").MustProgram()
	nom := New(p).Run(1_000_000).Steps
	for bit := 0; bit < Space().NumBits(); bit += 131 {
		a := classify(t, p, bit, nom/3, nom)
		b := classify(t, p, bit, nom/3, nom)
		if a != b {
			t.Fatalf("bit %d: %s then %s", bit, a, b)
		}
	}
}
