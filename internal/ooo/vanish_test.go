package ooo

import (
	"testing"

	"clear/internal/bench"
	"clear/internal/prog"
)

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
	default:
		return "hang"
	}
}

// The Appendix-A analogue for the OoO core: bypass staging and cache
// staging registers are written every cycle and never read. The core
// declares them inert; strikes on every one of them, run from reset to the
// end, must vanish.
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
		for i := 0; i < len(bits); i += 8 {
			for _, cycle := range []int{nom / 5, nom / 2, 3 * nom / 4} {
				if got := classify(t, p, bits[i], cycle, nom); got != "vanish" {
					t.Fatalf("%s bit %d cycle %d: %s, want vanish", name, bits[i], cycle, got)
				}
			}
		}
	}
	if inert == 0 {
		t.Fatal("the core declares no inert fields")
	}
}

// Branch-predictor state is performance-only: corrupting the global
// history register must never change architectural results. RF0.F1.lhist
// always vanishes but is not inert: it steers fetch prediction, so a flip
// there changes cycle counts and the lane must still be simulated.
func TestPredictorStateIsPerformanceOnly(t *testing.T) {
	p := bench.ByName("parser").MustProgram()
	nom := New(p).Run(1_000_000).Steps
	for _, bit := range Space().BitsOf("RF0.F1.lhist") {
		for _, cycle := range []int{nom / 4, nom / 2} {
			if got := classify(t, p, bit, cycle, nom); got != "vanish" {
				t.Fatalf("lhist bit %d cycle %d: %s — predictor corruption must vanish", bit, cycle, got)
			}
		}
	}
}

// Core bookkeeping structures must be genuinely vulnerable.
func TestVulnerableStructures(t *testing.T) {
	p := bench.ByName("gap").MustProgram()
	nom := New(p).Run(1_000_000).Steps
	// Pointer structures are hot every cycle; data entries (rob.val*) have
	// narrow live windows and need denser sampling to observe.
	for _, tc := range []struct {
		name  string
		every int
	}{
		{"rob.head.reg", 13}, {"rob.tail.reg", 13}, {"RF0.PCreg", 13},
		{"rob.val5", 1},
	} {
		bits := Space().BitsOf(tc.name)
		bad := 0
		for cycle := 1; cycle < nom; cycle += tc.every {
			bit := bits[cycle%len(bits)]
			if classify(t, p, bit, cycle, nom) != "vanish" {
				bad++
			}
		}
		if bad == 0 {
			t.Errorf("%s: every injection vanished; expected vulnerability", tc.name)
		}
	}
}

// A corrupted ROB pointer must never crash the simulator itself — chaos is
// fine (hang/trap/OMM), a Go panic is not.
func TestCorruptionNeverPanics(t *testing.T) {
	p := bench.ByName("mcf").MustProgram()
	nom := New(p).Run(2_000_000).Steps
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("simulator panicked under corruption: %v", r)
		}
	}()
	targets := []string{"rob.head.reg", "rob.tail.reg", "rob.count.reg",
		"mem.stq.head.reg", "mem.stq.tail.reg", "RF1.F2.head", "RF1.F2.count",
		"sched0.rob0", "mem.l1dcache.access.rob"}
	for _, name := range targets {
		for _, bit := range Space().BitsOf(name) {
			classify(t, p, bit, nom/3, nom)
		}
	}
}
