package archres

import (
	"testing"

	"clear/internal/bench"
	"clear/internal/inject"
	"clear/internal/ino"
	"clear/internal/ooo"
	"clear/internal/power"
	"clear/internal/prog"
)

// Error-free runs must never trip the checkers (no false positives).
func TestNoFalsePositives(t *testing.T) {
	for _, b := range bench.All() {
		p := b.MustProgram()
		c := ino.New(p)
		c.SetCommitHook(NewDFCChecker(p).Observe)
		res := c.Run(5_000_000)
		if res.Status != prog.StatusHalted {
			t.Fatalf("DFC false positive on %s: %v", b.Name, res.Status)
		}
	}
	for _, b := range bench.ForOoO() {
		p := b.MustProgram()
		c := ooo.New(p)
		c.SetCommitHook(NewMonitorChecker(p).Observe)
		res := c.Run(5_000_000)
		if res.Status != prog.StatusHalted {
			t.Fatalf("monitor false positive on %s: %v", b.Name, res.Status)
		}
		if !p.OutputsEqual(res.Output) {
			t.Fatalf("monitor changed output on %s", b.Name)
		}
	}
}

// DFC must detect instruction-stream corruption but miss pure data
// corruption — the paper's core observation about its limited coverage.
func TestDFCCoverageCharacter(t *testing.T) {
	p := bench.ByName("gzip").MustProgram()

	// corrupt the latched instruction word in the execute stage: the
	// committed word changes -> dataflow signature mismatch
	f, _ := ino.Space().Lookup("e.ctrl.inst")
	core := ino.New(p)
	nom := ino.New(p).Run(1_000_000)
	detInst := 0
	for cyc := 100; cyc < 400; cyc += 10 {
		out, _ := inject.RunOne(core, p, f.Offset()+3, cyc, nom.Steps, NewDFCChecker)
		if out == inject.ED {
			detInst++
		}
	}
	if detInst == 0 {
		t.Fatal("DFC never detected instruction corruption")
	}

	// corrupt a data operand: signature unchanged -> mostly undetected
	g, _ := ino.Space().Lookup("e.op1")
	detData, omm := 0, 0
	for cyc := 100; cyc < 400; cyc += 10 {
		out, _ := inject.RunOne(core, p, g.Offset()+20, cyc, nom.Steps, NewDFCChecker)
		switch out {
		case inject.ED:
			detData++
		case inject.OMM:
			omm++
		}
	}
	t.Logf("DFC: inst-corruption detected %d; data-corruption detected %d, escaped %d",
		detInst, detData, omm)
	if omm == 0 {
		t.Fatal("expected data corruption to escape DFC as OMM")
	}
}

// The monitor core re-executes everything, so it must catch data corruption
// that escapes DFC.
func TestMonitorCatchesDataCorruption(t *testing.T) {
	p := bench.ByName("inner_product").MustProgram()
	f, _ := ooo.Space().Lookup("sched0.s1val0")
	core := ooo.New(p)
	nom := ooo.New(p).Run(1_000_000)
	det, omm := 0, 0
	for cyc := 50; cyc < 350; cyc += 5 {
		for bit := 0; bit < 32; bit += 11 {
			out, _ := inject.RunOne(core, p, f.Offset()+bit, cyc, nom.Steps, NewMonitorChecker)
			switch out {
			case inject.ED:
				det++
			case inject.OMM:
				omm++
			}
		}
	}
	t.Logf("monitor: detected %d, escaped %d", det, omm)
	if det == 0 {
		t.Fatal("monitor detected nothing")
	}
	if omm > det {
		t.Fatalf("monitor escaped more than it caught (%d vs %d)", omm, det)
	}
}

func TestMonitorThroughput(t *testing.T) {
	// Table 9: the 2GHz/0.7-IPC monitor must not stall the 600MHz main core.
	if MonitorStallsMain(600, 1.3) {
		t.Fatal("monitor should sustain the OoO core's commit rate")
	}
	if !MonitorStallsMain(2000, 1.5) {
		t.Fatal("a fast main core should overwhelm the monitor")
	}
}

func TestCheckerCosts(t *testing.T) {
	dfcInO := DFCCost(power.InO())
	dfcOoO := DFCCost(power.OoO())
	if dfcInO.Area < 0.01 || dfcInO.Area > 0.08 {
		t.Fatalf("InO DFC area %.3f implausible (paper ~3%%)", dfcInO.Area)
	}
	if dfcOoO.Area > dfcInO.Area {
		t.Fatal("DFC should be relatively cheaper on the big core")
	}
	if dfcInO.ExecTime != DFCExecImpactInO {
		t.Fatal("exec impact not propagated")
	}
	mon := MonitorCost(power.OoO())
	if mon.Area < 0.03 || mon.Area > 0.2 {
		t.Fatalf("monitor area %.3f implausible (paper ~9%%)", mon.Area)
	}
	if mon.Energy() < 0.08 || mon.Energy() > 0.3 {
		t.Fatalf("monitor energy %.3f implausible (paper ~16.3%%)", mon.Energy())
	}
	t.Logf("DFC InO %+v, DFC OoO %+v, monitor %+v (energy %.3f)",
		dfcInO, dfcOoO, mon, mon.Energy())
}
