package inject

import (
	"errors"
	"os"
	"strings"
	"testing"

	"clear/internal/archres"
	"clear/internal/prog"
	"clear/internal/resilient"
	"clear/internal/sim"
)

// midBlock reports whether pc lies in a basic block of p and is not the
// block's last instruction.
func midBlock(p *prog.Program, pc int) bool {
	for _, b := range p.Blocks {
		if b.Start <= pc && pc < b.End {
			return pc+1 < b.End
		}
	}
	return false
}

// TestCheckerDivergenceIsNotPruned builds the edge the checker contract
// exists for: a lane whose core state is the carrier's — it took no flip —
// but whose DFC checker saw one mid-block commit with a corrupted word, so
// only the checker's running signature differs. The gang classifier must
// call that a DiffAux divergence (evict, not gang-prune), and the warm
// body's tail the evicted lane continues through must not boundary-prune it
// either, although its core matches the reference at the next checkpoint:
// the signature mismatch surfaces at the block's end as a detection.
func TestCheckerDivergenceIsNotPruned(t *testing.T) {
	p := tinyProgram(t)
	const interval = 32
	cf := archres.NewDFCChecker
	ref, nomRes, _, err := buildReferenceCore(InO, p, interval, nomBudget, cf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Checks) != len(ref.Ckpts) || len(ref.Ckpts) < 4 {
		t.Fatalf("reference: %d snapshots, %d checker states", len(ref.Ckpts), len(ref.Checks))
	}
	nom := nomRes.Steps

	car, carChk := newChecked(InO, p, cf)
	ref.restore(car, carChk, 1)
	lane, laneChk := newChecked(InO, p, cf)
	lane.(sim.GangCore).CopyStateFrom(car)
	laneChk.CopyFrom(carChk)
	if d := laneDiff(lane, car, laneChk, carChk); d != 0 {
		t.Fatalf("fresh fork classified %#x, want 0", d)
	}

	skewed := false
	lane.SetCommitHook(func(ev sim.CommitEvent) bool {
		if !skewed && midBlock(p, int(ev.PC)) {
			skewed = true
			ev.Word ^= 1 << 7
		}
		return laneChk.Observe(ev)
	})
	for !skewed {
		car.Step()
		lane.Step()
	}
	lane.SetCommitHook(laneChk.Observe)
	if lane.Done() || car.Done() {
		t.Fatal("run ended before the perturbation")
	}
	if d := lane.(sim.GangCore).DiffFrom(car); d != 0 {
		t.Fatalf("lane core diverged from the carrier (%#x); only the checker may differ", d)
	}
	if laneChk.Equal(carChk) {
		t.Fatal("the corrupted commit left the lane's checker equal to the carrier's")
	}
	if d := laneDiff(lane, car, laneChk, carChk); d != sim.DiffAux {
		t.Fatalf("checker-only divergence classified %#x, want DiffAux (evict)", d)
	}
	if d := laneDiff(lane, car, nil, nil); d != 0 {
		t.Fatalf("unchecked classification %#x, want 0", d)
	}

	// The lane's core reaches the next checkpoint bit-identical to the
	// reference: a core-only boundary check would prune it there.
	probe := NewCore(InO, p)
	probe.(sim.GangCore).CopyStateFrom(lane)
	next := (lane.Cycles()/interval + 1) * interval
	for probe.Cycles() < next {
		probe.Step()
	}
	if !probe.Matches(ref.Ckpts[next/interval]) {
		t.Fatal("lane core does not reconverge at the next boundary; the test lost its edge")
	}

	at := lane.Cycles()
	in := NewInjector()
	if out, det := in.finishInjected(lane, laneChk, new(sim.Core), p, ref, at, nom); out != ED || det < at {
		t.Fatalf("perturbed lane finished (%v, %d), want ED after cycle %d", out, det, at)
	}
	if pruned := in.Snapshot().PrunedInjections; pruned != 0 {
		t.Fatalf("perturbed lane was pruned (%d)", pruned)
	}
	if out, _ := in.finishInjected(car, carChk, new(sim.Core), p, ref, at, nom); out != Vanished {
		t.Fatalf("unperturbed carrier finished %v, want Vanished", out)
	}
	if pruned := in.Snapshot().PrunedInjections; pruned != 1 {
		t.Fatalf("unperturbed carrier pruned %d times, want 1 boundary prune", pruned)
	}
}

// copyPanicChecker panics on every commit it observes once CopyFrom has
// loaded a state into it. Only campaign workers load checker states (a
// gang's carrier restored from the reference, a lane forked off it); the
// nominal run observes from reset and saves states with Clone.
type copyPanicChecker struct{ loaded bool }

func (c *copyPanicChecker) Observe(sim.CommitEvent) bool {
	if c.loaded {
		panic("copyPanicChecker: commit observed after CopyFrom")
	}
	return false
}

func (c *copyPanicChecker) Clone() sim.Checker       { return &copyPanicChecker{loaded: c.loaded} }
func (c *copyPanicChecker) CopyFrom(sim.Checker)     { c.loaded = true }
func (c *copyPanicChecker) Equal(o sim.Checker) bool { return c.loaded == o.(*copyPanicChecker).loaded }

// TestWorkerPanicFailsCampaign: a panic on a campaign worker goroutine
// must not kill the process. The campaign fails with a
// *resilient.PanicError carrying the worker's panic value and stack, and
// nothing is cached.
func TestWorkerPanicFailsCampaign(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", Tag: "copypanic", SamplesPerFF: 1, Seed: 5}
	cf := func(*prog.Program) sim.Checker { return &copyPanicChecker{} }

	r, err := NewInjector().Campaign(cfg, p, cf)
	var pe *resilient.PanicError
	if !errors.As(err, &pe) || r != nil {
		t.Fatalf("Campaign = (%v, %v), want a nil result and a *resilient.PanicError", r, err)
	}
	if pe.Value != "copyPanicChecker: commit observed after CopyFrom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if st := string(pe.Stack); !strings.Contains(st, "checker_test.go") || !strings.Contains(st, "inject.fanOut") {
		t.Fatalf("stack does not reach the panic site on a fanOut worker:\n%s", st)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a failed campaign left cache entries: %v", entries)
	}
}
