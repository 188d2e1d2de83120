package inject

// Packed (gang-batched) campaign execution — ROADMAP item 2(a), DESIGN.md
// §14. A campaign's injections are grouped by the checkpoint window their
// injection cycle falls in; each group is split into gangs of up to
// lanes.Width scenarios. One fault-free carrier core replays the window's
// shared prefix from the PR 1 reference checkpoint exactly once per gang;
// every lane forks off the carrier at its injection cycle with a
// zero-allocation state clone (sim.GangCore.CopyStateFrom), takes its
// flips, and then steps in lockstep with the carrier. Each cycle, a lane is
// compared against the carrier (sim.GangCore.DiffFrom):
//
//   - identical full state ⇒ the lane is gang-pruned Vanished immediately —
//     the same soundness argument as boundary pruning (two bit-identical
//     states of a deterministic core share the same future, and the
//     carrier's future is the fault-free run), detected within one cycle of
//     reconvergence instead of at the next checkpoint boundary;
//   - control-flow divergence (PC/done/status/counters) or side-state
//     divergence (memory/output/SRAMs) ⇒ the lane is evicted from the gang
//     and continued through finishInjected, the warm body's exact tail —
//     the lane already holds the state the warm body would have at that
//     cycle, so outcomes stay bit identical;
//   - pure latch divergence ⇒ the lane stays in lockstep, the state most
//     likely to reconverge (a struck value still draining through the
//     pipeline).
//
// Checked campaigns (RunChecked) give the carrier and every lane core a
// checker of their own: the carrier's is loaded from the reference with
// the carrier's snapshot, and a lane's is copied from the carrier's at the
// fork. The checker is part of the state a prune needs — a lane whose core
// matches the carrier but whose checker does not (a corrupted signature
// still waiting for its block end) has not reconverged, so it counts as a
// DiffAux divergence and is evicted, never pruned.
//
// Lanes still live at the window's end are likewise finished through
// finishInjected. Every planned lane forks: a sampled cycle lies below
// nomCycles, so its checkpoint window exists and the fault-free carrier is
// still running when it gets there. Campaigns with an opaque commit hook
// never run packed, because its state cannot be copied at a fork; nor do
// sink-carrying ones, because the scalar per-worker-per-bit loop is what
// guarantees the record sink's deterministic per-bit arrival order.

import (
	"sort"

	"clear/internal/lanes"
	"clear/internal/sim"
)

// Packed selects the gang-batched engine for eligible campaigns (no opaque
// hook, sinkless, checkpointed). It only affects campaign running time:
// results are bit-for-bit identical either way for a fixed Config.Seed, so
// — like CheckpointInterval — it is deliberately not part of Config and
// does not key the on-disk campaign cache. Tests and cmd/perfbench turn it
// off to run the scalar loop the packed engine is checked against.
var Packed = true

// GangWidth is the number of fault scenarios one packed batch carries.
const GangWidth = lanes.Width

// packedLane is one planned injection: its compact strike-population index
// (the worker tally slot), the struck bit, the injection cycle, and the
// sample hash, from which the fork re-expands the lane's scenario.
type packedLane struct {
	pop   int
	bit   int
	cycle int
	h     uint64
}

// laneGang is one batch of lanes sharing the checkpoint window ckpt.
type laneGang struct {
	ckpt  int
	lanes []packedLane
}

// packedPlan is a campaign's sampled population sorted into gangs plus the
// bits of the empty-scenario strikes, which are Vanished by construction.
type packedPlan struct {
	gangs    []laneGang
	vanished []int
}

// planPacked samples the campaign's (bit, cycle) population — the identical
// splitmix64 stream the scalar loop draws — and groups the resulting lanes
// by checkpoint window, each window's lanes sorted by injection cycle and
// chunked into gangs of at most GangWidth. Sorting before chunking keeps
// each gang's forks inside a short time slice of the window, so a gang's
// carrier stops stepping as soon as its slice is decided.
func planPacked(c *campaign) packedPlan {
	var plan packedPlan
	byWindow := make(map[int][]packedLane)
	var sc Scenario
	for i := 0; i < c.nStrikes; i++ {
		bit := c.bit(i)
		for s := 0; s < c.cfg.SamplesPerFF; s++ {
			h, cycle := c.sample(bit, s)
			if sc = c.model.Expand(c.env, bit, cycle, h, sc[:0]); len(sc) == 0 {
				plan.vanished = append(plan.vanished, bit)
				continue
			}
			idx := cycle / c.ref.Interval
			byWindow[idx] = append(byWindow[idx], packedLane{pop: i, bit: bit, cycle: cycle, h: h})
		}
	}
	windows := make([]int, 0, len(byWindow))
	for idx := range byWindow {
		windows = append(windows, idx)
	}
	sort.Ints(windows)
	for _, idx := range windows {
		lns := byWindow[idx]
		sort.SliceStable(lns, func(i, j int) bool { return lns[i].cycle < lns[j].cycle })
		for lo := 0; lo < len(lns); lo += GangWidth {
			plan.gangs = append(plan.gangs, laneGang{ckpt: idx, lanes: lns[lo:min(lo+GangWidth, len(lns))]})
		}
	}
	return plan
}

// gangWorker is one campaign worker's packed execution state: the carrier
// and a lazily grown lane-core pool — each with its own checker in a
// checked campaign (nil otherwise) — the scenario buffer forks expand
// into, and the worker's compact tally.
type gangWorker struct {
	in *Injector
	c  *campaign

	carrier    sim.Core
	carrierChk sim.Checker
	cores      [GangWidth]sim.Core
	chks       [GangWidth]sim.Checker
	sc         Scenario

	tally
}

// lane returns the pool core for a slot, creating it on first use so a
// campaign whose gangs never fill (small populations) never pays for 64
// cores per worker.
func (w *gangWorker) lane(slot int) sim.Core {
	if w.cores[slot] == nil {
		w.cores[slot], w.chks[slot] = newChecked(w.c.cfg.Core, w.c.p, w.c.cf)
	}
	return w.cores[slot]
}

// laneDiff classifies a lane against the carrier like sim.GangCore.DiffFrom,
// counting a checker mismatch behind identical cores as DiffAux: the lane
// has not reconverged until its checker has too.
func laneDiff(lc, car sim.Core, lchk, carChk sim.Checker) uint8 {
	d := lc.(sim.GangCore).DiffFrom(car)
	if d == 0 && lchk != nil && !lchk.Equal(carChk) {
		d = sim.DiffAux
	}
	return d
}

// finish continues the lane in slot s from its current state through the
// warm body's tail and tallies the outcome.
func (w *gangWorker) finish(s int, ln packedLane) {
	out, det := w.in.finishInjected(w.lane(s), w.chks[s], w.c.p, w.c.ref, ln.cycle, w.c.nomCycles)
	w.add(ln.pop, ln.cycle, out, det)
}

// runGang executes one gang: replay the window prefix on the carrier, fork
// each lane at its cycle, lockstep-and-classify until every lane is
// decided or the window ends, then finish the survivors through the warm
// body's tail.
func (w *gangWorker) runGang(g laneGang) {
	c := w.c
	w.in.injTotal.Add(int64(len(g.lanes)))
	if w.carrier == nil {
		w.carrier, w.carrierChk = newChecked(c.cfg.Core, c.p, c.cf)
	}
	car := w.carrier
	c.ref.restore(car, w.carrierChk, g.ckpt)
	windowEnd := (g.ckpt + 1) * c.ref.Interval

	var live lanes.Mask
	var slot [GangWidth]packedLane
	next := 0
	for {
		t := car.Cycles()
		for next < len(g.lanes) && g.lanes[next].cycle == t {
			s := live.FirstFree()
			lc := w.lane(s)
			lc.(sim.GangCore).CopyStateFrom(car)
			if w.chks[s] != nil {
				w.chks[s].CopyFrom(w.carrierChk)
			}
			ln := g.lanes[next]
			w.sc = c.model.Expand(c.env, ln.bit, ln.cycle, ln.h, w.sc[:0])
			strike(lc, w.sc)
			slot[s] = ln
			live.Set(s)
			next++
		}
		if car.Done() || t >= windowEnd || (live.Empty() && next >= len(g.lanes)) {
			break
		}
		car.Step()
		for m := live; !m.Empty(); {
			s := m.PopLowest()
			lc := w.lane(s)
			lc.Step()
			if lc.Done() {
				out, det := classifyRun(c.p, lc.Result())
				w.add(slot[s].pop, slot[s].cycle, out, det)
				live.Clear(s)
				continue
			}
			switch d := laneDiff(lc, car, w.chks[s], w.carrierChk); {
			case d == 0:
				// Gang prune: bit-identical to the fault-free carrier at the
				// same cycle, checker included, so the lane's future is the
				// reference future — provably Vanished, same accounting as a
				// boundary prune.
				w.in.injPruned.Add(1)
				w.in.pruneCycles.Observe(int64(lc.Cycles() - slot[s].cycle))
				w.add(slot[s].pop, slot[s].cycle, Vanished, -1)
				live.Clear(s)
			case d&(sim.DiffCtl|sim.DiffAux) != 0:
				// Control flow left the reference trajectory, or side state
				// (memory/output/SRAMs/checker) diverged: reconvergence is no
				// longer cheap to detect, so continue the lane on its own.
				w.finish(s, slot[s])
				live.Clear(s)
			}
		}
	}
	// Window over (or carrier finished): survivors keep their exact lane
	// state and run the warm body's tail from here.
	for m := live; !m.Empty(); {
		s := m.PopLowest()
		w.finish(s, slot[s])
	}
}

// runPacked executes the campaign through the gang engine, filling res.
// Identical per-(bit, cycle) outcomes summed by commutative tallies make
// the filled Result byte-identical to the scalar loop's.
func (in *Injector) runPacked(res *Result, c *campaign) {
	plan := planPacked(c)
	fanOut(len(plan.gangs), func() (func(int), func()) {
		w := &gangWorker{in: in, c: c, tally: tally{local: make([]FFStats, c.nStrikes)}}
		return func(g int) { w.runGang(plan.gangs[g]) }, func() { w.mergeInto(res, c) }
	})
	// Strikes the fault model says latch nothing: Vanished by construction,
	// no simulation — the same bookkeeping runScenarioFrom's empty-scenario
	// path performs.
	for _, bit := range plan.vanished {
		in.injTotal.Add(1)
		res.PerFF[bit].N++
		res.Totals.Add(Vanished)
	}
}
