package inject

// The campaign engine — DESIGN.md §14. Injector.run plans every campaign
// once: planCampaign draws the frozen splitmix64 sample stream, sets the
// strikes the fault model expands to nothing aside (Vanished by
// construction), and groups the rest by the checkpoint window their
// injection cycle falls in, each window's lanes sorted by cycle and split
// into gangs of up to lanes.Width. One executor, worker.run, then takes
// each gang through the gang engine.
//
// One fault-free carrier core replays the window's shared prefix
// from the reference checkpoint exactly once per gang; every lane forks off
// the carrier at its injection cycle with a zero-allocation state clone
// (sim.GangCore.CopyStateFrom), takes its flips, and then steps in lockstep
// with the carrier. Each cycle, a lane is compared against the carrier
// (sim.GangCore.DiffFrom):
//
//   - identical full state, the cycle and retired counters aside (no Step
//     reads them) ⇒ the lane is gang-pruned Vanished immediately — the
//     same soundness argument as boundary pruning (two such states of a
//     deterministic core share the same future, and the carrier's future
//     is the fault-free run), detected within one cycle of reconvergence
//     instead of at the next checkpoint boundary;
//   - control-flow divergence (PC/done/status) or side-state
//     divergence (memory/output/SRAMs) ⇒ the lane is evicted from the gang
//     and continued through finishInjected, the warm body's exact tail —
//     the lane already holds the state the warm body would have at that
//     cycle, so outcomes stay bit identical;
//   - pure latch divergence ⇒ the lane stays in lockstep, the state most
//     likely to reconverge (a struck value still draining through the
//     pipeline).
//
// Checked campaigns (Run with a checker factory) give the carrier and
// every lane core a checker of their own: the carrier's is loaded from the
// reference with the carrier's snapshot, and a lane's is copied from the
// carrier's at the fork. The checker is part of the state a prune needs —
// a lane whose core matches the carrier but whose checker does not (a
// corrupted signature still waiting for its block end) has not
// reconverged, so it counts as a DiffAux divergence and is evicted, never
// pruned.
//
// Lanes still live at the window's end are likewise finished through
// finishInjected, which first tests the boundary they stand on: a
// survivor that differs from the reference checkpoint only in the retired
// counter and in flip-flops inert or dead there is Vanished at once.
// Every planned lane reaches its fork: a sampled cycle lies
// below nomCycles, so its checkpoint window exists and the fault-free
// carrier is still running when it gets there. A record sink observes each
// lane right after its fork and receives the record when the lane is
// decided.
//
// A lane whose scenario flips only inert flip-flops (ff.Space.AllocInert:
// state the core never reads) or flip-flops dead in the carrier's state at
// the fork (sim.GangCore.Dead: payloads behind a closed gate, overwritten
// before anything reads them) is decided Vanished at its fork cycle
// without taking a slot: its core would differ from the carrier only in
// bits nothing reads before they are overwritten, so it would follow the
// carrier's fault-free future to the golden halt, and no checker could
// see a difference in the commit stream. Its record is observed on the
// carrier, which holds exactly the state the lane would have had before
// its flips.

import (
	"clear/internal/lanes"
	"clear/internal/sim"
)

// plannedLane is one planned injection: its compact strike-population index
// (the worker tally slot, whose struck bit campaign.bit gives), the
// injection cycle, and the sample hash, from which the lane's scenario is
// re-expanded when it runs. The plan holds every lane of the campaign for
// the campaign's whole run, so a lane takes 16 bytes: a population index
// lies below the space's size and a cycle below the nominal-run budget
// (nomBudget), so both fit an int32.
type plannedLane struct {
	pop   int32
	cycle int32
	h     uint64
}

// laneGang is one batch of lanes sharing the checkpoint window ckpt.
type laneGang struct {
	ckpt  int
	lanes []plannedLane
}

// campaignPlan is a campaign's sampled population sorted into gangs plus
// the bits of the empty-scenario strikes, which are Vanished by
// construction.
type campaignPlan struct {
	gangs    []laneGang
	vanished []int
}

// planCampaign samples the campaign's (bit, cycle) population and groups
// the resulting lanes by checkpoint window, each window's lanes sorted by
// injection cycle and chunked into gangs of at most lanes.Width. Sorting
// before chunking keeps each gang's forks inside a short time slice of the
// window, so a gang's carrier stops stepping as soon as its slice is
// decided.
//
// The sort is a stable counting sort on the strike cycle, O(lanes +
// nomCycles), over two walks of the sample stream. The first counts the
// lanes per cycle and marks each draw whose scenario expands to nothing;
// the counts' prefix sums give each cycle its first slot. The second
// redraws each unmarked sample and scatters its lane straight into that
// slot, in stream order, so the plan holds every lane once and runs the
// fault model once per draw. Each window is then a contiguous run of the
// sorted lanes.
func planCampaign(c *campaign) campaignPlan {
	var plan campaignPlan
	n := c.nStrikes * c.cfg.SamplesPerFF
	empty := make([]uint64, (n+63)/64)    // bit k: draw k expanded to nothing
	first := make([]int32, c.nomCycles+1) // a campaign plans far fewer than 2^31 lanes
	var sc Scenario
	for i, k := 0, uint(0); i < c.nStrikes; i++ {
		bit := c.bit(i)
		for s := 0; s < c.cfg.SamplesPerFF; s, k = s+1, k+1 {
			h, cycle := c.sample(bit, s)
			if sc = c.model.Expand(c.env, bit, cycle, h, sc[:0]); len(sc) == 0 {
				empty[k/64] |= 1 << (k % 64)
				plan.vanished = append(plan.vanished, bit)
				continue
			}
			first[cycle+1]++
		}
	}
	for t := 1; t < len(first); t++ {
		first[t] += first[t-1]
	}
	sorted := make([]plannedLane, first[c.nomCycles])
	for i, k := 0, uint(0); i < c.nStrikes; i++ {
		bit := c.bit(i)
		for s := 0; s < c.cfg.SamplesPerFF; s, k = s+1, k+1 {
			if empty[k/64]&(1<<(k%64)) != 0 {
				continue
			}
			h, cycle := c.sample(bit, s)
			sorted[first[cycle]] = plannedLane{pop: int32(i), cycle: int32(cycle), h: h}
			first[cycle]++
		}
	}
	for lo := 0; lo < len(sorted); {
		idx := int(sorted[lo].cycle) / c.interval
		end := int32((idx + 1) * c.interval) // the first cycle past the window
		hi := lo + 1
		for hi < len(sorted) && hi-lo < lanes.Width && sorted[hi].cycle < end {
			hi++
		}
		plan.gangs = append(plan.gangs, laneGang{ckpt: idx, lanes: sorted[lo:hi:hi]})
		lo = hi
	}
	return plan
}

// worker is one campaign worker's execution state: the carrier and a
// lazily grown lane-core pool — each with its own checker in a checked
// campaign (nil otherwise) — the scenario buffer lanes expand into, the
// worker's compact tally and, when the campaign carries a sink, its
// recorder and the record observed at each live slot's fork.
type worker struct {
	in *Injector
	c  *campaign

	carrier    sim.Core
	carrierChk sim.Checker
	cores      [lanes.Width]sim.Core
	chks       [lanes.Width]sim.Checker
	scratch    sim.Core // finishInjected's deadlock test, created on first use
	sc         Scenario

	tally

	rec  *recorder
	recs []Record
}

// newWorker returns a campaign worker for c.
func newWorker(in *Injector, c *campaign) *worker {
	w := &worker{in: in, c: c, tally: tally{local: make([]FFStats, c.nStrikes)}}
	if in.Sink != nil {
		w.rec, w.recs = newRecorder(in.Sink), make([]Record, lanes.Width)
	}
	return w
}

// lane returns the pool core for a slot, creating it on first use so a
// campaign whose gangs never fill (small populations) never pays for 64
// cores per worker.
func (w *worker) lane(slot int) sim.Core {
	if w.cores[slot] == nil {
		w.cores[slot], w.chks[slot] = newChecked(w.c.cfg.Core, w.c.p, w.c.cf)
	}
	return w.cores[slot]
}

// expand re-expands ln's scenario into the worker's buffer.
func (w *worker) expand(ln plannedLane) Scenario {
	w.sc = w.c.model.Expand(w.c.env, w.c.bit(int(ln.pop)), int(ln.cycle), ln.h, w.sc[:0])
	return w.sc
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

// decide tallies the outcome of lane ln, live in slot s, and emits the
// record observed at its fork.
func (w *worker) decide(s int, ln plannedLane, out Outcome, det int) {
	w.add(int(ln.pop), int(ln.cycle), out, det)
	if w.rec != nil {
		w.rec.emit(w.recs[s], out, det)
	}
}

// finish continues lane ln, live in slot s, from its current state through
// the warm body's tail and decides it.
func (w *worker) finish(s int, ln plannedLane) {
	out, det := w.in.finishInjected(w.lane(s), w.chks[s], &w.scratch, w.c.p, w.c.ref, int(ln.cycle), w.c.nomCycles)
	w.decide(s, ln, out, det)
}

// run executes one gang on the gang engine: replay the window prefix on
// the carrier, decide each lane whose flips are all inert or dead at its
// cycle and fork every other one, lockstep-and-classify until every lane
// is decided or the window ends, then finish the survivors through the
// warm body's tail.
func (w *worker) run(g laneGang) {
	w.in.injTotal.Add(int64(len(g.lanes)))
	c := w.c
	if w.carrier == nil {
		w.carrier, w.carrierChk = newChecked(c.cfg.Core, c.p, c.cf)
	}
	car := w.carrier
	gang := car.(sim.GangCore)
	c.ref.restore(car, w.carrierChk, g.ckpt)
	windowEnd := (g.ckpt + 1) * c.interval

	var live lanes.Mask
	var slot [lanes.Width]plannedLane
	next := 0
	for {
		t := car.Cycles()
		for ; next < len(g.lanes) && int(g.lanes[next].cycle) == t; next++ {
			ln := g.lanes[next]
			sc := w.expand(ln)
			if vanished, inert := c.atFork(gang, sc); vanished {
				if inert {
					w.in.injInert.Add(1)
				} else {
					w.in.injDead.Add(1)
				}
				w.add(int(ln.pop), t, Vanished, -1)
				if w.rec != nil {
					w.rec.emit(w.rec.observe(car, sc[0], t), Vanished, -1)
				}
				continue
			}
			s := live.FirstFree()
			lc := w.lane(s)
			lc.(sim.GangCore).CopyStateFrom(car)
			if w.chks[s] != nil {
				w.chks[s].CopyFrom(w.carrierChk)
			}
			if w.rec != nil {
				w.recs[s] = w.rec.observe(lc, sc[0], t)
			}
			strike(lc, sc)
			slot[s] = ln
			live.Set(s)
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
				w.decide(s, slot[s], out, det)
				live.Clear(s)
				continue
			}
			switch d := laneDiff(lc, car, w.chks[s], w.carrierChk); {
			case d == 0:
				// Gang prune: identical to the fault-free carrier at the same
				// cycle but perhaps for the retired counter, which no Step
				// reads, checker included, so the lane's future is the
				// reference future — provably Vanished, same accounting as a
				// boundary prune.
				w.in.injPruned.Add(1)
				w.in.pruneCycles.Observe(int64(lc.Cycles() - int(slot[s].cycle)))
				w.decide(s, slot[s], Vanished, -1)
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
