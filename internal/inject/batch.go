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
//     and continued through finishInjected, the exact tail the scalar
//     RunOneFrom/RunScenarioFrom paths run — the lane already holds the
//     state the scalar path would have at that cycle, so outcomes stay bit
//     identical;
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
// Lanes still live at the window's end, and lanes that could not fork
// (carrier finished first, delayed flips, out-of-range checkpoint index)
// are likewise finished through the scalar warm bodies. Campaigns with an
// opaque commit hook never run packed, because its state cannot be copied
// at a fork; nor do sink-carrying ones, because the scalar
// per-worker-per-bit loop is what guarantees the record sink's
// deterministic per-bit arrival order.

import (
	"runtime"
	"sort"
	"sync"

	"clear/internal/lanes"
	"clear/internal/prog"
	"clear/internal/sim"
)

// Packed selects the gang-batched engine for eligible campaigns (no opaque
// hook, sinkless, checkpointed). It only affects campaign running time: results
// are bit-for-bit identical either way for a fixed Config.Seed, so — like
// CheckpointInterval — it is deliberately not part of Config and does not
// key the on-disk campaign cache. The -packed=false flag on clearsweep,
// precompute and faultinject is the escape hatch back to per-injection
// scalar replay.
var Packed = true

// GangWidth is the number of fault scenarios one packed batch carries.
const GangWidth = lanes.Width

// packedLane is one planned injection: its compact strike-population index
// (the worker tally slot), the struck bit (first-applied flip for
// scenarios), the injection cycle, and the expanded scenario (nil for the
// ssb model's single-bit strike).
type packedLane struct {
	pop   int
	bit   int
	cycle int
	sc    Scenario
}

// laneGang is one batch of lanes sharing a checkpoint window. ckpt < 0
// marks a spill gang: lanes the packed engine cannot fork (delayed flips,
// out-of-range checkpoint index), replayed through the scalar warm bodies.
type laneGang struct {
	ckpt  int
	lanes []packedLane
}

// packedPlan is a campaign's sampled population sorted into gangs plus the
// empty-scenario strikes that are Vanished by construction.
type packedPlan struct {
	gangs    []laneGang
	vanished []packedLane
}

// planPacked samples the campaign's (bit, cycle) population — the identical
// splitmix64 stream the scalar loop draws — and groups the resulting lanes
// by checkpoint window, each window's lanes sorted by injection cycle and
// chunked into gangs of at most GangWidth. Sorting before chunking keeps
// each gang's forks inside a short time slice of the window, so a gang's
// carrier stops stepping as soon as its slice is decided.
func planPacked(cfg Config, ref *Reference, nomCycles, nStrikes int, strikes []int,
	ssb bool, model FaultModel, env *ModelEnv) packedPlan {
	var plan packedPlan
	byWindow := make(map[int][]packedLane)
	var spill []packedLane
	for i := 0; i < nStrikes; i++ {
		bit := i
		if strikes != nil {
			bit = strikes[i]
		}
		for s := 0; s < cfg.SamplesPerFF; s++ {
			h := splitmix64(cfg.Seed ^ uint64(bit)<<20 ^ uint64(s))
			cycle := int(h % uint64(nomCycles))
			ln := packedLane{pop: i, bit: bit, cycle: cycle}
			if !ssb {
				sc := model.Expand(env, bit, cycle, h)
				if len(sc) == 0 {
					plan.vanished = append(plan.vanished, ln)
					continue
				}
				ln.sc = sc
				if sc.normalize() > 0 {
					// Delayed flips re-diverge a lane after it may already
					// match the carrier, so they cannot be gang-pruned;
					// no registered model emits them, but the seam stays
					// correct if one does.
					spill = append(spill, ln)
					continue
				}
			}
			idx := cycle / ref.Interval
			if idx >= len(ref.Ckpts) {
				spill = append(spill, ln)
				continue
			}
			byWindow[idx] = append(byWindow[idx], ln)
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
			hi := lo + GangWidth
			if hi > len(lns) {
				hi = len(lns)
			}
			plan.gangs = append(plan.gangs, laneGang{ckpt: idx, lanes: lns[lo:hi]})
		}
	}
	for lo := 0; lo < len(spill); lo += GangWidth {
		hi := lo + GangWidth
		if hi > len(spill) {
			hi = len(spill)
		}
		plan.gangs = append(plan.gangs, laneGang{ckpt: -1, lanes: spill[lo:hi]})
	}
	return plan
}

// gangWorker is one campaign worker's packed execution state: the carrier,
// a lazily grown lane-core pool, a scalar core for spills and unforked
// lanes — each with its own checker in a checked campaign (nil otherwise)
// — and the compact per-population tallies merged into the Result under
// the campaign mutex.
type gangWorker struct {
	in        *Injector
	kind      CoreKind
	p         *prog.Program
	ref       *Reference
	cf        func(*prog.Program) sim.Checker
	nomCycles int

	carrier, scalar       sim.Core
	carrierChk, scalarChk sim.Checker
	cores                 [GangWidth]sim.Core
	chks                  [GangWidth]sim.Checker

	local        []FFStats
	totals       Counts
	latSum, latN int64
}

// lane returns the pool core for a slot, creating it on first use so a
// campaign whose gangs never fill (small populations) never pays for 64
// cores per worker.
func (w *gangWorker) lane(slot int) sim.Core {
	if w.cores[slot] == nil {
		w.cores[slot], w.chks[slot] = newChecked(w.kind, w.p, w.cf)
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

// tally accumulates one decided lane, mirroring the scalar campaign loop's
// accounting exactly (including the detection-latency guard).
func (w *gangWorker) tally(ln packedLane, out Outcome, det int) {
	if out == ED && det >= ln.cycle {
		w.latSum += int64(det - ln.cycle)
		w.latN++
	}
	st := &w.local[ln.pop]
	st.N++
	switch out {
	case OMM:
		st.OMM++
	case UT:
		st.UT++
	case Hang:
		st.Hang++
	case ED:
		st.ED++
	}
	w.totals.Add(out)
}

// replay finishes one lane through the scalar warm bodies (the injection
// itself was already counted by the gang).
func (w *gangWorker) replay(ln packedLane) {
	if w.scalar == nil {
		w.scalar, w.scalarChk = newChecked(w.kind, w.p, w.cf)
	}
	var out Outcome
	var det int
	if ln.sc == nil {
		out, det = w.in.runOneWarm(w.scalar, w.scalarChk, w.p, w.ref, ln.bit, ln.cycle, w.nomCycles)
	} else {
		out, det = w.in.runScenarioWarm(w.scalar, w.scalarChk, w.p, w.ref, ln.sc, ln.cycle, w.nomCycles)
	}
	w.tally(ln, out, det)
}

// classifyDone classifies a lane that finished during lockstep, mirroring
// the scalar tail's Done branch.
func classifyDone(p *prog.Program, c sim.Core) (Outcome, int) {
	res := c.Result()
	out := Classify(p, res)
	det := -1
	if out == ED {
		det = res.Steps
	}
	return out, det
}

// runGang executes one gang: replay the window prefix on the carrier, fork
// each lane at its cycle, lockstep-and-classify until every lane is
// decided or the window ends, then finish the survivors scalar-style.
func (w *gangWorker) runGang(g laneGang) {
	w.in.injTotal.Add(int64(len(g.lanes)))
	if g.ckpt < 0 {
		for _, ln := range g.lanes {
			w.replay(ln)
		}
		return
	}
	if w.carrier == nil {
		w.carrier, w.carrierChk = newChecked(w.kind, w.p, w.cf)
	}
	car := w.carrier
	w.ref.restore(car, w.carrierChk, g.ckpt)
	windowEnd := (g.ckpt + 1) * w.ref.Interval

	var live lanes.Mask
	var slot [GangWidth]packedLane
	next := 0
	for {
		t := car.Cycles()
		for next < len(g.lanes) && g.lanes[next].cycle == t && !car.Done() {
			s := live.FirstFree()
			lc := w.lane(s)
			lc.(sim.GangCore).CopyStateFrom(car)
			if w.chks[s] != nil {
				w.chks[s].CopyFrom(w.carrierChk)
			}
			ln := g.lanes[next]
			if ln.sc == nil {
				lc.State().FlipBit(ln.bit)
			} else {
				// All flips are delay-0 (planPacked spills the rest), applied
				// in the scenario's normalized order like applyAt.
				for _, f := range ln.sc {
					lc.State().FlipBit(f.Bit)
				}
			}
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
				out, det := classifyDone(w.p, lc)
				w.tally(slot[s], out, det)
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
				w.tally(slot[s], Vanished, -1)
				live.Clear(s)
			case d&(sim.DiffCtl|sim.DiffAux) != 0:
				// Control flow left the reference trajectory, or side state
				// (memory/output/SRAMs/checker) diverged: reconvergence is no
				// longer cheap to detect, so continue the lane scalar-style.
				out, det := w.in.finishInjected(lc, w.chks[s], w.p, w.ref, slot[s].cycle, w.nomCycles)
				w.tally(slot[s], out, det)
				live.Clear(s)
			}
		}
	}
	// Window over (or carrier finished): survivors keep their exact lane
	// state and run the scalar tail from here.
	for m := live; !m.Empty(); {
		s := m.PopLowest()
		out, det := w.in.finishInjected(w.lane(s), w.chks[s], w.p, w.ref, slot[s].cycle, w.nomCycles)
		w.tally(slot[s], out, det)
	}
	// Lanes whose fork point the carrier never reached (it halted first):
	// the scalar warm bodies reproduce the inject-into-finished-state case.
	for ; next < len(g.lanes); next++ {
		w.replay(g.lanes[next])
	}
}

// runPacked executes the campaign through the gang engine, filling res. It
// reports false — leaving res untouched — when the core design lacks the
// gang hooks, in which case the caller falls back to the scalar loop.
// Identical per-(bit, cycle) outcomes summed by commutative tallies make
// the filled Result byte-identical to the scalar loop's.
func (in *Injector) runPacked(res *Result, cfg Config, p *prog.Program, ref *Reference,
	cf func(*prog.Program) sim.Checker, nomCycles, nStrikes int, strikes []int, ssb bool,
	model FaultModel, env *ModelEnv) bool {
	if _, ok := NewCore(cfg.Core, p).(sim.GangCore); !ok {
		return false
	}
	plan := planPacked(cfg, ref, nomCycles, nStrikes, strikes, ssb, model, env)

	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	gangs := make(chan laneGang, workers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &gangWorker{
				in: in, kind: cfg.Core, p: p, ref: ref, cf: cf, nomCycles: nomCycles,
				local: make([]FFStats, nStrikes),
			}
			for g := range gangs {
				w.runGang(g)
			}
			mu.Lock()
			for i := range w.local {
				bit := i
				if strikes != nil {
					bit = strikes[i]
				}
				res.PerFF[bit].N += w.local[i].N
				res.PerFF[bit].OMM += w.local[i].OMM
				res.PerFF[bit].UT += w.local[i].UT
				res.PerFF[bit].Hang += w.local[i].Hang
				res.PerFF[bit].ED += w.local[i].ED
			}
			res.Totals.Merge(w.totals)
			res.DetLatSum += w.latSum
			res.DetN += w.latN
			mu.Unlock()
		}()
	}
	for _, g := range plan.gangs {
		gangs <- g
	}
	close(gangs)
	wg.Wait()

	// Strikes the fault model says latch nothing: Vanished by construction,
	// no simulation — the same bookkeeping RunScenarioFrom's empty-scenario
	// path performs.
	for _, ln := range plan.vanished {
		in.injTotal.Add(1)
		res.PerFF[ln.bit].N++
		res.Totals.Add(Vanished)
	}
	return true
}
