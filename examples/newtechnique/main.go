// Newtechnique: the paper's Sec 5 use of CLEAR — evaluating whether a NEW
// soft-error resilience technique is competitive before it is built. Where
// the paper compares a proposal's reported numbers against the cross-layer
// bound, the technique registry lets us go further: register the proposal
// as a first-class technique and let CLEAR itself enumerate it, combine it
// with the existing library and recovery mechanisms, measure it by fault
// injection, and Pareto-rank the results — all through the public clear
// API, without touching any internal package.
//
// The hypothetical technique here is "FlowGuard", a lightweight
// architecture-layer commit-PC checker: it flags commits that leave the
// program image or jump to a target that is neither sequential nor a basic
// -block entry. It is a cheaper, weaker cousin of DFC (no signatures), with
// bounded detection latency, so it can drive the IR and EIR recovery
// mechanisms.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"clear"
)

// flowGuard is the proposed technique. Embedding clear.TechniqueInfo
// supplies identity (name, layer, applicable cores) and a zero base cost;
// the methods below add the capabilities the engine probes for.
type flowGuard struct {
	clear.TechniqueInfo
}

// Cost declares the checker's fixed hardware contribution (estimated from
// a comparator tree plus a block-start lookup table).
func (flowGuard) Cost(m clear.CostModel, core string) clear.Cost {
	return clear.Cost{Area: 0.004, Power: 0.005}
}

// GammaFF / GammaExec: the checker adds a few pipeline-tracking flip-flops
// (more raw state exposed to strikes) and no execution-time overhead.
func (flowGuard) GammaFF(core string) float64   { return 0.004 }
func (flowGuard) GammaExec(core string) float64 { return 0 }

// CompatibleWith: detection at commit has bounded latency, so FlowGuard
// can drive the instruction-replay recoveries (like DFC, unlike software
// detectors).
func (flowGuard) CompatibleWith(k clear.RecoveryKind, core string) bool {
	return k == clear.RecIR || k == clear.RecEIR
}

// Checker returns the checker itself, in its reset state, for one
// injection core: it observes the commit stream, and any commit outside
// the program image, or a non-sequential transfer to something that is not
// a basic-block entry, is a detection.
func (flowGuard) Checker(p *clear.Program) clear.Checker {
	starts := make(map[uint32]bool, len(p.Blocks))
	for _, b := range p.Blocks {
		starts[uint32(b.Start)] = true
	}
	return &flowCheck{starts: starts, limit: uint32(len(p.Code))}
}

// flowCheck is one FlowGuard checker. Its state is the previous commit's
// PC and whether there was one; the block-start table and the image size
// are shared read-only by every copy.
type flowCheck struct {
	starts map[uint32]bool
	limit  uint32
	prev   uint32
	seen   bool
}

// Observe checks one commit; true is a detection.
func (f *flowCheck) Observe(ev clear.CommitEvent) bool {
	pc := ev.PC
	if pc >= f.limit {
		return true
	}
	if f.seen && pc != f.prev+1 && !f.starts[pc] {
		return true
	}
	f.prev, f.seen = pc, true
	return false
}

// Clone, CopyFrom and Equal save, load and compare the checker's state, so
// the engine can warm-start FlowGuard's campaigns from checkpoints and
// prune injections whose core and checker both reconverge.
func (f *flowCheck) Clone() clear.Checker {
	c := *f
	return &c
}

func (f *flowCheck) CopyFrom(src clear.Checker) {
	s := src.(*flowCheck)
	f.prev, f.seen = s.prev, s.seen
}

func (f *flowCheck) Equal(other clear.Checker) bool {
	o := other.(*flowCheck)
	return f.prev == o.prev && f.seen == o.seen
}

// The compiler checks that flowGuard exposes what the engine will probe.
var _ interface {
	clear.Technique
	clear.GammaContributor
	clear.CheckerHooker
	clear.TechniqueRecoveryCompat
} = flowGuard{}

func main() {
	fg := flowGuard{clear.TechniqueInfo{
		TechName:  "FlowGuard",
		TechLayer: clear.LayerArchitecture,
	}}
	if err := clear.RegisterTechnique(fg); err != nil {
		log.Fatal(err)
	}

	eng := clear.NewEngine(clear.InO)
	eng.SamplesBase, eng.SamplesTech = 1, 1 // quick sampling for the demo

	// 1. The cost-table surface: the registry now lists FlowGuard alongside
	// the built-in library, with its declared hardware cost.
	fmt.Println("registered techniques (InO cost model):")
	for _, t := range clear.Techniques() {
		c := t.Cost(eng.Model, "InO")
		marker := ""
		if t.Name() == fg.Name() {
			marker = "   <- newly registered"
		}
		fmt.Printf("  %-12s %-14s area %5.2f%%  power %5.2f%%%s\n",
			t.Name(), t.Layer(), 100*c.Area, 100*c.Power, marker)
	}

	// 2. The enumeration surface: restrict the cross-layer space to the
	// techniques under study and FlowGuard shows up combined with the
	// circuit/logic library and its compatible recoveries.
	filter, err := clear.ParseTechniqueFilter("LEAP-DICE,Parity," + fg.Name())
	if err != nil {
		log.Fatal(err)
	}
	combos := clear.EnumerateWith(clear.InO, filter)
	fmt.Printf("\nenumerated combinations under filter %q (%d):\n", "LEAP-DICE,Parity,FlowGuard", len(combos))
	for _, c := range combos {
		marker := ""
		if strings.Contains(c.Name(), fg.Name()) {
			marker = "   <- contains the new technique"
		}
		fmt.Printf("  %s%s\n", c.Name(), marker)
	}

	// 3. The evaluation + Pareto surface: measure every combination by
	// fault injection on one benchmark and rank energy vs improvement.
	b := clear.BenchmarkByName("gzip")
	type point struct {
		name   string
		sdcImp float64
		energy float64
		isNew  bool
	}
	var pts []point
	fmt.Printf("\nevaluating %d combinations on %s (quick sampling, 50x SDC target)...\n", len(combos), b.Name)
	for _, c := range combos {
		out, err := eng.EvalCombo(b, c, clear.SDC, 50)
		if err != nil {
			log.Fatal(err)
		}
		pts = append(pts, point{c.Name(), out.SDCImp, out.Cost.Energy(),
			strings.Contains(c.Name(), fg.Name())})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].energy < pts[j].energy })
	fmt.Println("\nPareto frontier (SDC improvement vs energy):")
	best := 0.0
	for _, p := range pts {
		if p.sdcImp <= best { // dominated: something cheaper improves as much
			continue
		}
		best = p.sdcImp
		marker := ""
		if p.isNew {
			marker = "   <- new technique on the frontier"
		}
		fmt.Printf("  %-42s %8.1fx SDC  %5.2f%% energy%s\n",
			p.name, p.sdcImp, 100*p.energy, marker)
	}
}
