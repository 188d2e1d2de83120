package core

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"clear/internal/bench"
	"clear/internal/inject"
	"clear/internal/prog"
	"clear/internal/sim"
	"clear/internal/technique"
)

// checkedTags returns one variant per distinct checker-carrying campaign
// tag that enumerates on a core, in enumeration order.
func checkedTags(kind inject.CoreKind) []Variant {
	seen := map[string]bool{}
	var vs []Variant
	for _, c := range Enumerate(kind) {
		if c.Variant.checkerFactory() == nil || seen[c.Variant.Tag()] {
			continue
		}
		seen[c.Variant.Tag()] = true
		vs = append(vs, c.Variant)
	}
	return vs
}

// splitmix64 is the campaign sample stream's mixing function, restated so
// the replay below shares no code with the engine's planner.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// replayCampaign is the checked campaign's oracle: it replays every
// injection of cfg from reset under a fresh checker from cf and shares no
// planning or scheduling code with the engine. It performs the nominal run
// under one checker, draws every (bit, sample) of the strike population
// from the documented stream — h = splitmix64(Seed ^ bit<<20 ^ sample),
// cycle = h mod nomCycles — expands each draw through the fault model, and
// runs every non-empty scenario through inject.RunScenario, the strike
// population spread over GOMAXPROCS goroutines. The outcomes are tallied
// in population order.
func replayCampaign(t *testing.T, cfg inject.Config, p *prog.Program, cf func(*prog.Program) sim.Checker) *inject.Result {
	t.Helper()
	nom := inject.NewCore(cfg.Core, p)
	nom.SetCommitHook(cf(p).Observe)
	nomRes := nom.Run(8_000_000)
	if nomRes.Status != prog.StatusHalted || !p.OutputsEqual(nomRes.Output) {
		t.Fatalf("%v/%s: nominal run %v", cfg.Core, cfg.Tag, nomRes.Status)
	}
	modelName, _ := inject.SplitModelTag(cfg.Tag)
	model, env := inject.LookupModel(modelName), inject.EnvFor(cfg.Core)
	space := inject.SpaceBits(cfg.Core)
	bits := model.Bits(env)
	if bits == nil {
		bits = make([]int, space)
		for i := range bits {
			bits[i] = i
		}
	}
	type run struct {
		out        inject.Outcome
		det, cycle int
	}
	runs := make([]run, len(bits)*cfg.SamplesPerFF)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := inject.NewCore(cfg.Core, p)
			var sc inject.Scenario
			for i := int(next.Add(1) - 1); i < len(runs); i = int(next.Add(1) - 1) {
				bit, s := bits[i/cfg.SamplesPerFF], i%cfg.SamplesPerFF
				h := splitmix64(cfg.Seed ^ uint64(bit)<<20 ^ uint64(s))
				r := run{out: inject.Vanished, det: -1, cycle: int(h % uint64(nomRes.Steps))}
				if sc = model.Expand(env, bit, r.cycle, h, sc[:0]); len(sc) > 0 {
					r.out, r.det = inject.RunScenario(c, p, sc, r.cycle, nomRes.Steps, cf)
				}
				runs[i] = r
			}
		}()
	}
	wg.Wait()
	res := &inject.Result{Config: cfg, NomCycles: nomRes.Steps, NomRet: nom.Retired(),
		PerFF: make([]inject.FFStats, space)}
	for i, r := range runs {
		st := &res.PerFF[bits[i/cfg.SamplesPerFF]]
		st.N++
		switch r.out {
		case inject.OMM:
			st.OMM++
		case inject.UT:
			st.UT++
		case inject.Hang:
			st.Hang++
		case inject.ED:
			st.ED++
			if r.det >= r.cycle {
				res.DetLatSum += int64(r.det - r.cycle)
				res.DetN++
			}
		}
		res.Totals.Add(r.out)
	}
	return res
}

// TestCheckedCampaignEquivalence is the checker contract: for every
// checker-carrying tag that enumerates on each core, under the fault
// models, the warm-started, pruned campaign on the gang engine returns a
// Result DeepEqual to the replay of every injection from reset with a
// fresh checker. Cache bytes are a function of the Result alone, so the
// cache entries agree too.
//
// Every tag runs under all four models, except that OoO tags with an ABFT
// kernel run only under uncore and set: a from-reset OoO ssb or mbu
// campaign costs about two seconds, and a transformed program meets the
// checker path the same way on both cores — the InO tags cover every
// transform with DFC under all four models, and the untransformed OoO tags
// cover mon, dfc and dfc+mon under all four. A race-detector build runs a
// sample that still drives the checked gang workers on both cores: InO dfc
// under all four models and OoO dfc+mon under uncore and set.
func TestCheckedCampaignEquivalence(t *testing.T) {
	b := bench.ByName("inner_product")
	for _, kind := range []inject.CoreKind{inject.InO, inject.OoO} {
		e := NewEngine(kind)
		vs := checkedTags(kind)
		if len(vs) == 0 {
			t.Fatalf("%v: no checker-carrying tags enumerate", kind)
		}
		for _, v := range vs {
			p, err := e.BuildProgram(b, v)
			if err != nil {
				t.Fatal(err)
			}
			cf := v.checkerFactory()
			for _, model := range inject.ModelNames() {
				cheap := model == "uncore" || model == "set"
				if kind == inject.OoO && v.ABFT != ABFTNone && !cheap {
					continue
				}
				if raceEnabled && !(kind == inject.InO && v.Tag() == "dfc" ||
					kind == inject.OoO && v.ABFT == ABFTNone && v.DFC && v.Monitor && cheap) {
					continue
				}
				cfg := inject.Config{Core: kind, Bench: b.Name, Tag: inject.ModelTag(model, v.Tag()),
					SamplesPerFF: 1, Seed: 0xC1EA5}
				label := kind.String() + "/" + cfg.Tag
				warm, err := e.Inj.Run(cfg, p, cf)
				if err != nil {
					t.Fatal(err)
				}
				cold := replayCampaign(t, cfg, p, cf)
				if !reflect.DeepEqual(cold, warm) {
					t.Fatalf("%s: checked campaign differs from the replay from reset\ncold: %+v\nwarm: %+v",
						label, cold.Totals, warm.Totals)
				}
				if cold.Totals.ED == 0 {
					t.Fatalf("%s: checker detected nothing; the campaign does not exercise it", label)
				}
			}
		}
	}
}

// nopChecker is a stateless checker that never detects.
type nopChecker struct{}

func (nopChecker) Observe(sim.CommitEvent) bool { return false }
func (nopChecker) Clone() sim.Checker           { return nopChecker{} }
func (nopChecker) CopyFrom(sim.Checker)         {}
func (nopChecker) Equal(sim.Checker) bool       { return true }

// thirdPartyChecker is a registered architecture-layer technique outside
// the built-in library.
type thirdPartyChecker struct{ technique.Info }

func (thirdPartyChecker) Checker(*prog.Program) sim.Checker { return nopChecker{} }

// TestCheckerFactoryNeedsEveryHooker pins how a variant's checkers
// combine: a variant without checkers gets no checker factory, a single
// checker runs alone, and every active CheckerHooker — built-in or
// registered later — joins one chain.
func TestCheckerFactoryNeedsEveryHooker(t *testing.T) {
	if (Variant{}).checkerFactory() != nil {
		t.Fatal("checkerless variant has a checker factory")
	}
	reg := technique.Default()
	if err := reg.Register(thirdPartyChecker{technique.Info{TechName: "ThirdParty", TechLayer: technique.Architecture}}); err != nil {
		t.Fatal(err)
	}
	defer reg.Unregister("ThirdParty")
	p := bench.ByName("inner_product").MustProgram()
	single := Variant{DFC: true}.checkerFactory()
	if _, chain := single(p).(checkerChain); chain {
		t.Fatal("a single checker should not be wrapped in a chain")
	}
	both := Variant{DFC: true, Monitor: true}.checkerFactory()
	if c, ok := both(p).(checkerChain); !ok || len(c) != 2 {
		t.Fatalf("dfc+mon checker = %T, want a two-checker chain", both(p))
	}
	mixed := Variant{DFC: true, Extra: []string{"ThirdParty"}}.checkerFactory()
	if c, ok := mixed(p).(checkerChain); !ok || len(c) != 2 {
		t.Fatalf("dfc+ThirdParty checker = %T, want a two-checker chain", mixed(p))
	}
}
