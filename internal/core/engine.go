// Package core is the CLEAR framework proper: the cross-layer design-space
// exploration engine. It drives fault-injection campaigns (reliability
// analysis), the layout and power models (physical design evaluation), and
// the resilience library into a single top-down methodology (paper Fig 6):
// high-level techniques (algorithm, software, architecture) are applied
// first and their residual per-flip-flop vulnerability measured; selective
// circuit/logic protection (Heuristic 1, Fig 7) then closes the gap to the
// SDC/DUE improvement target at minimum cost.
package core

import (
	"fmt"
	"strings"
	"sync"

	"clear/internal/bench"
	"clear/internal/ff"
	"clear/internal/inject"
	"clear/internal/ino"
	"clear/internal/layout"
	"clear/internal/obs"
	"clear/internal/ooo"
	"clear/internal/power"
	"clear/internal/prog"
	"clear/internal/recovery"
	"clear/internal/resilient"
	"clear/internal/sim"
	"clear/internal/singleflight"
	"clear/internal/swres"
	"clear/internal/technique"
)

// SWTechnique is a software-layer technique selector inside a combination.
type SWTechnique int

// Software techniques available to combinations.
const (
	SWAssertions SWTechnique = iota
	SWCFCSS
	SWEDDI
)

func (s SWTechnique) String() string {
	switch s {
	case SWAssertions:
		return "Assertions"
	case SWCFCSS:
		return "CFCSS"
	case SWEDDI:
		return "EDDI"
	}
	return "?"
}

// ABFTMode selects the algorithm-layer technique of a combination.
type ABFTMode int

// Algorithm-layer choices.
const (
	ABFTNone ABFTMode = iota
	ABFTCorr
	ABFTDet
)

// Engine evaluates resilience configurations for one core design.
type Engine struct {
	Kind  inject.CoreKind
	Space *ff.Space
	Model power.Model
	Pl    *layout.Placement

	// Campaign sampling parameters (per flip-flop).
	SamplesBase int
	SamplesTech int
	Seed        uint64

	// FaultModel selects the registered fault model campaigns run under
	// (inject.ModelNames). Empty or "ssb" is the paper's single-bit upset
	// model and keeps every campaign tag, cache file, and sweep identity in
	// its legacy unprefixed form; any other model is folded into the
	// campaign tag as a "<model>/" prefix (inject.ModelTag).
	FaultModel string

	// Finished-result memo maps (guarded by mu) paired with singleflight
	// groups: concurrent callers asking for the same uncomputed campaign,
	// program, or fault-free cycle count join one in-flight computation
	// instead of silently running the same multi-second work twice.
	mu        sync.Mutex
	campaigns map[string]*inject.Result
	programs  map[string]*prog.Program
	// nomCycles holds each program's fault-free cycle count, keyed like
	// programs ("bench|tag"). Every campaign flight records its
	// Result.NomCycles; ExecOverhead simulates only keys nobody recorded.
	nomCycles map[string]int

	campaignSF singleflight.Group[*inject.Result]
	programSF  singleflight.Group[*prog.Program]
	nominalSF  singleflight.Group[int]

	// maxPlans memoizes the max plan (+Inf target) of each pass-option
	// key with its implementation (guarded by mu; see maxPlan).
	maxPlans map[maxPlanKey]*maxPlanEntry
	// recBits[k] tells, per flip-flop, whether recovery k recovers it
	// (recoverableBits; built once under recOnce). EIR is the last kind.
	recOnce sync.Once
	recBits [recovery.EIR + 1][]bool

	// Inj scopes the fault-injection engine's counters (prune rate, cache
	// hits, quarantines) to this engine, so two engines sweeping in one
	// process never conflate each other's numbers. Set by NewEngine.
	Inj *inject.Injector

	// Memoization counters as registry instruments (see Stats and
	// Instrument): single atomic adds on the hot path, per-engine scoped.
	statCampaignsRun    obs.Counter
	statCampaignsCached obs.Counter
	statCampaignsJoined obs.Counter
	statProgramsBuilt   obs.Counter
	statOverheadsRun    obs.Counter
}

// EngineStats is a snapshot of the engine's memoization counters: how many
// campaigns were actually computed, how many were served from the in-memory
// memo, and how many concurrent callers were deduplicated onto another
// caller's in-flight computation. A sweep observer reads successive
// snapshots to report cache effectiveness.
type EngineStats struct {
	CampaignsRun    int64 // campaigns computed (Injector.Campaign invoked)
	CampaignsCached int64 // served from the in-memory memo map
	CampaignsJoined int64 // joined another caller's in-flight campaign
	ProgramsBuilt   int64 // transformed programs constructed
	OverheadsRun    int64 // fault-free runs ExecOverhead simulated
}

// Stats returns a snapshot of the engine's memoization counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		CampaignsRun:    e.statCampaignsRun.Value(),
		CampaignsCached: e.statCampaignsCached.Value(),
		CampaignsJoined: e.statCampaignsJoined.Value(),
		ProgramsBuilt:   e.statProgramsBuilt.Value(),
		OverheadsRun:    e.statOverheadsRun.Value(),
	}
}

// Instrument publishes the engine's memoization counters and its injection
// scope's counters into reg, prefixed by the lowercase core kind:
// "core.ino.campaigns_run", "inject.ino.injections.pruned", and so on
// (DESIGN.md §10 lists the full instrument name contract).
func (e *Engine) Instrument(reg *obs.Registry) {
	kind := strings.ToLower(e.Kind.String())
	prefix := "core." + kind + "."
	reg.Attach(prefix+"campaigns_run", &e.statCampaignsRun)
	reg.Attach(prefix+"campaigns_cached", &e.statCampaignsCached)
	reg.Attach(prefix+"campaigns_joined", &e.statCampaignsJoined)
	reg.Attach(prefix+"programs_built", &e.statProgramsBuilt)
	reg.Attach(prefix+"overheads_run", &e.statOverheadsRun)
	e.Inj.Instrument(reg, "inject."+kind+".")
}

// NewEngine returns an engine for the given core with default sampling.
func NewEngine(kind inject.CoreKind) *Engine {
	e := &Engine{
		Kind:      kind,
		Seed:      0xC1EA5,
		Inj:       inject.NewInjector(),
		campaigns: make(map[string]*inject.Result),
		programs:  make(map[string]*prog.Program),
		nomCycles: make(map[string]int),
		maxPlans:  make(map[maxPlanKey]*maxPlanEntry),
	}
	if kind == inject.InO {
		e.Space = ino.Space()
		e.Model = power.InO()
		e.Pl = layout.Place(e.Space, layout.InOProfile())
		e.SamplesBase = 24
		e.SamplesTech = 2
	} else {
		e.Space = ooo.Space()
		e.Model = power.OoO()
		e.Pl = layout.Place(e.Space, layout.OoOProfile())
		e.SamplesBase = 3
		e.SamplesTech = 2
	}
	return e
}

// Benchmarks returns the benchmark list for this core (the paper's 18 for
// the in-order core, 11 for the out-of-order core).
func (e *Engine) Benchmarks() []*bench.Benchmark {
	if e.Kind == inject.InO {
		return bench.All()
	}
	return bench.ForOoO()
}

// Variant describes the program/checker configuration of a campaign: the
// high layers of a combination.
type Variant struct {
	ABFT    ABFTMode
	SW      []SWTechnique // canonicalized to registry order by Name/Tag
	AssertK swres.AssertKind
	EDDISrb bool // store-readback
	SelEDDI bool
	DFC     bool
	Monitor bool
	// Extra names third-party registered techniques active in the variant
	// (the built-ins use the concrete fields above).
	Extra []string
}

// Tag returns the campaign cache tag of the variant ("base" when empty):
// the frozen fragments of the active campaign-affecting techniques, in
// registry-derived canonical tag order.
func (v Variant) Tag() string { return v.tagOf() }

func (v Variant) has(s SWTechnique) bool {
	for _, t := range v.SW {
		if t == s {
			return true
		}
	}
	return false
}

// BuildProgram constructs the transformed program of a variant for a
// benchmark. ABFT falls back to the unprotected kernel for benchmarks the
// algorithm technique does not apply to (the paper's Sec 3.2.1 situation).
func (e *Engine) BuildProgram(b *bench.Benchmark, v Variant) (*prog.Program, error) {
	return e.buildProgram(b, v, v.Tag())
}

// buildProgram is BuildProgram of a variant whose tag the caller has
// computed.
func (e *Engine) buildProgram(b *bench.Benchmark, v Variant, tag string) (*prog.Program, error) {
	key := b.Name + "|" + tag
	e.mu.Lock()
	if p, ok := e.programs[key]; ok {
		e.mu.Unlock()
		return p, nil
	}
	e.mu.Unlock()
	p, err, _ := e.programSF.Do(key, func() (*prog.Program, error) {
		// Re-check under the flight: a caller that missed the memo right
		// before another flight finished must not rebuild.
		e.mu.Lock()
		if p, ok := e.programs[key]; ok {
			e.mu.Unlock()
			return p, nil
		}
		e.mu.Unlock()
		p, err := e.buildProgramUncached(b, v)
		if err != nil {
			return nil, err
		}
		e.statProgramsBuilt.Add(1)
		e.mu.Lock()
		e.programs[key] = p
		e.mu.Unlock()
		return p, nil
	})
	return p, err
}

// buildProgramUncached performs the actual program transformation stack:
// the variant's active Transformers apply in canonical registry order
// (algorithm kernels first, then control-flow signatures on the clean CFG,
// then assertions, then duplication).
func (e *Engine) buildProgramUncached(b *bench.Benchmark, v Variant) (*prog.Program, error) {
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	coreName := e.Kind.String()
	opt := v.options()
	reg := technique.Default()
	// Multi-input training (assertions) replays the transforms preceding the
	// current one on the alternate-input program so check sites line up; an
	// active algorithm-layer technique replaces the kernel, so no alternate
	// input exists for it and training is single-input.
	algActive := false
	for _, t := range reg.Techniques() {
		if t.Layer() == technique.Algorithm && v.activeName(t.Name()) {
			algActive = true
			break
		}
	}
	var applied []technique.Transformer
	for _, t := range reg.Techniques() {
		if !v.activeName(t.Name()) {
			continue
		}
		tr, ok := t.(technique.Transformer)
		if !ok {
			continue
		}
		env := &technique.Env{Core: coreName, Bench: b.Name, Opt: opt}
		if !algActive {
			prior := applied // snapshot: transforms preceding this one
			env.AltTrainer = func() (*prog.Program, error) {
				alt, err := b.AltProgram()
				if err != nil {
					return nil, nil // benchmark has no alternate input
				}
				for _, pt := range prior {
					alt, err = pt.Transform(alt, &technique.Env{Core: coreName, Bench: b.Name, Opt: opt})
					if err != nil {
						return nil, err
					}
				}
				return alt, nil
			}
		}
		if p, err = tr.Transform(p, env); err != nil {
			return nil, err
		}
		applied = append(applied, tr)
	}
	return p, nil
}

// checkerFactory builds the architecture-level checker chain of a variant
// from the registry's active CheckerHookers: one checker alone, or a
// checkerChain ORing the detections of several, and nil for a variant
// without checkers.
func (v Variant) checkerFactory() func(*prog.Program) sim.Checker {
	var hookers []technique.CheckerHooker
	for _, t := range technique.Default().Techniques() {
		if ch, ok := t.(technique.CheckerHooker); ok && v.activeName(t.Name()) {
			hookers = append(hookers, ch)
		}
	}
	if len(hookers) == 0 {
		return nil
	}
	return func(p *prog.Program) sim.Checker {
		if len(hookers) == 1 {
			return hookers[0].Checker(p)
		}
		chain := make(checkerChain, len(hookers))
		for i, h := range hookers {
			chain[i] = h.Checker(p)
		}
		return chain
	}
}

// checkerChain runs several checkers over one commit stream, ORing their
// detections: every checker observes every event, so each one's state
// evolves exactly as it would alone.
type checkerChain []sim.Checker

// Observe, Clone, CopyFrom and Equal implement sim.Checker member by
// member; CopyFrom and Equal take a chain of the same checkers.
func (c checkerChain) Observe(ev sim.CommitEvent) bool {
	det := false
	for _, k := range c {
		if k.Observe(ev) {
			det = true
		}
	}
	return det
}

func (c checkerChain) Clone() sim.Checker {
	out := make(checkerChain, len(c))
	for i, k := range c {
		out[i] = k.Clone()
	}
	return out
}

func (c checkerChain) CopyFrom(src sim.Checker) {
	for i, k := range src.(checkerChain) {
		c[i].CopyFrom(k)
	}
}

func (c checkerChain) Equal(other sim.Checker) bool {
	for i, k := range other.(checkerChain) {
		if !c[i].Equal(k) {
			return false
		}
	}
	return true
}

// Campaign runs (or loads) the injection campaign for a benchmark under a
// variant. Concurrent callers asking for the same (benchmark, variant) are
// deduplicated: the campaign is computed exactly once and shared.
func (e *Engine) Campaign(b *bench.Benchmark, v Variant) (*inject.Result, error) {
	return e.campaign(b, v, v.Tag())
}

// campaign is Campaign of a variant whose tag the caller has computed.
func (e *Engine) campaign(b *bench.Benchmark, v Variant, tag string) (*inject.Result, error) {
	key := b.Name + "|" + inject.ModelTag(e.FaultModel, tag)
	e.mu.Lock()
	if r, ok := e.campaigns[key]; ok {
		e.mu.Unlock()
		e.statCampaignsCached.Add(1)
		return r, nil
	}
	e.mu.Unlock()
	r, err, joined := e.campaignSF.Do(key, func() (*inject.Result, error) {
		e.mu.Lock()
		if r, ok := e.campaigns[key]; ok {
			e.mu.Unlock()
			return r, nil
		}
		e.mu.Unlock()
		p, err := e.buildProgram(b, v, tag)
		if err != nil {
			return nil, err
		}
		samples := e.SamplesTech
		if tag == baseTag {
			samples = e.SamplesBase
		}
		cfg := inject.Config{
			Core:         e.Kind,
			Bench:        b.Name,
			Tag:          inject.ModelTag(e.FaultModel, tag),
			SamplesPerFF: samples,
			Seed:         e.Seed,
		}
		// Panic isolation: a crash deep in the simulator becomes a
		// classified *resilient.PanicError shared with every joined caller
		// instead of unwinding (and killing) whichever worker happened to
		// own the singleflight. Safe covers this goroutine; the injector
		// returns a campaign worker's panic as the same error. A panic
		// outside Safe (a transform in BuildProgram) reaches every joined
		// caller through the singleflight.
		r, err := resilient.Safe(func() (*inject.Result, error) {
			return e.Inj.Campaign(cfg, p, v.checkerFactory())
		})
		if err != nil {
			return nil, err
		}
		e.statCampaignsRun.Add(1)
		e.mu.Lock()
		e.campaigns[key] = r
		e.nomCycles[b.Name+"|"+tag] = r.NomCycles
		e.mu.Unlock()
		return r, nil
	})
	if joined {
		e.statCampaignsJoined.Add(1)
	}
	return r, err
}

// Base returns the baseline (unprotected) campaign for a benchmark.
func (e *Engine) Base(b *bench.Benchmark) (*inject.Result, error) {
	return e.campaign(b, Variant{}, baseTag)
}

// ExecOverhead returns the error-free execution-time overhead of a variant
// relative to the unprotected benchmark on this core: the ratio of the two
// programs' fault-free cycle counts, minus one (zero for the base variant).
//
// A campaign's nominal run halts with the golden output, so its NomCycles
// is the cycle count of the program's fault-free run (checkers only observe
// commits). The counts therefore come from the campaigns this engine has
// run or loaded; only a program with no campaign yet is simulated, once.
func (e *Engine) ExecOverhead(b *bench.Benchmark, v Variant) (float64, error) {
	return e.execOverhead(b, v, v.Tag())
}

// execOverhead is ExecOverhead of a variant whose tag the caller has
// computed.
func (e *Engine) execOverhead(b *bench.Benchmark, v Variant, tag string) (float64, error) {
	if tag == baseTag {
		return 0, nil
	}
	base, err := e.nominalCycles(b, Variant{}, baseTag)
	if err != nil {
		return 0, err
	}
	n, err := e.nominalCycles(b, v, tag)
	if err != nil {
		return 0, err
	}
	return float64(n)/float64(base) - 1, nil
}

// nominalCycles returns the fault-free cycle count of a variant's program
// (tagged tag), simulating it only when no campaign or earlier call has
// recorded it. Concurrent callers share one in-flight run.
func (e *Engine) nominalCycles(b *bench.Benchmark, v Variant, tag string) (int, error) {
	key := b.Name + "|" + tag
	e.mu.Lock()
	n, ok := e.nomCycles[key]
	e.mu.Unlock()
	if ok {
		return n, nil
	}
	n, err, _ := e.nominalSF.Do(key, func() (int, error) {
		e.mu.Lock()
		n, ok := e.nomCycles[key]
		e.mu.Unlock()
		if ok {
			return n, nil
		}
		p, err := e.buildProgram(b, v, tag)
		if err != nil {
			return 0, err
		}
		r := inject.NewCore(e.Kind, p).Run(20_000_000)
		if r.Status != prog.StatusHalted {
			return 0, fmt.Errorf("core: exec overhead run failed for %s/%s", b.Name, tag)
		}
		e.statOverheadsRun.Add(1)
		e.mu.Lock()
		e.nomCycles[key] = r.Steps
		e.mu.Unlock()
		return r.Steps, nil
	})
	return n, err
}
