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
	"clear/internal/resilient"
	"clear/internal/sim"
	"clear/internal/singleflight"
	"clear/internal/swres"
	"clear/internal/tcode"
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
	// program, or overhead join one in-flight computation instead of
	// silently running the same multi-second work twice.
	mu        sync.Mutex
	campaigns map[string]*inject.Result
	overheads map[string]float64
	programs  map[string]*prog.Program

	campaignSF singleflight.Group[*inject.Result]
	programSF  singleflight.Group[*prog.Program]
	overheadSF singleflight.Group[float64]

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
	OverheadsRun    int64 // exec-overhead measurements computed
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
		overheads: make(map[string]float64),
		programs:  make(map[string]*prog.Program),
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
	key := b.Name + "|" + v.Tag()
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
		if tcode.Enabled() {
			// Pre-warm the threaded-code translation inside the flight:
			// every campaign sharing this (benchmark, variant) program gets
			// compiled execution without paying translation again.
			p.Threaded()
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

// hookFactory builds the architecture-level checker chain of a variant from
// the registry's Hookers: each active checker sees the full commit stream
// and detections are ORed.
func (v Variant) hookFactory() func(*prog.Program) sim.CommitHook {
	var hookers []technique.Hooker
	for _, t := range technique.Default().Techniques() {
		if !v.activeName(t.Name()) {
			continue
		}
		if h, ok := t.(technique.Hooker); ok {
			hookers = append(hookers, h)
		}
	}
	if len(hookers) == 0 {
		return nil
	}
	return func(p *prog.Program) sim.CommitHook {
		hooks := make([]sim.CommitHook, len(hookers))
		for i, h := range hookers {
			hooks[i] = h.Hook(p)
		}
		if len(hooks) == 1 {
			return hooks[0]
		}
		return func(ev sim.CommitEvent) bool {
			det := false
			for _, h := range hooks {
				if h(ev) {
					det = true
				}
			}
			return det
		}
	}
}

// checkerFactory is hookFactory's checkpointable form: when every active
// Hooker of the variant implements technique.CheckerHooker it returns a
// factory of the same checker chain as a sim.Checker — one checker alone,
// or a checkerChain ORing the detections of several — and nil otherwise
// (no hookers, or one opaque hook, which keeps the from-reset path).
func (v Variant) checkerFactory() func(*prog.Program) sim.Checker {
	var hookers []technique.CheckerHooker
	for _, t := range technique.Default().Techniques() {
		if !v.activeName(t.Name()) {
			continue
		}
		if _, ok := t.(technique.Hooker); !ok {
			continue
		}
		ch, ok := t.(technique.CheckerHooker)
		if !ok {
			return nil
		}
		hookers = append(hookers, ch)
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
// detections like hookFactory's chain: every checker observes every event,
// so each one's state evolves exactly as it would alone.
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
	key := b.Name + "|" + inject.ModelTag(e.FaultModel, v.Tag())
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
		p, err := e.BuildProgram(b, v)
		if err != nil {
			return nil, err
		}
		tag := v.Tag()
		samples := e.SamplesTech
		if tag == "base" {
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
		// own the singleflight. Checkpointable checkers take the warm,
		// pruned and packed paths; an opaque hook replays every injection
		// from reset. Both compute the same Result.
		r, err := resilient.Safe(func() (*inject.Result, error) {
			if cf := v.checkerFactory(); cf != nil {
				return e.Inj.CampaignChecked(cfg, p, cf)
			}
			return e.Inj.Campaign(cfg, p, v.hookFactory())
		})
		if err != nil {
			return nil, err
		}
		e.statCampaignsRun.Add(1)
		e.mu.Lock()
		e.campaigns[key] = r
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
	return e.Campaign(b, Variant{})
}

// SEMU runs a pair-injection (single-event multiple-upset) campaign for a
// benchmark under a variant: samplesPerPair uniform-random cycles for every
// flip-flop pair in pairs (typically the layout's adjacent pairs — the ones
// a single particle can strike). The work runs through the engine's scoped
// injector, so SEMU campaigns appear in the per-engine inject.* counters
// exactly like single-flip campaigns.
func (e *Engine) SEMU(b *bench.Benchmark, v Variant, pairs [][2]int, samplesPerPair int) (*inject.PairResult, error) {
	p, err := e.BuildProgram(b, v)
	if err != nil {
		return nil, err
	}
	cfg := inject.PairConfig{
		Core:           e.Kind,
		Bench:          b.Name,
		Tag:            v.Tag(),
		SamplesPerPair: samplesPerPair,
		Seed:           e.Seed,
	}
	return resilient.Safe(func() (*inject.PairResult, error) {
		return e.Inj.RunPairs(cfg, p, pairs, v.hookFactory())
	})
}

// ExecOverhead measures the error-free execution-time overhead of a variant
// relative to the unprotected benchmark on this core. Results — including
// the zero overhead of an untransformed variant — are memoized, and
// concurrent callers share one in-flight measurement.
func (e *Engine) ExecOverhead(b *bench.Benchmark, v Variant) (float64, error) {
	key := b.Name + "|" + v.Tag()
	e.mu.Lock()
	if ov, ok := e.overheads[key]; ok {
		e.mu.Unlock()
		return ov, nil
	}
	e.mu.Unlock()
	ov, err, _ := e.overheadSF.Do(key, func() (float64, error) {
		e.mu.Lock()
		if ov, ok := e.overheads[key]; ok {
			e.mu.Unlock()
			return ov, nil
		}
		e.mu.Unlock()
		base, err := b.Program()
		if err != nil {
			return 0, err
		}
		p, err := e.BuildProgram(b, v)
		if err != nil {
			return 0, err
		}
		ov := 0.0
		if p != base {
			r0 := inject.NewCore(e.Kind, base).Run(20_000_000)
			r1 := inject.NewCore(e.Kind, p).Run(20_000_000)
			if r0.Status != prog.StatusHalted || r1.Status != prog.StatusHalted {
				return 0, fmt.Errorf("core: exec overhead run failed for %s/%s", b.Name, v.Tag())
			}
			ov = float64(r1.Steps)/float64(r0.Steps) - 1
			e.statOverheadsRun.Add(1)
		}
		e.mu.Lock()
		e.overheads[key] = ov
		e.mu.Unlock()
		return ov, nil
	})
	return ov, err
}
