// Package clear is CLEAR — Cross-Layer Exploration for Architecting
// Resilience — a framework for exploring combinations of soft-error
// resilience techniques across the system stack (circuit, logic,
// architecture, software, algorithm) and finding minimum-cost designs that
// meet SDC/DUE improvement targets, after Cheng et al., DAC 2016.
//
// The package is a façade over the internal implementation:
//
//   - two cycle-level processor cores with flip-flop-resolution state
//     (a 7-stage in-order core and a 2-wide out-of-order core);
//   - 18 application benchmarks (11 SPECINT2000-like, 7 DARPA-PERFECT-like)
//     for a custom 32-bit RISC ISA;
//   - a fault-injection engine classifying Vanished/OMM/UT/Hang/ED outcomes;
//   - the resilience library: LEAP-DICE/LHL/LEAP-ctrl/EDS hardened cells,
//     XOR-tree logic parity, DFC, a DIVA-style monitor core, software
//     assertions, CFCSS, EDDI, ABFT correction/detection, and four hardware
//     recovery mechanisms (IR, EIR, flush, RoB);
//   - layout and synthesis cost models;
//   - the cross-layer DSE engine (586 combinations, Heuristic 1 selective
//     insertion, γ-corrected Eq. 1 improvements);
//   - the experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	eng := clear.NewEngine(clear.InO)
//	b := clear.BenchmarkByName("gzip")
//	combo := clear.Combo{DICE: true, Parity: true, Recovery: clear.RecFlush}
//	out, err := eng.EvalCombo(b, combo, clear.SDC, 50)
//	// out.Cost.Energy() is the energy overhead of a 50x SDC improvement
package clear

import (
	"fmt"

	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/experiments"
	"clear/internal/inject"
	"clear/internal/power"
	"clear/internal/prog"
	"clear/internal/recovery"
	"clear/internal/sim"
	"clear/internal/technique"
)

// Core kinds.
type CoreKind = inject.CoreKind

// The two processor designs.
const (
	InO = inject.InO
	OoO = inject.OoO
)

// Engine is the cross-layer exploration engine for one core design.
type Engine = core.Engine

// NewEngine returns an exploration engine with default campaign sampling.
func NewEngine(kind CoreKind) *Engine { return core.NewEngine(kind) }

// Combo is a cross-layer combination of resilience techniques.
type Combo = core.Combo

// Variant selects the high-layer (algorithm/software/architecture) parts of
// a combination.
type Variant = core.Variant

// Plan is a concrete per-flip-flop protection assignment.
type Plan = core.Plan

// Outcome is an evaluated combination: improvements, γ, and cost.
type Outcome = core.Outcome

// Metric selects SDC or DUE improvement targeting.
type Metric = core.Metric

// Improvement metrics.
const (
	SDC = core.SDC
	DUE = core.DUE
)

// Software technique selectors for Variant.SW.
const (
	SWAssertions = core.SWAssertions
	SWCFCSS      = core.SWCFCSS
	SWEDDI       = core.SWEDDI
)

// Algorithm-layer modes for Variant.ABFT.
const (
	ABFTNone = core.ABFTNone
	ABFTCorr = core.ABFTCorr
	ABFTDet  = core.ABFTDet
)

// Recovery kinds.
type RecoveryKind = recovery.Kind

// Hardware recovery mechanisms.
const (
	RecNone  = recovery.None
	RecFlush = recovery.Flush
	RecRoB   = recovery.RoB
	RecIR    = recovery.IR
	RecEIR   = recovery.EIR
)

// Benchmark is one of the 18 application benchmarks.
type Benchmark = bench.Benchmark

// Benchmarks returns the full benchmark suite (the in-order core's 18).
func Benchmarks() []*Benchmark { return bench.All() }

// BenchmarkByName returns a benchmark by name, or nil.
func BenchmarkByName(name string) *Benchmark { return bench.ByName(name) }

// Program is an executable CRV32 program image.
type Program = prog.Program

// Core is a cycle-level processor simulator with flip-flop-level state.
type Core = sim.Core

// NewCore instantiates a fresh core of the given kind bound to p.
func NewCore(kind CoreKind, p *Program) Core { return inject.NewCore(kind, p) }

// InjectionOutcome classifies a fault-injection run.
type InjectionOutcome = inject.Outcome

// Injection outcome classes (paper Sec 2.1).
const (
	Vanished = inject.Vanished
	OMM      = inject.OMM
	UT       = inject.UT
	Hang     = inject.Hang
	ED       = inject.ED
)

// InjectOne flips one flip-flop bit at the given cycle of a fresh run of p
// on a core of the given kind and classifies the outcome. nomCycles is the
// fault-free execution time (used for the 2x hang cutoff). It rejects a bit
// outside the core's flip-flop space, a negative cycle and a non-positive
// nomCycles.
func InjectOne(kind CoreKind, p *Program, bit, cycle, nomCycles int) (InjectionOutcome, error) {
	if n := inject.SpaceBits(kind); bit < 0 || bit >= n {
		return Vanished, fmt.Errorf("clear: bit %d outside the %v flip-flop space [0, %d)", bit, kind, n)
	}
	if cycle < 0 {
		return Vanished, fmt.Errorf("clear: negative injection cycle %d", cycle)
	}
	if nomCycles <= 0 {
		return Vanished, fmt.Errorf("clear: nominal cycle count %d must be positive", nomCycles)
	}
	out, _ := inject.RunOne(inject.NewCore(kind, p), p, bit, cycle, nomCycles, nil)
	return out, nil
}

// Enumerate returns the valid cross-layer combinations of a core
// (417 for InO, 169 for OoO; 586 total — paper Table 18).
func Enumerate(kind CoreKind) []Combo { return core.Enumerate(kind) }

// EnumerateWith returns the valid combinations of a core restricted to the
// techniques a filter allows (nil filter = all).
func EnumerateWith(kind CoreKind, f *TechniqueFilter) []Combo {
	return core.EnumerateWith(kind, f)
}

// ComboFor builds the combination activating the named registered
// techniques under the given recovery, in canonical order regardless of the
// argument order.
func ComboFor(names []string, rec RecoveryKind) (Combo, error) {
	return core.ComboFor(names, rec)
}

// Technique is one pluggable resilience technique: identity (name, stack
// layer, applicable cores) plus hardware cost. Optional capability
// interfaces (GammaContributor, ProgramTransformer, CheckerHooker,
// TechniqueRecoveryCompat, FFProtector, CampaignTagger) extend it; a
// registered technique participates in enumeration, evaluation, cost
// tables, and the sweep CLI without any engine changes.
type Technique = technique.Technique

// TechniqueInfo is an embeddable identity block for implementing Technique
// (name, layer, core restriction, optional display note, zero base cost).
type TechniqueInfo = technique.Info

// TechniqueLayer is the system-stack layer of a technique.
type TechniqueLayer = technique.Layer

// Stack layers for registering techniques.
const (
	LayerCircuit      = technique.Circuit
	LayerLogic        = technique.Logic
	LayerArchitecture = technique.Architecture
	LayerSoftware     = technique.Software
	LayerAlgorithm    = technique.Algorithm
	LayerRecovery     = technique.Recovery
)

// Optional Technique capability interfaces.
type (
	// GammaContributor contributes γ flip-flop/execution overheads.
	GammaContributor = technique.GammaContributor
	// ProgramTransformer rewrites the benchmark program.
	ProgramTransformer = technique.Transformer
	// CheckerHooker attaches a commit-stream checker to injection runs.
	// The checker exposes its state as a Checker, so the technique's
	// campaigns warm-start from checkpoints, prune and run on the gang
	// engine.
	CheckerHooker = technique.CheckerHooker
	// TechniqueRecoveryCompat declares which recovery mechanisms the
	// technique's detections can drive (enumeration constraints).
	TechniqueRecoveryCompat = technique.RecoveryCompat
	// FFProtector participates in Heuristic 1 per-flip-flop insertion.
	FFProtector = technique.FFProtector
	// CampaignTagger contributes a frozen campaign cache-tag fragment.
	CampaignTagger = technique.Tagger
)

// TechniqueEnv is the context a program transform runs in.
type TechniqueEnv = technique.Env

// TechniqueOptions carries the software-technique knobs of a variant.
type TechniqueOptions = technique.Options

// CostModel selects the hardware cost model (returned by PowerInO/PowerOoO
// internally; Technique.Cost receives it).
type CostModel = power.Model

// Cost is an area/power/execution-time overhead triple.
type Cost = power.Cost

// CommitEvent is one retired instruction as seen by a Checker.
type CommitEvent = sim.CommitEvent

// Checker is a commit-stream checker with savable state: Observe is its
// commit hook, and Clone, CopyFrom and Equal save, load or copy, and
// compare that state. A CheckerHooker returns one per injection core.
type Checker = sim.Checker

// RegisterTechnique adds a technique to the default registry. Registration
// order defines the canonical ordering used by combination names,
// enumeration, and cost tables; built-ins register first.
func RegisterTechnique(t Technique) error { return technique.Default().Register(t) }

// UnregisterTechnique removes a registered technique by name, reporting
// whether it was present. Built-ins can be removed too — intended for
// tests and experiments.
func UnregisterTechnique(name string) bool { return technique.Default().Unregister(name) }

// Techniques lists the registered non-recovery techniques in canonical
// order.
func Techniques() []Technique { return technique.Default().Techniques() }

// LookupTechnique finds a registered technique by name.
func LookupTechnique(name string) (Technique, error) { return technique.Default().Lookup(name) }

// TechniqueFilter restricts enumeration to a subset of the registered
// techniques (the sweep CLI's -techniques flag).
type TechniqueFilter = technique.Filter

// ParseTechniqueFilter parses a comma-separated technique selection
// ("LEAP-DICE,Parity" includes; "-EDS" excludes; empty = nil = all)
// against the default registry.
func ParseTechniqueFilter(spec string) (*TechniqueFilter, error) {
	return technique.ParseFilter(spec, technique.Default())
}

// Experiment regenerates one table or figure of the paper.
type Experiment = experiments.Experiment

// Experiments lists every reproducible table and figure.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates the identified table/figure ("table19", "fig9",
// ...) using default engines and returns its rendered text.
func RunExperiment(id string) (string, error) {
	e, ok := experiments.Get(id)
	if !ok {
		return "", fmt.Errorf("clear: unknown experiment %q", id)
	}
	return e.Run(experiments.NewCtx())
}
