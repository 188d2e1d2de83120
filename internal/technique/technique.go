// Package technique is the pluggable cross-layer resilience library behind
// the CLEAR exploration engine: every technique of the paper's Fig 1c —
// LEAP-DICE, parity, EDS, DFC, the monitor core, assertions, CFCSS, EDDI,
// ABFT correction/detection — and the four hardware recovery mechanisms is
// a registered implementation of one Technique interface, and the engine
// (enumeration, campaign construction, γ arithmetic, cost model, CLI
// surfaces) consults the registry instead of hardcoding the library.
//
// A Technique declares its identity (name, stack layer, applicable core
// kinds) and its hardware cost; everything else is an optional capability
// interface the engine probes for:
//
//   - GammaContributor — flip-flop / execution-time γ overheads (Sec 2.1);
//   - Transformer      — program transformation (software/algorithm layers);
//   - CheckerHooker    — a commit-stream checker (architecture layer)
//     whose state can be checkpointed, so its campaigns warm-start, prune
//     and run on the gang engine;
//   - RecoveryCompat   — which recovery mechanisms the technique's
//     detections can drive (the enumeration constraints of Table 18);
//   - FFProtector      — participates in Heuristic 1 selective circuit/
//     logic insertion, with the residual-outcome composition rules;
//   - Tagger           — a frozen campaign cache tag fragment.
//
// The registry's registration order is the single canonical technique
// order: combination names, campaign tags, program-transform application,
// and enumeration subsets are all derived from it, so the ordering that
// used to be duplicated across Combo.Name(), enumerate.go, and Variant.Tag
// now has exactly one source of truth.
package technique

import (
	"strings"

	"clear/internal/power"
	"clear/internal/prog"
	"clear/internal/recovery"
	"clear/internal/sim"
	"clear/internal/stack"
	"clear/internal/swres"
)

// Layer is the system-stack layer a technique belongs to (stack.Layer plus
// the Recovery pseudo-layer).
type Layer = stack.Layer

// Stack layers re-exported for registrants.
const (
	Circuit      = stack.Circuit
	Logic        = stack.Logic
	Architecture = stack.Architecture
	Software     = stack.Software
	Algorithm    = stack.Algorithm
	Recovery     = stack.Recovery
)

// Canonical names of the built-in techniques (these are the display names
// used in combination labels; campaign cache tags are separate and frozen).
const (
	NameABFTCorrection = "ABFT-c"
	NameABFTDetection  = "ABFT-d"
	NameCFCSS          = "CFCSS"
	NameAssertions     = "Assertions"
	NameEDDI           = "EDDI"
	NameMonitor        = "Monitor"
	NameDFC            = "DFC"
	NameLEAPDICE       = "LEAP-DICE"
	NameParity         = "Parity"
	NameEDS            = "EDS"
)

// CoreKinds are the processor designs a technique can apply to.
var CoreKinds = []string{"InO", "OoO"}

// Options carries the per-combination knobs of the software techniques
// (which assertion checks, which EDDI variant). It is part of a campaign's
// identity: Taggers fold the relevant options into their cache tag.
type Options struct {
	AssertK swres.AssertKind
	EDDISrb bool // EDDI store-readback
	SelEDDI bool // selective EDDI
}

// Env is the context a program transform runs in.
type Env struct {
	Core  string // "InO" or "OoO"
	Bench string // benchmark name (algorithm techniques key on it)
	Opt   Options
	// AltTrainer returns the benchmark's alternate-input program with
	// every transform preceding the current one already applied (the
	// paper's multi-input assertion training, tracked through the same
	// transform stack so check sites line up). It returns (nil, nil) when
	// the benchmark has no alternate input, and is nil itself when an
	// algorithm-layer technique is active in the variant.
	AltTrainer func() (*prog.Program, error)
}

// Technique is one resilience technique: identity, applicability, and
// hardware cost. Everything else is an optional capability interface.
type Technique interface {
	// Name is the canonical display name (must be unique, non-empty, and
	// free of the "+" combination separator).
	Name() string
	// Layer is the stack layer the technique occupies.
	Layer() Layer
	// AppliesTo reports whether the technique exists for a core kind
	// ("InO" or "OoO").
	AppliesTo(core string) bool
	// Cost is the technique's fixed hardware cost contribution on a core.
	// Techniques whose cost is measured (software execution overhead) or
	// assembled per flip-flop by the implementation plan return the zero
	// Cost.
	Cost(m power.Model, core string) power.Cost
}

// GammaContributor contributes γ overhead factors (Sec 2.1): extra
// flip-flops and longer execution enlarge the design's exposure to soft
// errors.
type GammaContributor interface {
	// GammaFF is the fractional flip-flop overhead on a core.
	GammaFF(core string) float64
	// GammaExec is the fixed fractional execution-time overhead on a core
	// (measured overheads are added by the engine, not declared here).
	GammaExec(core string) float64
}

// Transformer rewrites the benchmark program (software and algorithm
// layers). Transforms are applied in canonical registry order; a transform
// that does not apply to the benchmark returns p unchanged.
type Transformer interface {
	Transform(p *prog.Program, env *Env) (*prog.Program, error)
}

// CheckerHooker attaches a commit-stream checker to injection runs
// (architecture layer). Checker returns a checker for the transformed
// program in its reset state; the engine gives every campaign core its own
// and saves, restores and compares its state through sim.Checker, so the
// variant's campaigns warm-start from the fault-free reference, prune on
// reconvergence and run on the gang engine. Several active checkers see
// the same commit stream and their detections are ORed.
type CheckerHooker interface {
	Checker(p *prog.Program) sim.Checker
}

// RecoveryCompat declares which hardware recovery mechanisms a technique's
// detections can drive (the Table 18 enumeration constraints, e.g.
// "ABFT detection has unbounded latency, so it composes with no recovery").
// A technique that does not implement RecoveryCompat only enumerates in
// no-recovery combinations.
type RecoveryCompat interface {
	CompatibleWith(k recovery.Kind, core string) bool
}

// FFProtector marks a circuit/logic technique that Heuristic 1 can assign
// to individual flip-flops, and defines how a protected flip-flop's
// campaign statistics compose into residual outcomes (Sec 2.1 semantics).
type FFProtector interface {
	// Corrects reports in-place correction (no recovery needed); false
	// means detect-only.
	Corrects() bool
	// Residual returns the (SDC, DUE) expected-count contribution of one
	// protected flip-flop given its per-flip-flop campaign counts.
	// recovered reports whether the attached recovery can replay this
	// flip-flop's detections.
	Residual(n, sdc, due float64, recovered bool) (outSDC, outDUE float64)
}

// Tagger contributes a frozen fragment to campaign cache tags. Tag order is
// part of the on-disk campaign cache identity and therefore frozen
// independently of the registry's display order (see TagRank).
type Tagger interface {
	// CampaignTag renders the cache-tag fragment under the variant options.
	CampaignTag(o Options) string
	// TagRank fixes the fragment's position in the joined tag; fragments
	// sort by (TagRank, registry order). Built-ins use ranks 0–3; see
	// DefaultTagRank.
	TagRank() int
}

// Pairing declares the recovery mechanism a technique is designed to
// operate with — a presentation/evaluation hint for the standalone-
// technique tables (Table 3), not an enumeration constraint (those come
// from RecoveryCompat). StandsAlone reports whether the technique is also
// meaningful without any recovery attached.
type Pairing interface {
	PairsWith(core string) recovery.Kind
	StandsAlone() bool
}

// RecoveryTechnique is implemented by the registered recovery mechanisms.
type RecoveryTechnique interface {
	Technique
	Kind() recovery.Kind
}

// Tag ranks of the built-in fragments. Third-party techniques without a
// Tagger get DefaultTagRank and a sanitized name fragment.
const (
	TagRankAlgorithm = 0
	TagRankSoftware  = 1
	TagRankDFC       = 2
	TagRankMonitor   = 3
	DefaultTagRank   = 100
)

// AffectsCampaign reports whether a technique changes injection-campaign
// outcomes (it transforms the program or checks the commit stream). Only
// campaign-affecting techniques appear in campaign cache tags; a purely
// structural technique (circuit cell, cost-only) reuses the base campaign.
func AffectsCampaign(t Technique) bool {
	if _, ok := t.(Transformer); ok {
		return true
	}
	_, ok := t.(CheckerHooker)
	return ok
}

// CompatibleWith reports whether a technique may enumerate alongside a
// recovery mechanism on a core. Every technique is compatible with "no
// recovery"; anything else requires an explicit RecoveryCompat.
func CompatibleWith(t Technique, k recovery.Kind, core string) bool {
	if k == recovery.None {
		return true
	}
	rc, ok := t.(RecoveryCompat)
	return ok && rc.CompatibleWith(k, core)
}

// ModelCompat declares which fault models (inject.ModelNames) a technique
// remains effective against. A technique without ModelCompat is assumed
// effective under every model: most techniques observe corrupted state the
// same way regardless of how the corruption arrived. The interface exists
// for the exceptions — e.g. a flip-flop hardening cell (LEAP-DICE) stops
// particle strikes on the storage node but latches a single-event
// transient arriving through the D input like any ordinary flip-flop.
type ModelCompat interface {
	AppliesToModel(model string) bool
}

// AppliesToModel reports whether a technique is effective under a fault
// model. The empty model and the ssb default are universal; otherwise the
// technique's ModelCompat decides, defaulting to effective when absent.
func AppliesToModel(t Technique, model string) bool {
	if model == "" || model == "ssb" {
		return true
	}
	mc, ok := t.(ModelCompat)
	return !ok || mc.AppliesToModel(model)
}

// CampaignTagOf returns a technique's cache-tag fragment: its Tagger
// fragment, or a sanitized lowercase name for techniques without one.
func CampaignTagOf(t Technique, o Options) string {
	if tg, ok := t.(Tagger); ok {
		return tg.CampaignTag(o)
	}
	s := strings.ToLower(t.Name())
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		}
		return '-'
	}, s)
}

// TagRankOf returns a technique's tag rank (DefaultTagRank without a
// Tagger).
func TagRankOf(t Technique) int {
	if tg, ok := t.(Tagger); ok {
		return tg.TagRank()
	}
	return DefaultTagRank
}

// Info is an embeddable identity block satisfying the Technique interface's
// identity methods plus a zero hardware cost; override Cost for techniques
// with fixed hardware contributions.
type Info struct {
	TechName  string
	TechLayer Layer
	// Cores restricts applicability ("InO"/"OoO"); empty means both.
	Cores []string
	// Note is an optional display annotation for the standalone-technique
	// tables (e.g. "w/ store-readback").
	Note string
}

// Name implements Technique.
func (i Info) Name() string { return i.TechName }

// Layer implements Technique.
func (i Info) Layer() Layer { return i.TechLayer }

// AppliesTo implements Technique.
func (i Info) AppliesTo(core string) bool {
	if len(i.Cores) == 0 {
		return core == "InO" || core == "OoO"
	}
	for _, c := range i.Cores {
		if c == core {
			return true
		}
	}
	return false
}

// Cost implements Technique with a zero fixed hardware cost.
func (Info) Cost(power.Model, string) power.Cost { return power.Cost{} }

// NoteOf returns a technique's display annotation, if it carries one.
func NoteOf(t Technique) string {
	type noter interface{ note() string }
	if n, ok := t.(noter); ok {
		return n.note()
	}
	return ""
}

func (i Info) note() string { return i.Note }
