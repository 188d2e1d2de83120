package inject

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"clear/internal/ino"
	"clear/internal/layout"
	"clear/internal/ooo"
)

// Pluggable fault models (ROADMAP item 4): a FaultModel deterministically
// expands a sampled (flip-flop, cycle) point into a fault scenario — the
// set of flip-flops one physical event flips together at the injection
// cycle. The sampling loop is model-independent (same splitmix64 stream,
// same uniform cycle draw); only the expansion differs, so two models
// disagree exactly where the physics says they should.
//
// Four models are registered:
//
//	ssb    — single-bit upset in core flip-flops: the paper's model and
//	         the default. Its one-flip scenarios reproduce the pre-model
//	         results bit for bit.
//	mbu    — spatial multi-bit upset: one particle flips the struck
//	         flip-flop and every neighbour within layout.SEMURadius of it
//	         (the Table 5/6 cluster population). This is the k-flip
//	         generalization of a SEMU pair.
//	uncore — single flips restricted to memory-interface state (load
//	         unit, store queue, fetch buffer, cache interface registers),
//	         after Cho et al., "Understanding Soft Errors in Uncore
//	         Components".
//	set    — single-event transient in the combinational cone feeding the
//	         struck flip-flop: the wrong value is latched only when the
//	         flip-flop's timing slack is below the sampled transient pulse
//	         width (a long path has no margin to outwait the glitch);
//	         otherwise the transient dies before the capture edge and the
//	         scenario is empty (Vanished without simulation), after
//	         Azambuja et al.'s SEU/SET software-detection study.
//
// The model is carried inside Config.Tag as a "<model>/" prefix (ssb is
// the unprefixed form), so the campaign cache, the sweep state identity,
// and every existing Config-keyed surface distinguish models without a
// Config field: ssb tags, sweep state files and clearbench's result
// digests read the same as before fault models existed.

// Scenario is the set of flip-flops one strike flips together at the
// injection cycle. Attribution records report its first flip as the struck
// bit. An empty scenario is a strike that latches nothing: the run is
// Vanished by construction and never simulated.
type Scenario []int

// FaultModel deterministically expands sampled (bit, cycle) points into
// fault scenarios. Implementations must be pure: the same (env, bit,
// cycle, h) must always yield the same scenario, because campaign results
// — and the on-disk campaign cache keyed on Config — depend only on
// (Config, program). The campaign engine relies on it too: it expands each
// strike once to plan it and again when the strike runs.
type FaultModel interface {
	// Name is the model's registry key ("ssb", "mbu", ...): lowercase,
	// non-empty, free of the "/" tag separator.
	Name() string
	// Bits returns the strike population: the flip-flops the model samples
	// (nil = every flip-flop of the core). The sampling loop draws
	// SamplesPerFF cycles for each returned bit using the same per-bit
	// hash stream as the ssb model.
	Bits(env *ModelEnv) []int
	// Expand appends one sampled strike's scenario to dst and returns the
	// extended slice, so the campaign loop expands into a buffer it reuses.
	// The appended flips depend only on (env, bit, cycle, h), never on what
	// dst holds. h is the sample's splitmix64 draw (the same value that
	// chose the cycle), the model's only entropy source.
	Expand(env *ModelEnv, bit, cycle int, h uint64, dst Scenario) Scenario
}

// ModelEnv is the per-core context models expand against: the flip-flop
// space, the physical placement, and derived neighbour/unit indexes. Envs
// are built once per core kind and shared read-only.
type ModelEnv struct {
	Kind CoreKind
	Pl   *layout.Placement

	neighbors  [][]int // per bit: bits within layout.SEMURadius, ascending
	uncoreBits []int   // bits of the memory-interface units, ascending
}

// Cluster appends the SEMU cluster of a strike at bit to dst and returns
// the extended slice: the bit itself plus every flip-flop within
// layout.SEMURadius, in ascending bit order. An out-of-range bit appends
// nothing.
func (env *ModelEnv) Cluster(bit int, dst []int) []int {
	if bit < 0 || bit >= len(env.neighbors) {
		return dst
	}
	nbrs := env.neighbors[bit]
	pos := 0
	for pos < len(nbrs) && nbrs[pos] < bit {
		pos++
	}
	dst = append(dst, nbrs[:pos]...)
	dst = append(dst, bit)
	return append(dst, nbrs[pos:]...)
}

// UncoreBits returns the memory-interface strike population of the core.
func (env *ModelEnv) UncoreBits() []int { return env.uncoreBits }

// uncoreUnits lists the functional units that model the core's memory
// interface, per core kind: the load/store path and the fetch-side buffer
// state Cho et al. identify as the dominant uncore contributors. On the
// in-order core that is the memory stage plus both cache interfaces; on
// the out-of-order core the fetch buffer, store queue, and L1-D interface.
var uncoreUnits = map[CoreKind]map[string]bool{
	InO: {"memory": true, "icache": true, "dcache": true},
	OoO: {"fetchbuf": true, "stq": true, "l1dcache": true},
}

var (
	envOnce [2]sync.Once
	envs    [2]*ModelEnv
)

// EnvFor returns the shared model environment of a core kind, building it
// on first use (placement + neighbour lists, a few milliseconds).
func EnvFor(k CoreKind) *ModelEnv {
	i := 0
	if k == OoO {
		i = 1
	}
	envOnce[i].Do(func() {
		env := &ModelEnv{Kind: k}
		if k == InO {
			env.Pl = layout.Place(ino.Space(), layout.InOProfile())
		} else {
			env.Pl = layout.Place(ooo.Space(), layout.OoOProfile())
		}
		env.neighbors = env.Pl.NeighborLists(layout.SEMURadius)
		units := uncoreUnits[k]
		for bit := 0; bit < env.Pl.Space.NumBits(); bit++ {
			if units[env.Pl.Space.UnitOf(bit)] {
				env.uncoreBits = append(env.uncoreBits, bit)
			}
		}
		envs[i] = env
	})
	return envs[i]
}

// Model registry. Registration happens at init; lookups are read-only
// afterwards, so the map needs no locking on the campaign path.
var (
	modelsMu sync.Mutex
	models   = map[string]FaultModel{}
)

// RegisterModel adds a fault model to the registry. Names must be unique,
// lowercase, and free of "/" (the tag separator); violations panic, as
// misregistered models would silently corrupt cache keying.
func RegisterModel(m FaultModel) {
	name := m.Name()
	if name == "" || strings.Contains(name, "/") || name != strings.ToLower(name) {
		panic(fmt.Sprintf("inject: invalid fault-model name %q", name))
	}
	modelsMu.Lock()
	defer modelsMu.Unlock()
	if _, dup := models[name]; dup {
		panic(fmt.Sprintf("inject: fault model %q registered twice", name))
	}
	models[name] = m
}

// LookupModel returns a registered fault model, or nil.
func LookupModel(name string) FaultModel {
	modelsMu.Lock()
	defer modelsMu.Unlock()
	return models[name]
}

// ModelNames returns the registered fault-model names, sorted.
func ModelNames() []string {
	modelsMu.Lock()
	defer modelsMu.Unlock()
	out := make([]string, 0, len(models))
	for n := range models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefaultModel is the fault model campaigns run under when their tag
// carries no model prefix: the paper's single-bit upset model.
const DefaultModel = "ssb"

// ModelTag folds a fault model into a campaign tag: the ssb default keeps
// the tag untouched (so sweep state identities and result digests of ssb
// campaigns stay as they were), any other model prefixes "<model>/".
func ModelTag(model, tag string) string {
	if model == "" || model == DefaultModel {
		return tag
	}
	return model + "/" + tag
}

// SplitModelTag recovers (model, baseTag) from a campaign tag: a prefix
// before the first "/" naming a registered non-ssb model is the model;
// anything else — no separator, or a prefix that is not a registered
// model — is the legacy single-bit form.
func SplitModelTag(tag string) (model, baseTag string) {
	if prefix, rest, ok := strings.Cut(tag, "/"); ok && prefix != DefaultModel {
		if LookupModel(prefix) != nil {
			return prefix, rest
		}
	}
	return DefaultModel, tag
}

// --- registered models ---

// ssbModel is the paper's single-bit upset model: one flip, the struck
// bit.
type ssbModel struct{}

func (ssbModel) Name() string         { return "ssb" }
func (ssbModel) Bits(*ModelEnv) []int { return nil }
func (ssbModel) Expand(_ *ModelEnv, bit, _ int, _ uint64, dst Scenario) Scenario {
	return append(dst, bit)
}

// mbuModel is the spatial multi-bit upset model: the strike flips the
// sampled flip-flop and every neighbour within layout.SEMURadius, all in
// the injection cycle — the k-flip generalization of a SEMU pair, over the
// Table 5/6 cluster population the placement produces.
// The cluster is fixed by the placement, so h plays no part, and
// core.EvalMBUGrouping relies on that when it re-derives the cluster of a
// struck bit.
type mbuModel struct{}

func (mbuModel) Name() string         { return "mbu" }
func (mbuModel) Bits(*ModelEnv) []int { return nil }
func (mbuModel) Expand(env *ModelEnv, bit, _ int, _ uint64, dst Scenario) Scenario {
	return env.Cluster(bit, dst)
}

// uncoreModel restricts single-bit strikes to the memory-interface state
// (Cho et al.): the load/store path and fetch-side buffers. Expansion is
// the ssb single flip; the population is what changes.
type uncoreModel struct{}

func (uncoreModel) Name() string             { return "uncore" }
func (uncoreModel) Bits(env *ModelEnv) []int { return env.UncoreBits() }
func (uncoreModel) Expand(_ *ModelEnv, bit, _ int, _ uint64, dst Scenario) Scenario {
	return append(dst, bit)
}

// SETMaxPulse is the widest transient pulse the set model samples, in gate
// delays. Pulse widths draw uniformly from [1, SETMaxPulse].
const SETMaxPulse = 12

// setModel is the single-event transient model: a glitch in the
// combinational cone feeding the sampled flip-flop. The wrong value is
// captured only when the flip-flop's timing slack is below the sampled
// pulse width — a path with more slack than the pulse absorbs it before
// the capture edge, and the scenario is empty (Vanished, never
// simulated). The pulse width draws from the upper half of the sample's
// hash so it is independent of the cycle draw's low bits.
type setModel struct{}

func (setModel) Name() string         { return "set" }
func (setModel) Bits(*ModelEnv) []int { return nil }
func (setModel) Expand(env *ModelEnv, bit, _ int, h uint64, dst Scenario) Scenario {
	pulse := 1 + int((h>>32)%SETMaxPulse)
	if env.Pl.Slack[bit] >= pulse {
		return dst
	}
	return append(dst, bit)
}

func init() {
	RegisterModel(ssbModel{})
	RegisterModel(mbuModel{})
	RegisterModel(uncoreModel{})
	RegisterModel(setModel{})
}
