package technique

import (
	"fmt"

	"clear/internal/abft"
	"clear/internal/archres"
	"clear/internal/circuitlib"
	"clear/internal/power"
	"clear/internal/prog"
	"clear/internal/recovery"
	"clear/internal/sim"
	"clear/internal/swres"
)

// The built-in library registers in the canonical display order: algorithm
// and software techniques top-down as they transform the program, then the
// architecture checkers, then circuit/logic insertion, then the recovery
// mechanisms. Combination labels, campaign construction, and enumeration
// all derive their ordering from this sequence.
func init() {
	registerBuiltins(std)
}

func registerBuiltins(r *Registry) {
	r.mustRegister(abftTech{
		Info: Info{TechName: NameABFTCorrection, TechLayer: Algorithm},
		mode: abft.Correction, tag: "abftc", allRecoveries: true,
	})
	r.mustRegister(abftTech{
		Info: Info{TechName: NameABFTDetection, TechLayer: Algorithm},
		mode: abft.Detection, tag: "abftd",
	})
	r.mustRegister(cfcssTech{Info{TechName: NameCFCSS, TechLayer: Software, Cores: []string{"InO"}}})
	r.mustRegister(assertTech{Info{TechName: NameAssertions, TechLayer: Software, Cores: []string{"InO"}}})
	r.mustRegister(eddiTech{Info{TechName: NameEDDI, TechLayer: Software, Cores: []string{"InO"},
		Note: "w/ store-readback"}})
	r.mustRegister(monitorTech{Info{TechName: NameMonitor, TechLayer: Architecture, Cores: []string{"OoO"}}})
	r.mustRegister(dfcTech{Info{TechName: NameDFC, TechLayer: Architecture}})
	r.mustRegister(diceTech{Info{TechName: NameLEAPDICE, TechLayer: Circuit}})
	r.mustRegister(parityTech{detectorCell{Info{TechName: NameParity, TechLayer: Logic}}})
	r.mustRegister(edsTech{detectorCell{Info{TechName: NameEDS, TechLayer: Circuit}}})
	for _, k := range []recovery.Kind{recovery.Flush, recovery.RoB, recovery.IR, recovery.EIR} {
		r.mustRegister(recTech{Info: Info{TechName: k.String(), TechLayer: Recovery}, kind: k})
	}
}

// versionSuffix renders a checker version into a cache-tag suffix; version
// 1 is the empty suffix so existing campaign caches stay valid.
func versionSuffix(v int) string {
	if v <= 1 {
		return ""
	}
	return fmt.Sprintf(".v%d", v)
}

// ---- algorithm layer ----

type abftTech struct {
	Info
	mode          abft.Mode
	tag           string
	allRecoveries bool
}

// Transform swaps in the ABFT kernel when the benchmark admits this mode;
// benchmarks without an ABFT variant keep the incoming program (the paper's
// Sec 3.2.1 fallback).
func (t abftTech) Transform(p *prog.Program, env *Env) (*prog.Program, error) {
	if abft.Supports(env.Bench, t.mode) {
		return abft.Program(env.Bench, t.mode)
	}
	return p, nil
}

// CompatibleWith: ABFT correction composes with every recovery; ABFT
// detection has unbounded detection latency and composes with none.
func (t abftTech) CompatibleWith(recovery.Kind, string) bool { return t.allRecoveries }

func (t abftTech) CampaignTag(Options) string { return t.tag }
func (abftTech) TagRank() int                 { return TagRankAlgorithm }

// ---- software layer ----

type cfcssTech struct{ Info }

func (cfcssTech) Transform(p *prog.Program, env *Env) (*prog.Program, error) {
	return swres.CFCSS(p)
}
func (cfcssTech) CampaignTag(Options) string { return "cfcss" }
func (cfcssTech) TagRank() int               { return TagRankSoftware }

type assertTech struct{ Info }

// Transform trains assertion invariants on the alternate input set as well
// when the engine provides one (multi-input training); a benchmark without
// an alternate input trains single-input.
func (assertTech) Transform(p *prog.Program, env *Env) (*prog.Program, error) {
	var trainers []*prog.Program
	if env.AltTrainer != nil {
		alt, err := env.AltTrainer()
		if err != nil {
			return nil, err
		}
		if alt != nil {
			trainers = append(trainers, alt)
		}
	}
	return swres.AssertionsTrained(p, trainers, env.Opt.AssertK)
}
func (assertTech) CampaignTag(o Options) string { return "assert-" + o.AssertK.String() }
func (assertTech) TagRank() int                 { return TagRankSoftware }

type eddiTech struct{ Info }

func (eddiTech) Transform(p *prog.Program, env *Env) (*prog.Program, error) {
	if env.Opt.SelEDDI {
		return swres.SelectiveEDDI(p)
	}
	return swres.EDDI(p, env.Opt.EDDISrb)
}
func (eddiTech) CampaignTag(o Options) string {
	switch {
	case o.SelEDDI:
		return "seddi"
	case o.EDDISrb:
		return "eddisrb"
	}
	return "eddi"
}
func (eddiTech) TagRank() int { return TagRankSoftware }

// ---- architecture layer ----

type dfcTech struct{ Info }

func (dfcTech) Cost(m power.Model, core string) power.Cost { return archres.DFCCost(m) }
func (dfcTech) GammaFF(core string) float64                { return archres.DFCFFOverhead(core) }
func (dfcTech) GammaExec(core string) float64 {
	if core == "InO" {
		return archres.DFCExecImpactInO
	}
	return archres.DFCExecImpactOoO
}
func (dfcTech) Checker(p *prog.Program) sim.Checker { return archres.NewDFCChecker(p) }
func (dfcTech) CompatibleWith(k recovery.Kind, core string) bool {
	return k == recovery.IR || k == recovery.EIR
}
func (dfcTech) CampaignTag(Options) string { return "dfc" + versionSuffix(archres.DFCVersion) }
func (dfcTech) TagRank() int               { return TagRankDFC }

// PairsWith: the paper evaluates DFC standalone and with the extended
// instruction replay built for it (EIR carries the DFC buffers).
func (dfcTech) PairsWith(core string) recovery.Kind { return recovery.EIR }
func (dfcTech) StandsAlone() bool                   { return true }

type monitorTech struct{ Info }

func (monitorTech) Cost(m power.Model, core string) power.Cost { return archres.MonitorCost(m) }
func (monitorTech) GammaFF(core string) float64                { return archres.MonitorFFOverhead }
func (monitorTech) GammaExec(core string) float64              { return 0 }
func (monitorTech) Checker(p *prog.Program) sim.Checker        { return archres.NewMonitorChecker(p) }
func (monitorTech) CompatibleWith(k recovery.Kind, core string) bool {
	return k == recovery.RoB || k == recovery.IR || k == recovery.EIR
}
func (monitorTech) CampaignTag(Options) string { return "mon" + versionSuffix(archres.MonitorVersion) }
func (monitorTech) TagRank() int               { return TagRankMonitor }

// PairsWith: the monitor core's checking is coupled to reorder-buffer
// rollback; the paper reports it with RoB recovery only.
func (monitorTech) PairsWith(core string) recovery.Kind { return recovery.RoB }
func (monitorTech) StandsAlone() bool                   { return false }

// ---- circuit / logic layers ----

type diceTech struct{ Info }

// diceSER is the LEAP-DICE cell's soft-error-rate ratio, read once from
// the circuit library.
var diceSER = circuitlib.Get(circuitlib.LEAPDICE).SERRatio

func (diceTech) Corrects() bool { return true }

// AppliesToModel: a LEAP-DICE cell hardens the storage nodes against
// particle strikes (ssb, mbu clusters, uncore strikes) but a single-event
// transient arrives through the combinational D input and is latched like
// any ordinary flip-flop — the cell offers no protection under "set".
func (diceTech) AppliesToModel(model string) bool { return model != "set" }

// Residual: a LEAP-DICE cell scales every error class by its SER ratio.
func (diceTech) Residual(n, sdc, due float64, recovered bool) (float64, float64) {
	return sdc * diceSER, due * diceSER
}

type detectorCell struct{ Info }

func (detectorCell) Corrects() bool { return false }

// Residual: detection with usable recovery erases the error (detect and
// replay); without it every injected flip becomes a detected DUE — even
// flips that would have vanished.
func (detectorCell) Residual(n, sdc, due float64, recovered bool) (float64, float64) {
	if recovered {
		return 0, 0
	}
	return 0, n
}

// CompatibleWith: circuit/logic detection drives every recovery mechanism.
func (detectorCell) CompatibleWith(recovery.Kind, string) bool { return true }

type parityTech struct{ detectorCell }

// AppliesToModel: the parity tree checks the latched state, so a transient
// latched through the D input corrupts data and check bit consistently —
// parity sees a valid codeword and detects nothing under "set". (Razor-like
// EDS samples the combinational output twice in time and does catch
// transients, so edsTech deliberately has no ModelCompat.)
func (parityTech) AppliesToModel(model string) bool { return model != "set" }

type edsTech struct{ detectorCell }

// ---- recovery mechanisms ----

type recTech struct {
	Info
	kind recovery.Kind
}

func (t recTech) Kind() recovery.Kind { return t.kind }
func (t recTech) AppliesTo(core string) bool {
	return recovery.Valid(t.kind, core)
}
func (t recTech) Cost(m power.Model, core string) power.Cost {
	return recovery.Cost(t.kind, core)
}
func (t recTech) GammaFF(core string) float64 { return RecoveryFFOverhead(t.kind, core) }

// GammaExec: pipeline-flush recovery squashes and refetches on every
// detection, a fixed execution-time overhead; the replay buffers are free
// of it. (The lookup is calibrated against the in-order core's flush cost,
// matching the engine's historical arithmetic bit-for-bit.)
func (t recTech) GammaExec(core string) float64 {
	if t.kind == recovery.Flush {
		return recovery.Cost(recovery.Flush, "InO").ExecTime
	}
	return 0
}

// RecoveryFFOverhead is the γ flip-flop overhead of recovery hardware
// (calibrated so parity+IR on the in-order core gives the paper's γ≈1.4
// and the OoO recovery units are nearly free). This is the single source
// for the table that used to be duplicated in core and experiments.
func RecoveryFFOverhead(k recovery.Kind, core string) float64 {
	if core == "InO" {
		switch k {
		case recovery.IR:
			return 0.35
		case recovery.EIR:
			return 0.42
		case recovery.Flush:
			return 0.01
		}
		return 0
	}
	switch k {
	case recovery.IR, recovery.EIR:
		return 0.055
	case recovery.RoB:
		return 0.001
	}
	return 0
}
