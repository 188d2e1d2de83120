// Package inject is the fault-injection engine: it flips single flip-flop
// bits at uniformly sampled (flip-flop, cycle) points while a core runs an
// application benchmark, classifies each run's outcome, and aggregates
// per-flip-flop vulnerability statistics.
//
// Outcome classes follow the paper (Sec 2.1):
//
//	Vanished — normal termination, outputs match the error-free run
//	OMM      — normal termination, outputs differ (SDC-causing)
//	UT       — abnormal termination (DUE-causing)
//	Hang     — no termination within 2x nominal cycles (DUE-causing)
//	ED       — a resilience technique flagged the error (DUE-causing when
//	           no recovery is attached)
package inject

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"clear/internal/ino"
	"clear/internal/ooo"
	"clear/internal/prog"
	"clear/internal/sim"
)

// Outcome is the classification of a single injection run.
type Outcome int

// Injection outcome classes.
const (
	Vanished Outcome = iota
	OMM
	UT
	Hang
	ED
	numOutcomes
)

func (o Outcome) String() string {
	switch o {
	case Vanished:
		return "Vanished"
	case OMM:
		return "OMM"
	case UT:
		return "UT"
	case Hang:
		return "Hang"
	case ED:
		return "ED"
	}
	return "?"
}

// CoreKind selects which processor design is injected.
type CoreKind int

// The two processor designs studied.
const (
	InO CoreKind = iota
	OoO
)

func (k CoreKind) String() string {
	if k == InO {
		return "InO"
	}
	return "OoO"
}

// NewCore instantiates a fresh core of the given kind bound to p.
func NewCore(k CoreKind, p *prog.Program) sim.Core {
	if k == InO {
		return ino.New(p)
	}
	return ooo.New(p)
}

// SpaceBits returns the flip-flop count of a core kind.
func SpaceBits(k CoreKind) int {
	if k == InO {
		return ino.Space().NumBits()
	}
	return ooo.Space().NumBits()
}

// HangFactor is the hang cutoff multiplier over nominal execution time
// (the paper uses 2x).
const HangFactor = 2

// Classify maps a finished run to an outcome class.
func Classify(p *prog.Program, res prog.Result) Outcome {
	switch res.Status {
	case prog.StatusHalted:
		if p.OutputsEqual(res.Output) {
			return Vanished
		}
		return OMM
	case prog.StatusTrap:
		return UT
	case prog.StatusDetected:
		return ED
	default:
		return Hang
	}
}

// RunOne performs a single injection: run core to cycle, flip bit, run to
// completion or the hang cutoff, classify. hookFactory, when non-nil,
// supplies a fresh commit-stream checker for the run (its detections
// classify as ED). The returned detectCycle is the cycle at which a
// detection fired (-1 otherwise).
func RunOne(c sim.Core, p *prog.Program, bit, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	c.Reset(p)
	if hookFactory != nil {
		c.SetCommitHook(hookFactory(p))
	} else {
		c.SetCommitHook(nil)
	}
	for i := 0; i < cycle && !c.Done(); i++ {
		c.Step()
	}
	c.State().FlipBit(bit)
	res := c.Run(HangFactor * nomCycles)
	out := Classify(p, res)
	det := -1
	if out == ED {
		det = res.Steps
	}
	return out, det
}

// Counts aggregates outcome tallies.
type Counts struct {
	N        int
	Vanished int
	OMM      int
	UT       int
	Hang     int
	ED       int
}

// Add accumulates one outcome.
func (c *Counts) Add(o Outcome) {
	c.N++
	switch o {
	case Vanished:
		c.Vanished++
	case OMM:
		c.OMM++
	case UT:
		c.UT++
	case Hang:
		c.Hang++
	case ED:
		c.ED++
	}
}

// Merge accumulates other into c.
func (c *Counts) Merge(other Counts) {
	c.N += other.N
	c.Vanished += other.Vanished
	c.OMM += other.OMM
	c.UT += other.UT
	c.Hang += other.Hang
	c.ED += other.ED
}

// SDC returns the count of SDC-causing errors (output mismatches).
func (c Counts) SDC() int { return c.OMM }

// DUE returns the count of DUE-causing errors (UT + Hang + ED).
func (c Counts) DUE() int { return c.UT + c.Hang + c.ED }

// FFStats is the per-flip-flop outcome tally of a campaign.
type FFStats struct {
	N    uint16 // samples on this flip-flop
	OMM  uint16
	UT   uint16
	Hang uint16
	ED   uint16
}

// SDCFrac returns the fraction of errors in this flip-flop causing SDC.
func (f FFStats) SDCFrac() float64 {
	if f.N == 0 {
		return 0
	}
	return float64(f.OMM) / float64(f.N)
}

// DUEFrac returns the fraction of errors in this flip-flop causing DUE.
func (f FFStats) DUEFrac() float64 {
	if f.N == 0 {
		return 0
	}
	return float64(f.UT+f.Hang+f.ED) / float64(f.N)
}

// Config describes an injection campaign: a (core, program) pair plus
// sampling parameters. Tag distinguishes campaigns whose behavior differs
// through a commit hook or transformed program (e.g. "dfc", "eddi").
type Config struct {
	Core         CoreKind
	Bench        string
	Tag          string
	SamplesPerFF int
	Seed         uint64
}

// Result is a completed campaign: per-flip-flop statistics over uniform
// (flip-flop, cycle) samples.
type Result struct {
	Config    Config
	NomCycles int
	NomRet    int64 // retired instructions in the nominal run
	PerFF     []FFStats
	Totals    Counts
	// Detection latency statistics over ED outcomes (cycles from injection
	// to detection).
	DetLatSum int64
	DetN      int64
}

// SDCCount and DUECount report campaign-wide outcome totals.
func (r *Result) SDCCount() int { return r.Totals.SDC() }

// DUECount reports total DUE-causing errors in the campaign.
func (r *Result) DUECount() int { return r.Totals.DUE() }

// splitmix64 provides deterministic per-sample randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// nomBudget is the cycle budget of a campaign's nominal (fault-free) run.
const nomBudget = 8_000_000

// Run executes a campaign: SamplesPerFF uniform-random cycles for every
// flip-flop bit of the strike population. The program may be a transformed
// (software-protected) variant; hookFactory attaches an architecture-level
// checker. A "<model>/" prefix on cfg.Tag selects a registered fault model
// (mbu, uncore, set — see model.go); the unprefixed form is the paper's
// single-bit model and runs the exact legacy path.
//
// Hookless campaigns amortize simulation work through the fault-free
// reference trajectory (see CheckpointInterval and RunOneFrom): each
// injection warm-starts from the nearest snapshot and prunes as soon as its
// state reconverges with the reference. Sinkless campaigns further batch up
// to 64 same-window injections into gangs that share one carrier replay of
// the window prefix and gang-prune reconverged lanes every cycle (see Packed
// and batch.go). A hookFactory is an opaque closure whose state the engine
// cannot save, so a hooked Run replays every injection from reset; a
// checker with savable state takes the warm, pruned and packed paths
// through RunChecked instead. Results are bit-for-bit identical to the
// from-reset path for a fixed Config.Seed.
//
// The package-level function counts against the default injection scope;
// use the Injector method to attribute the work to a specific scope.
func Run(cfg Config, p *prog.Program, hookFactory func(*prog.Program) sim.CommitHook) (*Result, error) {
	return std.Run(cfg, p, hookFactory)
}

// Run is the scoped form of the package-level Run: injections, prunes, and
// outcome tallies land on this injector's counters. Counters only observe
// the campaign — they never feed back into it, so results are identical
// whichever scope runs the campaign.
func (in *Injector) Run(cfg Config, p *prog.Program, hookFactory func(*prog.Program) sim.CommitHook) (*Result, error) {
	return in.run(cfg, p, hookFactory, nil)
}

// RunChecked runs a campaign checked by the commit-stream checker cf
// builds. It returns exactly what Run returns with cf's checkers as plain
// hooks (func(p) { return cf(p).Observe }), but because a sim.Checker's
// state can be saved, restored and compared, the campaign warm-starts from
// the reference, prunes when core and checker both reconverge, and runs on
// the packed gang engine like a hookless one. Each worker core owns one
// checker for the whole campaign instead of building one per injection.
func (in *Injector) RunChecked(cfg Config, p *prog.Program, cf func(*prog.Program) sim.Checker) (*Result, error) {
	return in.run(cfg, p, nil, cf)
}

// hooksOf adapts a checker factory to a plain hook factory.
func hooksOf(cf func(*prog.Program) sim.Checker) func(*prog.Program) sim.CommitHook {
	return func(p *prog.Program) sim.CommitHook { return cf(p).Observe }
}

// run is the campaign body behind Run (hookFactory, run from reset) and
// RunChecked (cf, run warm); at most one of the two is non-nil.
func (in *Injector) run(cfg Config, p *prog.Program, hookFactory func(*prog.Program) sim.CommitHook,
	cf func(*prog.Program) sim.Checker) (*Result, error) {
	if p.Expected == nil {
		return nil, fmt.Errorf("inject: %s has no golden output", p.Name)
	}
	if cfg.SamplesPerFF < 0 || cfg.SamplesPerFF > math.MaxUint16 {
		return nil, fmt.Errorf("inject: SamplesPerFF %d outside the per-FF counter range [0, %d]",
			cfg.SamplesPerFF, math.MaxUint16)
	}
	// Resolve the fault model from the tag's "<model>/" prefix (see
	// model.go). The unprefixed legacy form is the ssb model and keeps the
	// exact pre-model code path, so ssb campaigns stay byte-identical.
	modelName, _ := SplitModelTag(cfg.Tag)
	model := LookupModel(modelName)
	ssb := modelName == DefaultModel
	var env *ModelEnv
	var strikes []int
	if !ssb {
		env = EnvFor(cfg.Core)
		strikes = model.Bits(env)
	}
	if cf != nil && CheckpointInterval <= 0 {
		// No reference to warm-start from: the checker runs as a plain hook.
		hookFactory, cf = hooksOf(cf), nil
	}
	var ref *Reference
	var nomRes prog.Result
	var nomRet int64
	if hookFactory == nil && CheckpointInterval > 0 {
		var nomC sim.Core
		var refErr error
		ref, nomRes, nomC, refErr = buildReferenceCore(cfg.Core, p, CheckpointInterval, nomBudget, cf)
		if refErr != nil {
			return nil, refErr
		}
		nomRet = nomC.Retired()
	} else {
		nom := NewCore(cfg.Core, p)
		if hookFactory != nil {
			nom.SetCommitHook(hookFactory(p))
		}
		nomRes = nom.Run(nomBudget)
		nomRet = nom.Retired()
	}
	if nomRes.Status != prog.StatusHalted || !p.OutputsEqual(nomRes.Output) {
		return nil, fmt.Errorf("inject: nominal run of %s/%s failed: %v", cfg.Bench, cfg.Tag, nomRes.Status)
	}
	nomCycles := nomRes.Steps
	nBits := SpaceBits(cfg.Core)
	// The strike population: every flip-flop, unless the model restricts
	// it (uncore). PerFF is always full-space sized and indexed by the
	// struck bit, so per-structure reporting works across models.
	nStrikes := nBits
	if strikes != nil {
		nStrikes = len(strikes)
	}

	res := &Result{
		Config:    cfg,
		NomCycles: nomCycles,
		NomRet:    nomRet,
		PerFF:     make([]FFStats, nBits),
	}

	// Eligible campaigns run on the packed (gang-batched) engine — see
	// batch.go for the eligibility reasoning. Results are bit-identical to
	// the scalar loop below, which remains both the -packed=false escape
	// hatch and the path for opaque-hook or sink-carrying campaigns.
	if Packed && hookFactory == nil && in.Sink == nil && ref.usable() {
		if in.runPacked(res, cfg, p, ref, cf, nomCycles, nStrikes, strikes, ssb, model, env) {
			in.addOutcomes(res.Totals)
			return res, nil
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	type chunk struct{ lo, hi int }
	chunks := make(chan chunk, workers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			core, chk := newChecked(cfg.Core, p, cf)
			// Tallies are indexed by the compact strike population, not the
			// full flip-flop space: a restricted model (uncore) strikes a
			// few hundred bits and must not pay a full-space slice per
			// worker. The merge below scatters back to PerFF's bit indexing.
			local := make([]FFStats, nStrikes)
			var totals Counts
			var latSum, latN int64
			for ch := range chunks {
				for i := ch.lo; i < ch.hi; i++ {
					bit := i
					if strikes != nil {
						bit = strikes[i]
					}
					for s := 0; s < cfg.SamplesPerFF; s++ {
						h := splitmix64(cfg.Seed ^ uint64(bit)<<20 ^ uint64(s))
						cycle := int(h % uint64(nomCycles))
						var out Outcome
						var det int
						if ssb {
							out, det = in.runOneFrom(core, chk, p, ref, bit, cycle, nomCycles, hookFactory)
						} else {
							sc := model.Expand(env, bit, cycle, h)
							out, det = in.runScenarioFrom(core, chk, p, ref, sc, cycle, nomCycles, hookFactory)
						}
						if out == ED && det >= cycle {
							latSum += int64(det - cycle)
							latN++
						}
						st := &local[i]
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
						totals.Add(out)
					}
				}
			}
			mu.Lock()
			for i := range local {
				bit := i
				if strikes != nil {
					bit = strikes[i]
				}
				res.PerFF[bit].N += local[i].N
				res.PerFF[bit].OMM += local[i].OMM
				res.PerFF[bit].UT += local[i].UT
				res.PerFF[bit].Hang += local[i].Hang
				res.PerFF[bit].ED += local[i].ED
			}
			res.Totals.Merge(totals)
			res.DetLatSum += latSum
			res.DetN += latN
			mu.Unlock()
		}()
	}
	const step = 64
	for lo := 0; lo < nStrikes; lo += step {
		hi := lo + step
		if hi > nStrikes {
			hi = nStrikes
		}
		chunks <- chunk{lo, hi}
	}
	close(chunks)
	wg.Wait()
	in.addOutcomes(res.Totals)
	return res, nil
}

// RunPair performs a single-event multiple-upset (SEMU) injection: two
// flip-flops struck by one particle flip in the same cycle. The paper's
// layout constraint (Tables 5/6) exists precisely because an even number
// of flips inside one parity group is invisible to an XOR tree. The
// returned detect cycle is the cycle a detection fired at (-1 unless the
// outcome is ED).
//
// The injection and its outcome are tallied on the default injection scope;
// use the Injector method (or RunPairFrom / RunPairs, see pair.go) to
// attribute SEMU work to a specific scope or to warm-start it from a
// reference trajectory.
func RunPair(c sim.Core, p *prog.Program, bitA, bitB, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return std.RunPair(c, p, bitA, bitB, cycle, nomCycles, hookFactory)
}
