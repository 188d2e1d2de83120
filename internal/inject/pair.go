package inject

import (
	"fmt"

	"clear/internal/prog"
	"clear/internal/sim"
)

// This file is the single-event-multiple-upset (SEMU) campaign loop: one
// particle, two flip-flops, same cycle. A pair is the two-flip Scenario
// {a, b}, so pair injections run through the same kernel as every other
// strike — the same Reference warm-start, the same convergence pruning,
// and the same per-Injector counters.

// PairConfig describes a SEMU campaign: a (core, program) pair, the sampling
// density per flip-flop pair, and the sampling seed. Tag distinguishes
// campaigns running transformed programs or hooks, as in Config.
type PairConfig struct {
	Core           CoreKind
	Bench          string
	Tag            string
	SamplesPerPair int
	Seed           uint64
}

// PairResult is a completed SEMU campaign over an explicit pair list:
// per-pair outcome tallies (indexed like the input pairs) plus totals and
// detection-latency statistics over the ED outcomes (cycles from injection
// to detection — the same accounting the single-flip Result carries).
type PairResult struct {
	Config    PairConfig
	NomCycles int
	PerPair   []Counts
	Totals    Counts
	DetLatSum int64
	DetN      int64
}

// pairChunk is the number of pairs one work item covers.
const pairChunk = 16

// RunPairs executes a SEMU campaign over pairs: SamplesPerPair
// uniform-random cycles for every flip-flop pair, warm-started and pruned
// through the same reference trajectory as single-flip campaigns (an
// opaque hookFactory replays every injection from reset, as in Run). Pair
// lists come from the physical layout (e.g. Placement.AdjacentPairs — the
// pairs one particle can reach). Injections, prunes, and outcome tallies
// land on this injector's counters.
func (in *Injector) RunPairs(cfg PairConfig, p *prog.Program, pairs [][2]int,
	hookFactory func(*prog.Program) sim.CommitHook) (*PairResult, error) {
	nBits := SpaceBits(cfg.Core)
	for _, pr := range pairs {
		if pr[0] < 0 || pr[0] >= nBits || pr[1] < 0 || pr[1] >= nBits {
			return nil, fmt.Errorf("inject: pair %v outside the %d-bit flip-flop space", pr, nBits)
		}
	}
	ref, nomCycles, _, err := nominal(cfg.Core, p, cfg.Bench, cfg.Tag, cfg.SamplesPerPair, hookFactory, nil)
	if err != nil {
		return nil, err
	}
	res := &PairResult{Config: cfg, NomCycles: nomCycles, PerPair: make([]Counts, len(pairs))}
	fanOut((len(pairs)+pairChunk-1)/pairChunk, func() (func(int), func()) {
		core := NewCore(cfg.Core, p)
		local := make([]Counts, len(pairs))
		var totals Counts
		var latSum, latN int64
		do := func(chunk int) {
			for pi := chunk * pairChunk; pi < min((chunk+1)*pairChunk, len(pairs)); pi++ {
				sc := Scenario{pairs[pi][0], pairs[pi][1]}
				for s := 0; s < cfg.SamplesPerPair; s++ {
					h := splitmix64(cfg.Seed ^ uint64(pi)<<20 ^ uint64(s))
					cycle := int(h % uint64(nomCycles))
					out, det := in.runScenarioFrom(core, nil, p, ref, sc, cycle, nomCycles, hookFactory)
					if out == ED && det >= cycle {
						latSum += int64(det - cycle)
						latN++
					}
					local[pi].Add(out)
					totals.Add(out)
				}
			}
		}
		return do, func() {
			for i := range local {
				res.PerPair[i].Merge(local[i])
			}
			res.Totals.Merge(totals)
			res.DetLatSum += latSum
			res.DetN += latN
		}
	})
	in.addOutcomes(res.Totals)
	return res, nil
}
