// Command clearbench is the repository's benchmark: it measures, end to end
// and layer by layer, how long the CLEAR flows take to run, and checks that
// their results are right.
//
//	bash cmd/clearbench/run.sh --workload campaign-ino --seed 1 --seconds 25 --trace 0
//	bash cmd/clearbench/run.sh --workload sweep-cold --trace 1 --spans .bench_build/spans.jsonl
//	(cd cmd/clearbench && go test ./...)
//
// run.sh builds the command from the enclosing checkout with every build
// and scratch file under .bench_build/, then runs it. The command is a Go
// module of its own that imports the repository's packages through a
// replace directive, so it builds only inside a checkout of the repository,
// and the repository's own go test ./... does not reach its tests.
//
// One process runs one workload at one seed. The seed is the campaign Seed
// of every engine and injector (default 0xC1EA5, the engines' own default),
// so the same seed gives the same campaigns. GOMAXPROCS is the CPU count,
// sweeps run 2 workers, and every campaign reads and writes a scratch cache
// directory of the run (-tmp), never the repository's committed cache. After
// set-up the workload runs whole iterations until the next one would end
// past -seconds (at least one). Iterations are independent: each builds
// fresh engines, and all but sweep-warm's start from an empty cache.
//
// # Workloads
//
//   - campaign-ino: for each of the 18 InO benchmarks, Engine.Base at the
//     default 24 samples per flip-flop, an attribution campaign
//     (Injector.Run with a RecordBuffer sink, 2 samples per flip-flop) on the
//     workload's single injector, then analysis.UnitRanking and InstRanking.
//     527,436 injections per iteration. The InO core and the packed gang
//     engine do most of the work; the sink path runs scalar warm-start.
//   - campaign-ooo: hookless base campaigns on the 11 OoO benchmarks under
//     the ssb and mbu fault models, 1 sample per flip-flop: 251,130
//     injections. OoO Step, CopyStateFrom/DiffFrom on the 11,415-bit space
//     and multi-flip scenarios dominate.
//   - sweep-cold: sweep.Run over the 417 InO combinations × {gzip,
//     inner_product, fft} at the SDC 50× point with quick sampling (1/1):
//     1,251 cells and 144 campaigns from an empty cache, most of their time
//     in DFC/Monitor hooked campaigns replayed from reset.
//   - sweep-warm: the same grid at seven design points (SDC 2×, 5×, 50×,
//     max; DUE 2×, 50×, max), a fresh engine each, reading the cache set-up
//     filled with one cold pass: 8,757 cells and no injections. Cache reads,
//     hardening, cost evaluation and sweep scheduling dominate; a change to
//     the campaign engine must leave it flat.
//
// -quick shrinks every workload to one iteration on inner_product and the
// first 24 combinations; the package tests run it.
//
// # Set-up
//
// Set-up builds the workload's benchmark programs, their golden outputs and
// threaded code. sweep-warm then fills its cache (one cold SDC 50× pass).
// The other workloads instead run three warm-up passes, each a quick
// iteration on a fresh engine and an empty cache. setup_s is the median
// pass time, scaled like every other time (see Output); the first pass is
// timed from process start.
//
// # Output
//
// The report prints every metric by name with its unit, sample count,
// median, quartiles and, where there are enough samples, the highest
// percentile with at least ten samples beyond it. Its last line is one JSON
// object, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics of an untraced run (-trace 0) or the per-layer metrics of a
// traced one (-trace 1), as BENCHMARK.json lists them. The process exits
// nonzero unless every output was correct.
//
// End-to-end metrics:
//
//	setup_s       set-up time (median of the set-up passes)
//	wall_s        iteration time (median)
//	work_per_s    injections per second (campaign-ino, campaign-ooo,
//	              sweep-cold) or sweep cells per second (sweep-warm),
//	              median over iterations
//	peak_rss_mb   peak resident memory of the process during set-up and
//	              the iterations (the speed kernels' own memory excluded)
//	alloc_mb      heap allocated per iteration (median)
//
// Every time above is scaled to a reference host: shared hosts change
// speed in phases longer than a run, so the benchmark times fixed kernels
// of its own at every iteration and set-up boundary and scales each
// measured time by how much slower than reference they ran around it
// (speed.go). The report also prints, without gating them in
// BENCHMARK.json, the task latencies task_p50_ms and task_p90_ms (campaign
// workloads) or task_p99_ms (sweep workloads), pooled over the iterations
// and scaled the same way; a task is one benchmark's flow on the campaign
// workloads (its base and attribution campaigns and rankings, or its ssb
// and mbu campaigns) and one sweep cell on the sweep workloads. Their
// spread across runs is too wide to gate: noise shorter than an iteration
// reaches a 40 us cell but not the kernels around the iteration. It prints
// the kernel time, the unscaled set-up and iteration times, inj_per_s and
// cells_per_s (unscaled) and failed_frac; failures are the JSON line's
// "failed" count.
//
// Per-layer metrics come from a traced run. Its timings, unscaled, come
// from a probe suite that runs after the iterations on fixed inputs, so
// every traced run reports all of them:
//
//	{ino,ooo}.step_ns_per_cycle           nominal Core.Run over the suite
//	{ino,ooo}.{snapshot,restore,matches,copy_state,diff}_ns
//	                                      state operations at mid-run of gzip
//	tcode.translate_ns_per_word           tcode.Translate over the InO suite
//	archres.{dfc,mon}_ns_per_cycle        hooked nominal run minus plain
//	inject.reference_ms                   BuildReference, per program
//	inject.kernel_{warm,cold,hooked}_us   RunOneFrom, RunOne, RunOne with
//	                                      DFC, over 256 seeded draws on gzip
//	inject.campaign_ms.{hookless,hooked,attrib}
//	                                      one gzip campaign at 1 sample/FF
//	inject.cache_hit_us                   Injector.Campaign served from cache
//	analysis.{unit,inst}_ranking_us       the rankings of the attrib campaign
//	core.build_program_us                 BuildProgram per InO variant
//	core.exec_overhead_ms                 ExecOverhead per transformed variant
//	core.eval_combo_us                    EvalCombo with campaigns memoized
//	sweep.sched_us_per_cell               sweep.Run worker time per cell whose
//	                                      evaluation does nothing
//
// Its counts and ratios come from the workload's own iterations:
// inject.{injections,pruned,prune_ratio,cache_hits,cache_misses,quarantined}
// and core.{campaigns_run,campaigns_joined,programs_built} per iteration;
// sweep.worker_util (summed cell time over workers × sweep time); the Go
// runtime's go.gc_count per iteration and go.live_heap_mb after a forced GC
// at each iteration's end; self_frac.<layer>, each layer's share of the
// iterations' summed span self time; trace.coverage_frac, the smallest share
// of an iteration its layer spans cover; and trace.overhead_frac, the
// measured cost of recording the iterations' spans over their time. Every
// count repeats exactly for a seed except core.campaigns_joined, which
// counts two sweep workers asking for one campaign at the same moment.
//
// # Tracing
//
// A traced run records a span around every call the benchmark makes into
// the repository's packages: name, start, end, parent, iteration, and the
// bench, core, tag, model and hooked attributes. In the sweeps the traced
// cell calls Base, Campaign, ExecOverhead and then EvalCombo, so campaign,
// overhead and hardening time land in separate spans while the results stay
// identical. A span's self time is its duration minus the union of its
// children's intervals (two sweep workers' cells overlap). Spans stay in
// memory and -spans writes them as JSONL at exit. End-to-end numbers come
// only from untraced runs.
//
// # Correctness
//
// Every iteration's outputs — each campaign Result, each sweep's rows and
// frontier, the unit and instruction rankings — feed a canonical SHA-256
// digest, printed for every seed. A run fails when iterations disagree on
// their digest or counts, when a default-seed full-mode digest differs from
// the one pinned in pinned.go, when attribution records do not tally to
// their campaign's per-flip-flop results, when a campaign sampled the wrong
// number of injections, when a sweep cell fails, when a fresh-cache workload
// hits the cache, when sweep-warm injects or misses its cache, or when
// sweep-warm's SDC 50× point differs from the cold pass that filled it.
package main
