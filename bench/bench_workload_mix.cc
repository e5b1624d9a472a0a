/**
 * @file
 * Experiment E17 (end-to-end ablation) — a strip-mined kernel mix
 * run on the full vproc stack under four memory organizations:
 *
 *   1. low-order interleave, in-order issue  (the classic baseline)
 *   2. Eq. 1 XOR, in-order issue             (prior art [6])
 *   3. Eq. 1 XOR + out-of-order windows      (the paper, matched)
 *   4. Eq. 2 sectioned + out-of-order        (the paper, unmatched)
 *
 * The mix is the kind of code the introduction motivates: unit-
 * stride AXPY, a column-walk reduction over a 136-wide matrix
 * (stride family x = 3), and a stride-48 (x = 4) gather/update.
 * Results are checked against a scalar model before timing counts.
 *
 * The memory-timing comparison runs on the SweepEngine batching
 * path: every (config, kernel, strip) access of the mix becomes an
 * independent sweep job, batched per kernel across all three
 * configurations under the audit tier — each access answered by the
 * stepped oracle and by the evaluator, cross-checked bit for bit —
 * and the per-config aggregates are cross-checked against the
 * end-to-end vproc run.
 */

#include <iostream>

#include "bench_util.h"
#include "common/logging.h"
#include "common/table.h"
#include "memsys/backend_cache.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"
#include "vproc/processor.h"
#include "vproc/stripmine.h"

using namespace cfva;

namespace {

const std::uint64_t kN = 512;
const Addr kXBase = 0;
const Addr kYBase = 1 << 22;
const Addr kZBase = 1 << 23;
const Addr kMBase = 1 << 24; // 136-wide matrix
const Addr kGBase = 1 << 25; // stride-48 array

struct MixResult
{
    std::uint64_t cycles = 0;
    std::uint64_t elements = 0;
    std::uint64_t cf_accesses = 0;
    std::uint64_t accesses = 0;
    std::uint64_t chained_ops = 0;
    Cycle chain_saved = 0;

    double
    cyclesPerElement() const
    {
        return static_cast<double>(cycles)
               / static_cast<double>(elements);
    }
};

/** Runs the kernel mix on one configuration, optionally with
 *  LOAD/EXECUTE chaining enabled on the vproc stack. */
MixResult
runMix(const VectorUnitConfig &cfg, bool chaining = false)
{
    VectorProcessor proc(cfg);
    proc.enableChaining(chaining);
    const std::uint64_t l = cfg.registerLength();

    for (std::uint64_t i = 0; i < kN; ++i) {
        proc.memory().store(kXBase + i, i + 1);
        proc.memory().store(kYBase + i, 2 * i);
        proc.memory().store(kMBase + 136 * i, 3 * i);
        proc.memory().store(kGBase + 48 * i, i);
    }

    Program prog;
    // Kernel 1: z = 5*x + y (unit stride).
    for (const auto &strip : stripMine(kN, l)) {
        prog.push_back(setvl(strip.length));
        prog.push_back(vload(0, kXBase + strip.firstElement, 1));
        prog.push_back(vmuls(2, 0, 5));
        prog.push_back(vload(1, kYBase + strip.firstElement, 1));
        prog.push_back(vadd(3, 2, 1));
        prog.push_back(vstore(3, kZBase + strip.firstElement, 1));
    }
    // Kernel 2: column walk, col[i] += 7 (stride 136, x = 3).
    for (const auto &strip : stripMine(kN, l)) {
        prog.push_back(setvl(strip.length));
        prog.push_back(
            vload(0, kMBase + 136 * strip.firstElement, 136));
        prog.push_back(vadds(1, 0, 7));
        prog.push_back(
            vstore(1, kMBase + 136 * strip.firstElement, 136));
    }
    // Kernel 3: strided update, g[i] *= 3 (stride 48, x = 4).
    for (const auto &strip : stripMine(kN, l)) {
        prog.push_back(setvl(strip.length));
        prog.push_back(
            vload(0, kGBase + 48 * strip.firstElement, 48));
        prog.push_back(vmuls(1, 0, 3));
        prog.push_back(
            vstore(1, kGBase + 48 * strip.firstElement, 48));
    }
    proc.run(prog);

    // Functional check against the scalar model.
    for (std::uint64_t i = 0; i < kN; ++i) {
        if (proc.memory().load(kZBase + i) != 5 * (i + 1) + 2 * i)
            cfva_fatal("kernel 1 mismatch at i=", i);
        if (proc.memory().load(kMBase + 136 * i) != 3 * i + 7)
            cfva_fatal("kernel 2 mismatch at i=", i);
        if (proc.memory().load(kGBase + 48 * i) != 3 * i)
            cfva_fatal("kernel 3 mismatch at i=", i);
    }

    MixResult r;
    r.cycles = proc.stats().cycles;
    r.elements = proc.stats().memoryElements;
    r.cf_accesses = proc.stats().conflictFreeAccesses;
    r.accesses = proc.stats().memoryAccesses;
    r.chained_ops = proc.stats().chainedOps;
    r.chain_saved = proc.stats().chainSavedCycles;
    return r;
}

/**
 * The chaining half on the batching path: one kernel's consumed
 * loads as an audited chain-workload batch streamed through
 * runToSink, returning the total decoupled-vs-chained savings and
 * adding the audit's divergences to @p divergences.  The sum over
 * the mix's kernels must equal the end-to-end vproc difference.
 */
Cycle
chainKernel(const VectorUnitConfig &cfg, std::uint64_t stride,
            const std::vector<Addr> &bases, std::uint64_t length,
            std::uint64_t &divergences)
{
    sim::ScenarioGrid grid;
    grid.mappings = {cfg};
    grid.strides = {stride};
    grid.lengths = {length};
    grid.starts = bases;
    sim::Workload chain;
    chain.kind = sim::WorkloadKind::Chain;
    grid.workloads = {chain};

    sim::SweepOptions opts;
    opts.tier = TierPolicy::AuditBoth;
    opts.threads = 1;
    sim::ReportSink sink;
    sim::SweepRunStats stats;
    sim::SweepEngine(opts).runToSink(grid, sink, &stats);
    divergences += stats.tierAuditDivergences;
    const sim::SweepReport report = sink.take();
    cfva_assert(report.jobs() == bases.size(),
                "chain batch lost jobs");
    Cycle saved = 0;
    for (const auto &o : report.outcomes)
        saved += o.chainSaved();
    return saved;
}

/** Per-config aggregates of the sweep-batched memory accesses. */
struct SweepMix
{
    std::uint64_t accesses = 0;
    std::uint64_t cf = 0;
    Cycle latency = 0;
};

/**
 * Streaming consumer of the kernel batches: folds each outcome
 * into the per-config aggregates the tables below print, without
 * materializing a report — the bench runs on the same
 * runToSink path that production sharded sweeps use.
 */
struct MixSink final : sim::SweepSink
{
    explicit MixSink(std::vector<SweepMix> &mix) : mix_(mix) {}

    void
    consume(const sim::ScenarioOutcome &o) override
    {
        auto &m = mix_[o.mappingIndex];
        ++m.accesses;
        m.cf += o.conflictFree ? 1 : 0;
        m.latency += o.latency;
        ++seen_;
    }

    std::size_t seen() const { return seen_; }

  private:
    std::vector<SweepMix> &mix_;
    std::size_t seen_ = 0;
};

/**
 * Runs the unique memory accesses of one kernel — one stride, one
 * start address per strip — as a single streamed, audited batch
 * over all configs.  Folds the oracle's outcomes into @p mix and
 * accumulates backend-cache counters into @p cache and the audit's
 * divergences into @p divergences.
 */
void
sweepKernel(const std::vector<VectorUnitConfig> &cfgs,
            std::uint64_t stride, const std::vector<Addr> &bases,
            std::uint64_t length, std::vector<SweepMix> &mix,
            BackendCacheStats &cache, std::uint64_t &divergences)
{
    sim::ScenarioGrid grid;
    grid.mappings = cfgs;
    grid.strides = {stride};
    grid.lengths = {length};
    grid.starts = bases;

    sim::SweepOptions opts;
    opts.tier = TierPolicy::AuditBoth;
    // One worker: the kernel batches are tiny (12-36 jobs), so on
    // a many-core host hardware_concurrency workers would each
    // rebuild the per-worker backends and the cache counters the
    // audit checks would depend on the machine.
    opts.threads = 1;
    MixSink sink(mix);
    sim::SweepRunStats stats;
    sim::SweepEngine(opts).runToSink(grid, sink, &stats);
    cfva_assert(sink.seen() == cfgs.size() * bases.size(),
                "kernel batch lost jobs");
    cache.hits += stats.backendCacheHits;
    cache.misses += stats.backendCacheMisses;
    divergences += stats.tierAuditDivergences;
}

} // namespace

int
main()
{
    bench::Audit audit("E17 / end-to-end kernel mix across memory "
                       "organizations");

    // 1. Interleave baseline: matched memory with interleaving is
    //    the s = 0 degenerate XOR (module = low bits): model it as
    //    SimpleUnmatched with m = t and s chosen so only odd
    //    strides are conflict free in order.  Closest expressible
    //    config: Eq. 1 with s = t and in-order-only window, so we
    //    instead measure both "ordered" variants via sOverride and
    //    rely on the planner's fallback for out-of-window strides.
    VectorUnitConfig ordered_low;   // conflict free only near x=3
    ordered_low.kind = MemoryKind::Matched;
    ordered_low.t = 3;
    ordered_low.lambda = 7;
    ordered_low.sOverride = 3;      // window [0,3]: loses x=4

    const VectorUnitConfig matched = paperMatchedExample();
    const VectorUnitConfig sectioned = paperSectionedExample();
    const std::vector<VectorUnitConfig> cfgs = {ordered_low, matched,
                                                sectioned};

    // Batch the mix's unique memory accesses per kernel, every
    // kernel sweeping all three configurations at once.  The strip
    // bases below are shared across configs, which is only sound
    // while every config strips at the same register length.
    const std::uint64_t l = matched.registerLength();
    for (const auto &cfg : cfgs)
        cfva_assert(cfg.registerLength() == l,
                    "mix configs must share the register length");
    cfva_assert(kN % l == 0,
                "strips must be full-length for the shared-base "
                "batch to model the real accesses");
    std::vector<Addr> unit_bases, col_bases, g_bases;
    for (const auto &strip : stripMine(kN, l)) {
        unit_bases.push_back(kXBase + strip.firstElement);
        unit_bases.push_back(kYBase + strip.firstElement);
        unit_bases.push_back(kZBase + strip.firstElement);
        col_bases.push_back(kMBase + 136 * strip.firstElement);
        g_bases.push_back(kGBase + 48 * strip.firstElement);
    }
    // Every kernel batch runs under the audit tier: the oracle's
    // aggregates feed the tables below, and the evaluator must
    // agree with them bit for bit.
    std::vector<SweepMix> sweep(cfgs.size());
    BackendCacheStats cache;
    std::uint64_t divergences = 0;
    sweepKernel(cfgs, 1, unit_bases, l, sweep, cache, divergences);
    sweepKernel(cfgs, 136, col_bases, l, sweep, cache, divergences);
    sweepKernel(cfgs, 48, g_bases, l, sweep, cache, divergences);

    TextTable mem_table({"system", "memory latency", "CF accesses"});
    mem_table.row("Eq.1 s=3 (narrow window)", sweep[0].latency,
                  ratio(sweep[0].cf, sweep[0].accesses));
    mem_table.row("paper matched (s=4)", sweep[1].latency,
                  ratio(sweep[1].cf, sweep[1].accesses));
    mem_table.row("paper sectioned (M=64)", sweep[2].latency,
                  ratio(sweep[2].cf, sweep[2].accesses));
    mem_table.print(std::cout,
                    "Mix memory accesses batched on the SweepEngine "
                    "(unique accesses per config)");

    // End-to-end on the vproc stack, results verified functionally.
    TextTable table({"system", "cycles", "cycles/elem",
                     "CF accesses"});
    const MixResult r_low = runMix(ordered_low);
    const MixResult r_matched = runMix(matched);
    const MixResult r_sect = runMix(sectioned);

    table.row("Eq.1 s=3 (narrow window)", r_low.cycles,
              fixed(r_low.cyclesPerElement(), 2),
              ratio(r_low.cf_accesses, r_low.accesses));
    table.row("paper matched (s=4)", r_matched.cycles,
              fixed(r_matched.cyclesPerElement(), 2),
              ratio(r_matched.cf_accesses, r_matched.accesses));
    table.row("paper sectioned (M=64)", r_sect.cycles,
              fixed(r_sect.cyclesPerElement(), 2),
              ratio(r_sect.cf_accesses, r_sect.accesses));
    table.print(std::cout,
                "Kernel mix (AXPY + column walk + stride-48 "
                "update), n = 512, results verified");

    audit.check("every access conflict free on the paper's matched "
                "window (all three kernels in [0,4])",
                r_matched.cf_accesses == r_matched.accesses);
    audit.check("narrow window (s=3) loses the stride-48 kernel",
                r_low.cf_accesses < r_low.accesses);
    audit.check("matched window beats the narrow window end to end",
                r_matched.cycles < r_low.cycles);
    audit.check("sectioned matches the matched system here (all "
                "strides already in the matched window)",
                r_sect.cycles == r_matched.cycles);

    audit.check("evaluator bit-identical to the oracle on every "
                "kernel batch (0 audit divergences)",
                divergences == 0);
    audit.check("backend cache reused across batched scenarios "
                "(hits outnumber the per-worker builds)",
                cache.hits > cache.misses);

    // The batched path must agree with the end-to-end run.
    audit.check("sweep: matched batch fully conflict free",
                sweep[1].cf == sweep[1].accesses);
    audit.check("sweep: narrow window loses accesses in batch too",
                sweep[0].cf < sweep[0].accesses);
    audit.check("sweep: matched memory latency beats narrow",
                sweep[1].latency < sweep[0].latency);
    audit.check("sweep: sectioned memory latency equals matched",
                sweep[2].latency == sweep[1].latency);
    audit.check("sweep and vproc agree on the conflict-free "
                "fraction ordering",
                (sweep[0].cf < sweep[0].accesses)
                    == (r_low.cf_accesses < r_low.accesses));

    // The chaining half, batched: every load of the mix that an
    // arithmetic instruction consumes becomes one chain-workload
    // job (kernel 1 chains on both the x and y loads), run through
    // runToSink under the audit tier.  The batch's total savings
    // must equal the end-to-end vproc chained-vs-decoupled
    // difference exactly — the two layers share the Sec. 5F model.
    std::vector<Addr> chain1_bases;
    for (const auto &strip : stripMine(kN, l)) {
        chain1_bases.push_back(kXBase + strip.firstElement);
        chain1_bases.push_back(kYBase + strip.firstElement);
    }
    std::uint64_t chain_divergences = 0;
    Cycle chain_saved = 0;
    chain_saved +=
        chainKernel(matched, 1, chain1_bases, l, chain_divergences);
    chain_saved +=
        chainKernel(matched, 136, col_bases, l, chain_divergences);
    chain_saved +=
        chainKernel(matched, 48, g_bases, l, chain_divergences);
    const MixResult r_matched_chained = runMix(matched, true);
    std::cout << "  chaining: " << r_matched_chained.chained_ops
              << " chained ops save "
              << r_matched.cycles - r_matched_chained.cycles
              << " cycles end to end; batched chain workloads save "
              << chain_saved << "\n";
    audit.check("chain-workload batches: evaluator bit-identical "
                "to the oracle (0 audit divergences)",
                chain_divergences == 0);
    audit.check("batched chain savings equal the end-to-end vproc "
                "chained-vs-decoupled difference",
                chain_saved
                    == r_matched.cycles - r_matched_chained.cycles);
    audit.check("vproc chain accounting agrees (chainSavedCycles)",
                r_matched_chained.chain_saved
                    == r_matched.cycles - r_matched_chained.cycles);

    return audit.finish();
}
