#include "sim/scenario.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/stats.h"
#include "common/stride.h"

namespace cfva::sim {

namespace {

/**
 * Fails when a job plans a descending port whose block passes
 * 2^64 - 1: planPortStream walks port p down from base + (L - 1)|S|
 * to base = a1 (+ tap * S for a stencil tap) + p * portStagger, taken
 * mod 2^64.  Every job is a point of the grid's cross product, so
 * checking the longest access at every start, stride, access shape
 * and descending port is exact; a random start is any address below
 * randomStartBound.  The strides are validated first, so |S| fits.
 * @p stencil and @p retune say whether those workloads are on the
 * grid.
 */
void
checkDescendingBlocks(const ScenarioGrid &grid, unsigned maxPorts,
                      bool stencil, bool retune)
{
    constexpr Addr kTop = ~Addr{0};
    // (tap, phase) of each access shape: the start moves by tap * S
    // (the stencil's taps) and the stride is phase * S (phase 2 is
    // the retune's second phase).
    constexpr std::pair<unsigned, unsigned> kShapes[] = {
        {0, 1}, {1, 1}, {2, 1}, {0, 2}};
    std::uint64_t longest = 0;
    for (const auto &cfg : grid.mappings) {
        for (std::uint64_t len : grid.lengths)
            longest =
                std::max(longest, len ? len : cfg.registerLength());
    }
    for (const auto &mix : grid.portMixes) {
        for (unsigned p = 0; p < maxPorts && longest > 1; ++p) {
            const std::int64_t mult = mix.multiplierFor(p);
            if (mult > 0)
                continue;
            for (std::uint64_t s : grid.strides) {
                for (const auto &[tap, phase] : kShapes) {
                    if ((tap > 0 && !stencil) || (phase > 1 && !retune))
                        continue;
                    const std::uint64_t mag =
                        s * phase * static_cast<std::uint64_t>(-mult);
                    const bool fits = mag <= kTop / (longest - 1);
                    const Addr limit =
                        fits ? kTop - (longest - 1) * mag : 0;
                    const Addr shift = tap * s + p * grid.portStagger;
                    // The highest base of the starts lo..hi: a range
                    // of bases that wraps reaches kTop.
                    const auto check = [&](Addr lo, Addr hi) {
                        const Addr base = hi + shift < lo + shift
                                              ? kTop
                                              : hi + shift;
                        if (fits && base <= limit)
                            return;
                        cfva_fatal(
                            "port ", p, " (--port-mix multiplier ",
                            mult, ") walks ", longest,
                            " elements of stride -", mag,
                            phase > 1 ? " (retune's second phase)" : "",
                            " down to its base ",
                            lo == hi ? "--starts " : "random start <= ",
                            hi,
                            tap ? " + " + std::to_string(tap) + " x "
                                      + std::to_string(s)
                                      + " (stencil tap)"
                                : "",
                            " + ", p, " x --port-stagger ",
                            grid.portStagger,
                            " (mod 2^64), so its block passes address "
                            "2^64 - 1; lower --starts, --port-stagger "
                            "or --strides");
                    };
                    for (Addr a1 : grid.starts)
                        check(a1, a1);
                    if (grid.randomStarts > 0)
                        check(0, grid.randomStartBound - 1);
                }
            }
        }
    }
}

} // namespace

std::string
PortMix::label() const
{
    if (multipliers.empty())
        return "1";
    // '|'-joined so the label embeds cleanly in unquoted CSV cells.
    std::ostringstream os;
    for (std::size_t i = 0; i < multipliers.size(); ++i)
        os << (i ? "|" : "") << multipliers[i];
    return os.str();
}

void
PortMix::validate() const
{
    for (std::int64_t m : multipliers) {
        cfva_assert(m != 0, "port-mix multiplier 0 is not a vector "
                    "access");
        const std::int64_t mag = m < 0 ? -m : m;
        cfva_assert(mag <= kMaxMultiplier,
                    "port-mix multiplier out of range: ", m);
    }
}

void
ScenarioGrid::addFamilies(unsigned xLo, unsigned xHi,
                          const std::vector<std::uint64_t> &sigmas)
{
    cfva_assert(xLo <= xHi, "empty family range: ", xLo, "..", xHi);
    for (unsigned x = xLo; x <= xHi; ++x) {
        for (std::uint64_t sigma : sigmas) {
            cfva_assert(sigma % 2 == 1,
                        "family multiplier must be odd: ", sigma);
            cfva_assert(x < 63 && sigma <= (~std::uint64_t{0} >> x),
                        "stride ", sigma, " * 2^", x,
                        " overflows the stride range");
            strides.push_back(Stride::fromFamily(sigma, x).value());
        }
    }
}

std::size_t
ScenarioGrid::jobCount() const
{
    const std::size_t axes[] = {mappings.size(),  strides.size(),
                                lengths.size(),
                                starts.size() + randomStarts,
                                workloads.size(), ports.size(),
                                portMixes.size()};
    if (std::find(std::begin(axes), std::end(axes), 0) != std::end(axes))
        return 0;
    std::size_t jobs = 1;
    for (std::size_t n : axes) {
        if (__builtin_mul_overflow(jobs, n, &jobs)) {
            cfva_fatal("the grid has more than 2^64 - 1 jobs: ",
                       axes[0], " mappings x ", axes[1], " strides x ",
                       axes[2], " lengths x ", axes[3],
                       " starts (--starts and --random-starts) x ",
                       axes[4], " workloads x ", axes[5], " ports x ",
                       axes[6], " port mixes");
        }
    }
    return jobs;
}

void
ScenarioGrid::validate() const
{
    for (const auto &cfg : mappings)
        cfg.validate();
    for (std::uint64_t s : strides)
        cfva_assert(s != 0, "stride 0 is not a vector access");
    for (std::uint64_t len : lengths) {
        // The event stepper indexes stream positions in 32 bits.
        if (len > kMaxLength) {
            cfva_fatal("--lengths ", len, " is longer than the ",
                       kMaxLength, " (2^32 - 1) elements an access "
                       "may have");
        }
    }
    for (unsigned p : ports)
        cfva_assert(p >= 1, "port count must be positive");
    cfva_assert(!portMixes.empty(),
                "the port-mix axis needs at least one mix (the "
                "default-constructed PortMix clones the stride)");
    for (const auto &mix : portMixes)
        mix.validate();
    cfva_assert(!workloads.empty(),
                "the workload axis needs at least one workload (the "
                "default-constructed Workload is a single access)");
    bool retune = false;
    bool stencil = false;
    for (const auto &wl : workloads) {
        wl.validate();
        // Program totals add the execute latency to cycle counts;
        // the --lengths bound keeps those sums from wrapping.
        if (wl.execLatency > kMaxLength) {
            cfva_fatal("--exec-latency ", wl.execLatency,
                       " is above the ", kMaxLength,
                       " (2^32 - 1) cycles an execute step may take");
        }
        retune = retune || wl.kind == WorkloadKind::Retune;
        stencil = stencil || wl.kind == WorkloadKind::Stencil;
        if (wl.kind == WorkloadKind::Retune
            || wl.kind == WorkloadKind::Stencil) {
            // Both derive shifted/doubled strides from the base.
            for (std::uint64_t s : strides) {
                if (s > (~std::uint64_t{0} >> 2)) {
                    cfva_fatal("--workloads ", to_string(wl.kind),
                               " shifts or doubles the base stride, "
                               "so --strides (or --families/--sigmas) "
                               "must be at most 2^62 - 1, got ", s);
                }
            }
        }
    }

    // Each port plans its base stride times its --port-mix
    // multiplier as a signed stride, and Retune's second phase plans
    // twice the base: every such stride must fit in 2^63 - 1.
    const unsigned maxPorts =
        ports.empty() ? 0 : *std::max_element(ports.begin(), ports.end());
    std::uint64_t mag = 1; // largest |multiplier| any port runs
    for (const auto &mix : portMixes) {
        for (std::size_t p = 0;
             p < maxPorts && p < mix.multipliers.size(); ++p) {
            const std::int64_t m = mix.multipliers[p];
            mag = std::max<std::uint64_t>(mag, m < 0 ? -m : m);
        }
    }
    const std::uint64_t phases = retune ? 2 : 1;
    for (std::uint64_t s : strides) {
        if (s > (~std::uint64_t{0} >> 1) / (phases * mag)) {
            cfva_fatal("--strides (or --families/--sigmas) ", s,
                       retune ? " times 2 for --workloads retune" : "",
                       " times --port-mix multiplier ", mag,
                       " exceeds the largest signed stride 2^63 - 1");
        }
    }
    checkDescendingBlocks(*this, maxPorts, stencil, retune);
}

std::vector<Scenario>
ScenarioGrid::expand() const
{
    validate();
    std::vector<Scenario> jobs;
    jobs.reserve(jobCount());

    // One sequential pass; the Rng is consumed in expansion order,
    // so the same (grid, seed) always yields the same job list.
    Rng rng(seed);
    for (std::size_t mi = 0; mi < mappings.size(); ++mi) {
        for (std::uint64_t stride : strides) {
            for (std::uint64_t len : lengths) {
                const std::uint64_t resolved =
                    len ? len : mappings[mi].registerLength();
                for (std::size_t wi = 0; wi < workloads.size();
                     ++wi) {
                    for (unsigned p : ports) {
                        for (std::size_t xi = 0;
                             xi < portMixes.size(); ++xi) {
                            for (Addr a1 : starts) {
                                jobs.push_back({jobs.size(), mi, xi,
                                                wi, stride, resolved,
                                                a1, p});
                            }
                            for (unsigned r = 0; r < randomStarts;
                                 ++r) {
                                jobs.push_back(
                                    {jobs.size(), mi, xi, wi, stride,
                                     resolved,
                                     rng.below(randomStartBound),
                                     p});
                            }
                        }
                    }
                }
            }
        }
    }
    return jobs;
}

} // namespace cfva::sim
