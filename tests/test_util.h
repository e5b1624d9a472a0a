/**
 * @file
 * Shared helpers for the CFVA test suite.
 */

#ifndef CFVA_TESTS_TEST_UTIL_H
#define CFVA_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>

#include "common/logging.h"
#include "sim/sweep_engine.h"

namespace cfva::test {

/**
 * RAII guard turning panic()/fatal() into std::runtime_error for
 * the duration of a test, so death paths are assertable with
 * EXPECT_THROW instead of death tests.
 */
class ScopedPanicThrow
{
  public:
    ScopedPanicThrow() { setThrowOnPanic(true); }
    ~ScopedPanicThrow() { setThrowOnPanic(false); }

    ScopedPanicThrow(const ScopedPanicThrow &) = delete;
    ScopedPanicThrow &operator=(const ScopedPanicThrow &) = delete;
};

/**
 * @p r without its Delivery records: the oracle's result as the
 * evaluator answers it, aggregates only.
 */
inline AccessResult
withoutDeliveries(AccessResult r)
{
    r.deliveries = {};
    return r;
}

/** Every port of @p r without its Delivery records. */
inline MultiPortResult
withoutDeliveries(MultiPortResult r)
{
    for (AccessResult &port : r.ports)
        port.deliveries = {};
    return r;
}

/**
 * @p report with the tier-attribution columns (theory_claimed,
 * theory_fallback, fallback_reason) cleared: the only columns in
 * which the theory tier's report may differ from the oracle's.
 */
inline sim::SweepReport
withoutAttribution(sim::SweepReport report)
{
    for (sim::ScenarioOutcome &o : report.outcomes) {
        o.theoryClaimed = 0;
        o.theoryFallback = 0;
        o.fallbackReason = FallbackReason::None;
    }
    return report;
}

} // namespace cfva::test

#endif // CFVA_TESTS_TEST_UTIL_H
