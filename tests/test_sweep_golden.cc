/**
 * @file
 * Golden-file test for the cfva_sweep report schema.
 *
 * The CSV/JSON emitted by SweepReport is consumed downstream
 * (bench_choice_of_s, bench_workload_mix, and whatever the user
 * pipes `cfva_sweep --csv/--json` into), so its column set, field
 * names, ordering, and number formatting must not drift silently.
 * This test renders a small fixed grid and compares byte-for-byte
 * against checked-in golden files.
 *
 * To regenerate after an INTENTIONAL schema change:
 *
 *     CFVA_UPDATE_GOLDEN=1 ./build/test_sweep_golden
 *
 * then review the diff of tests/golden/ like any other API change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "test_util.h"

#ifndef CFVA_TESTS_DIR
#error "CFVA_TESTS_DIR must point at the tests/ source directory"
#endif

namespace cfva::sim {
namespace {

/** The frozen grid: small, deterministic, no randomized starts. */
ScenarioGrid
goldenGrid()
{
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 4; // L = 16, M = T = 4, s = 2

    VectorUnitConfig sectioned;
    sectioned.kind = MemoryKind::Sectioned;
    sectioned.t = 2;
    sectioned.lambda = 4; // M = 16, y = 5

    // A dynamic prior-art mapping so the retune workload's relayout
    // columns freeze non-zero values.
    VectorUnitConfig dynamic;
    dynamic.kind = MemoryKind::DynamicTuned;
    dynamic.t = 2;
    dynamic.lambda = 4;
    dynamic.dynamicTune = 0;

    ScenarioGrid grid;
    grid.mappings = {matched, sectioned, dynamic};
    grid.strides = {1, 2, 6};
    grid.lengths = {0, 8};
    grid.starts = {0, 5};
    grid.randomStarts = 0;
    // Port and port-mix axes: a clone mix and a mixed-stride /
    // descending mix, at one and two ports, freezing the multi-port
    // report columns alongside the single-port ones.
    grid.ports = {1, 2};
    grid.portMixes = {PortMix{}, PortMix{{1, -3}}};
    // Workload axis: every program shape, freezing the chain /
    // retune / stencil columns.
    Workload chain;
    chain.kind = WorkloadKind::Chain;
    chain.execLatency = 2;
    Workload retune;
    retune.kind = WorkloadKind::Retune;
    retune.retunePeriod = 2;
    Workload stencil;
    stencil.kind = WorkloadKind::Stencil;
    grid.workloads = {Workload{}, chain, retune, stencil};
    return grid;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(CFVA_TESTS_DIR) + "/golden/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open golden file " << path
                    << " (regenerate with CFVA_UPDATE_GOLDEN=1)";
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Points at the first diverging line for a readable failure. */
void
expectSameText(const std::string &actual, const std::string &golden,
               const std::string &path)
{
    if (actual == golden)
        return;
    std::istringstream a(actual), g(golden);
    std::string la, lg;
    std::size_t line = 1;
    while (std::getline(a, la) && std::getline(g, lg)) {
        ASSERT_EQ(la, lg) << path << " diverges at line " << line
                          << " (regenerate with CFVA_UPDATE_GOLDEN=1 "
                             "if the change is intentional)";
        ++line;
    }
    FAIL() << path << ": line count differs from golden (actual "
           << actual.size() << " bytes, golden " << golden.size()
           << " bytes)";
}

void
checkGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (std::getenv("CFVA_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden " << name << " regenerated";
    }
    expectSameText(actual, readFile(path), path);
}

TEST(SweepGolden, CsvSchemaIsFrozen)
{
    const SweepReport report = SweepEngine().run(goldenGrid());
    std::ostringstream os;
    report.writeCsv(os);
    checkGolden("sweep_schema.csv", os.str());
}

TEST(SweepGolden, JsonSchemaIsFrozen)
{
    const SweepReport report = SweepEngine().run(goldenGrid());
    std::ostringstream os;
    report.writeJson(os);
    checkGolden("sweep_schema.json", os.str());
}

} // namespace
} // namespace cfva::sim
