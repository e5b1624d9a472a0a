#include "theory/conflict_solver.h"

namespace cfva {

bool
ConflictSolver::solveOrStep(const MemConfig &cfg,
                            const std::vector<Request> &stream,
                            const ModuleId *mods, AccessResult &result)
{
    const bool memoizable = stream.size() <= OutcomeMemo::kMaxLen;
    if (memoizable) {
        if (memo_.lookup(stream.size(), mods, cfg.modules())) {
            ++stats_.memoHits;
            applyEmitSummary(memo_.cachedSummary(), result);
            return true;
        }
        ++stats_.memoMisses;
    }

    if (!stepper_.run(cfg, stream, mods, false, result)) {
        stats_.steppedCycles += stepper_.steppedCycles();
        return false;
    }
    ++stats_.collapseHits;
    stats_.collapsePrefixCycles += stepper_.steppedCycles();
    if (memoizable)
        memo_.store(stream.size(), stepper_.summary());
    return true;
}

bool
ConflictSolver::solve(const MemConfig &cfg,
                      const std::vector<Request> &stream,
                      const ModuleId *mods, DeliveryArena *,
                      AccessResult &result, bool)
{
    if (solveOrStep(cfg, stream, mods, result))
        return true;
    // Not a claim: drop the stepped answer.
    result = AccessResult{};
    return false;
}

MultiPortResult
ConflictSolver::stepPorts(const MemConfig &cfg,
                          const std::vector<std::vector<Request>> &streams,
                          const std::vector<std::vector<ModuleId>> &mods)
{
    MultiPortResult result = stepper_.runPorts(cfg, streams, mods, false);
    stats_.steppedCycles += stepper_.steppedCycles();
    return result;
}

void
ConflictSolver::beginPortCheck(ModuleId moduleCount)
{
    if (owner_.size() < moduleCount) {
        owner_.resize(moduleCount, 0);
        ownerEpoch_.resize(moduleCount, 0);
    }
    ++epoch_;
}

bool
ConflictSolver::portDisjoint(std::size_t length,
                             const ModuleId *mods, unsigned port)
{
    for (std::size_t i = 0; i < length; ++i) {
        const ModuleId mod = mods[i];
        if (ownerEpoch_[mod] == epoch_) {
            if (owner_[mod] != port)
                return false;
            continue;
        }
        ownerEpoch_[mod] = epoch_;
        owner_[mod] = port;
    }
    return true;
}

} // namespace cfva
