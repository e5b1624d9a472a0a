#include "theory/conflict_solver.h"

#include "memsys/backend.h"
#include "memsys/memory_system.h"

namespace cfva {

namespace {

/** An empty delivery buffer for @p length records, recycled from
 *  @p arena when one is given. */
std::vector<Delivery>
deliveryBuffer(DeliveryArena *arena, std::size_t length)
{
    std::vector<Delivery> buf =
        arena ? arena->acquire(length) : std::vector<Delivery>{};
    buf.reserve(length);
    return buf;
}

} // namespace

bool
ConflictSolver::solve(const MemConfig &cfg,
                      const std::vector<Request> &stream,
                      const ModuleId *mods, DeliveryArena *arena,
                      AccessResult &result, bool materialize)
{
    if (materialize)
        result.deliveries = deliveryBuffer(arena, stream.size());
    if (tryFastPath(cfg, stream, mods, stepper_, memo_, stats_, result,
                    materialize, Recurrence::JumpOrAbandon))
        return true;
    // No closed form (aperiodic sequence, too short for a
    // recurrence, or the snapshot budget ran out).  Hand the
    // acquired buffer back; the caller's fallback acquires its own.
    if (materialize && arena)
        arena->release(std::move(result.deliveries));
    result.deliveries = std::vector<Delivery>{};
    return false;
}

bool
ConflictSolver::solveOrStep(const MemConfig &cfg,
                            const std::vector<Request> &stream,
                            const ModuleId *mods, DeliveryArena *arena,
                            AccessResult &result, bool materialize)
{
    if (materialize)
        result.deliveries = deliveryBuffer(arena, stream.size());
    return tryFastPath(cfg, stream, mods, stepper_, memo_, stats_,
                       result, materialize, Recurrence::JumpOrFinish);
}

MultiPortResult
ConflictSolver::stepPorts(const MemConfig &cfg,
                          const std::vector<std::vector<Request>> &streams,
                          const std::vector<std::vector<ModuleId>> &mods,
                          DeliveryArena *arena, bool materialize)
{
    MultiPortResult result =
        stepper_.runPorts(cfg, streams, mods, materialize, arena);
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
