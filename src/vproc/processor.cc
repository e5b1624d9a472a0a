#include "vproc/processor.h"

#include "common/logging.h"

namespace cfva {

VectorProcessor::VectorProcessor(const VectorUnitConfig &cfg,
                                 unsigned registers)
    : unit_(cfg), memory_(unit_.mapping()),
      regs_(registers, cfg.registerLength(),
            RegisterFileOrg::RandomAccess),
      vl_(cfg.registerLength())
{
}

AccessResult
VectorProcessor::execMemory(const AccessPlan &plan)
{
    // Through the unified backend: the cache reuses the oracle
    // across instructions, the arena recycles delivery buffers —
    // the sweep engine's exact path.
    AccessResult result = unit_.execute(plan, &arena_, &backends_);

    stats_.memoryAccesses += 1;
    stats_.memoryElements += vl_;
    stats_.memoryCycles += result.latency;
    stats_.cycles += result.latency;
    stats_.stallCycles += result.stallCycles;
    if (result.conflictFree)
        ++stats_.conflictFreeAccesses;
    return result;
}

void
VectorProcessor::execLoad(const Instruction &inst)
{
    const Stride stride(inst.stride);
    AccessResult result =
        execMemory(unit_.plan(inst.base, stride, vl_));

    // Write the register in delivery order — the order the return
    // bus actually produced elements.  Out-of-order delivery is why
    // the file must be random access (Sec. 5D).
    regs_.beginWrite(inst.vd);
    for (const auto &d : result.deliveries)
        regs_.write(inst.vd, d.element, memory_.load(d.addr));

    // Open a chain window for the next instruction (Sec. 5F): only
    // a conflict-free load has a deterministic delivery schedule,
    // and the chain timing comes from that schedule.
    chainSrc_ = {};
    if (chaining_ && result.conflictFree) {
        chainSrc_.valid = true;
        chainSrc_.reg = inst.vd;
        chainSrc_.costs = chainCosts(result);
    }
    arena_.release(std::move(result.deliveries));
}

void
VectorProcessor::execStore(const Instruction &inst)
{
    const Stride stride(inst.stride);
    AccessResult result =
        execMemory(unit_.plan(inst.base, stride, vl_));

    for (const auto &d : result.deliveries)
        memory_.store(d.addr, regs_.read(inst.vs1, d.element));

    chainSrc_.valid = false; // a store breaks the chain window
    arena_.release(std::move(result.deliveries));
}

void
VectorProcessor::execArith(const Instruction &inst)
{
    for (std::uint64_t i = 0; i < vl_; ++i) {
        const std::uint64_t a = regs_.read(inst.vs1, i);
        std::uint64_t r = 0;
        switch (inst.op) {
          case Opcode::VAdd:
            r = a + regs_.read(inst.vs2, i);
            break;
          case Opcode::VSub:
            r = a - regs_.read(inst.vs2, i);
            break;
          case Opcode::VMul:
            r = a * regs_.read(inst.vs2, i);
            break;
          case Opcode::VAddS:
            r = a + inst.scalar;
            break;
          case Opcode::VMulS:
            r = a * inst.scalar;
            break;
          default:
            cfva_panic("non-arithmetic opcode in execArith");
        }
        if (i == 0)
            regs_.beginWrite(inst.vd);
        regs_.write(inst.vd, i, r);
    }

    // Timing: one element per cycle through the execute pipeline —
    // vl cycles decoupled.  If this instruction chains on the
    // immediately preceding conflict-free LOAD, the cost is the
    // Sec. 5F chained tail derived from that load's delivery
    // stream (chainCosts): one cycle at unit pipeline depth.
    const bool uses_two_sources =
        inst.op == Opcode::VAdd || inst.op == Opcode::VSub
        || inst.op == Opcode::VMul;
    const bool chained = chainSrc_.valid
        && (inst.vs1 == chainSrc_.reg
            || (uses_two_sources && inst.vs2 == chainSrc_.reg));
    if (chained) {
        const Cycle cost = chainSrc_.costs.chained;
        stats_.executeCycles += cost;
        stats_.cycles += cost;
        stats_.chainSavedCycles += chainSrc_.costs.saved();
        ++stats_.chainedOps;
    } else {
        stats_.executeCycles += vl_;
        stats_.cycles += vl_;
    }
    chainSrc_.valid = false;
}

void
VectorProcessor::run(const Program &program)
{
    for (const auto &inst : program) {
        ++stats_.instructions;
        switch (inst.op) {
          case Opcode::VLoad:
            execLoad(inst);
            break;
          case Opcode::VStore:
            execStore(inst);
            break;
          case Opcode::SetVl:
            cfva_assert(inst.scalar >= 1
                        && inst.scalar <= regs_.length(),
                        "vl ", inst.scalar, " out of range [1, ",
                        regs_.length(), "]");
            vl_ = inst.scalar;
            ++stats_.cycles;
            chainSrc_.valid = false;
            break;
          default:
            execArith(inst);
            break;
        }
    }
}

} // namespace cfva
