/**
 * @file
 * The decoupled vector processor of the paper's Figure 1.
 *
 * A memory-access module (the VectorAccessUnit) moves whole vector
 * registers between the multi-module memory and the register file;
 * the execute unit operates register-to-register at one element per
 * cycle.  Timing is decoupled by default — a LOADed register is
 * consumed only when complete — matching the paper's default mode
 * of operation; with chaining enabled, arithmetic timing is driven
 * by the Sec. 5F model (core/chaining.h) fed from the load's
 * simulated delivery stream.
 *
 * Every LOAD/STORE steps the memory system's oracle
 * (memsys/memory_system.h) through VectorAccessUnit::execute,
 * reusing one oracle per processor via a private BackendCache and
 * recycling delivery buffers through a DeliveryArena — the same
 * path the sweep engine's simulation tier runs, so program timings
 * are identical to the sweep's `single`/`chain` workload outcomes.
 */

#ifndef CFVA_VPROC_PROCESSOR_H
#define CFVA_VPROC_PROCESSOR_H

#include <cstdint>
#include <vector>

#include "core/access_unit.h"
#include "core/chaining.h"
#include "core/register_file.h"
#include "memsys/backend_cache.h"
#include "vproc/data_memory.h"
#include "vproc/isa.h"

namespace cfva {

/** Aggregate timing of one program run. */
struct ExecStats
{
    Cycle cycles = 0;               //!< total simulated cycles
    std::uint64_t instructions = 0;
    std::uint64_t memoryAccesses = 0;   //!< LOAD + STORE count
    std::uint64_t memoryElements = 0;   //!< elements moved
    Cycle memoryCycles = 0;         //!< cycles in LOAD/STORE
    Cycle executeCycles = 0;        //!< cycles in arithmetic
    std::uint64_t conflictFreeAccesses = 0;
    std::uint64_t stallCycles = 0;  //!< memory-conflict stalls
    std::uint64_t chainedOps = 0;   //!< arithmetic chained on a LOAD
    Cycle chainSavedCycles = 0;     //!< cycles chaining saved
};

/** Straight-line vector processor with decoupled memory access. */
class VectorProcessor
{
  public:
    /**
     * @param cfg        memory/access-unit configuration
     * @param registers  vector registers in the file
     */
    explicit VectorProcessor(const VectorUnitConfig &cfg,
                             unsigned registers = 8);

    /** Runs a program to completion; stats accumulate. */
    void run(const Program &program);

    /**
     * Enables LOAD/EXECUTE chaining (paper Sec. 5F): an arithmetic
     * instruction that immediately follows the LOAD producing one
     * of its sources overlaps with the load's deterministic
     * delivery stream, costing the chainCosts() tail (one cycle at
     * unit pipeline depth) instead of vl.  Only conflict-free loads
     * chain — exactly the paper's restriction — because only they
     * deliver one element per cycle in a schedule known at issue
     * time.
     */
    void enableChaining(bool on) { chaining_ = on; }
    bool chainingEnabled() const { return chaining_; }

    /** Functional data memory (pre-load inputs, read back results). */
    DataMemory &memory() { return memory_; }
    const DataMemory &memory() const { return memory_; }

    const VectorRegisterFile &registers() const { return regs_; }
    const VectorAccessUnit &accessUnit() const { return unit_; }
    const ExecStats &stats() const { return stats_; }

    /** Active vector length (set by SetVl; defaults to L). */
    std::uint64_t vl() const { return vl_; }

  private:
    void execLoad(const Instruction &inst);
    void execStore(const Instruction &inst);
    void execArith(const Instruction &inst);

    /** Runs one LOAD/STORE plan through the cached backend and
     *  accounts the shared timing stats; the caller consumes the
     *  deliveries and releases the buffer back to arena_. */
    AccessResult execMemory(const AccessPlan &plan);

    VectorAccessUnit unit_;
    DataMemory memory_;
    VectorRegisterFile regs_;
    std::uint64_t vl_;
    ExecStats stats_;

    // The sweep's hot path: one oracle per mapping reused across
    // every instruction, delivery buffers recycled across
    // accesses.  Declared after unit_ —
    // cached backends reference its mapping and are destroyed
    // first.
    DeliveryArena arena_;
    BackendCache backends_;

    bool chaining_ = false;

    /** Chain window: the destination of an immediately preceding
     *  conflict-free LOAD plus the Sec. 5F costs derived from its
     *  delivery stream, or none. */
    struct ChainSource
    {
        bool valid = false;
        unsigned reg = 0;
        ChainCosts costs;
    };
    ChainSource chainSrc_;
};

} // namespace cfva

#endif // CFVA_VPROC_PROCESSOR_H
