/**
 * @file
 * Umbrella header: the whole CFVA public API in one include.
 *
 * Downstream users who just want to plan and simulate vector
 * accesses need only
 *
 *     #include "cfva/cfva.h"
 *
 * Individual headers remain includable for finer-grained builds.
 */

#ifndef CFVA_CFVA_H
#define CFVA_CFVA_H

// Foundations.
#include "common/bits.h"
#include "common/stats.h"
#include "common/stride.h"
#include "common/table.h"

// Address mappings and analysis.
#include "mapping/analysis.h"
#include "mapping/dynamic.h"
#include "mapping/factory.h"
#include "mapping/gf2_linear.h"
#include "mapping/interleave.h"
#include "mapping/mapping.h"
#include "mapping/prand.h"
#include "mapping/skew.h"
#include "mapping/xor_matched.h"
#include "mapping/xor_sectioned.h"

// Memory system: the stepped oracle and the event stepper.
#include "memsys/backend.h"
#include "memsys/backend_cache.h"
#include "memsys/event_driven.h"
#include "memsys/event_queue.h"
#include "memsys/memory_system.h"

// Orderings and address-generation hardware.
#include "access/agu.h"
#include "access/hw_cost.h"
#include "access/ordering.h"
#include "access/short_vector.h"

// Analytic theory.
#include "theory/theory.h"

// Core public API.
#include "core/access_unit.h"
#include "core/chaining.h"
#include "core/config.h"
#include "core/register_file.h"

// Vector-processor substrate.
#include "vproc/data_memory.h"
#include "vproc/isa.h"
#include "vproc/processor.h"
#include "vproc/stripmine.h"

// Batch scenario sweeps.
#include "sim/merge.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"

#endif // CFVA_CFVA_H
