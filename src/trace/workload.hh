#pragma once

/**
 * @file
 * Trace-instruction record and the workload (trace source) interface.
 *
 * The simulator is trace-driven in the style of ChampSim: a workload is
 * an infinite, deterministic stream of decoded instructions. The paper's
 * SPEC/PARSEC/Ligra/CVP championship traces are replaced by synthetic
 * generators that reproduce the same *memory-access structure* (see
 * docs/traces.md, "The evaluation suite"); the core/memory models
 * consume both identically.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "common/types.hh"

namespace hermes
{

class StateReader;
class StateWriter;

/** Instruction classes the core model distinguishes. */
enum class InstrKind : std::uint8_t
{
    Alu,    ///< Non-memory, non-branch instruction (1-cycle execute)
    Load,   ///< Memory read; occupies an LQ entry
    Store,  ///< Memory write; occupies an SQ entry
    Branch, ///< Conditional branch with a recorded outcome
};

/**
 * One decoded instruction from a trace.
 *
 * @c depDistance expresses a data dependence on an older instruction:
 * 0 means no modelled dependence, k means this instruction's execution
 * (for loads: address generation) must wait for the instruction k
 * positions earlier in program order to complete. Synthetic generators
 * use this to serialise pointer-chasing loads.
 */
struct TraceInstr
{
    // Field order packs the record into 24 bytes (wide members first);
    // the ROB embeds one per entry, so its size is hot-path real estate.
    Addr pc = 0;
    Addr vaddr = 0;            ///< Byte address for Load/Store
    std::uint32_t depDistance = 0;
    InstrKind kind = InstrKind::Alu;
    bool branchTaken = false;  ///< Outcome for Branch
    /**
     * Always zero; never read, never serialized. It fills what would be
     * 2 bytes of tail padding. With padding, GCC copies the 22 meaningful
     * bytes as a 16-byte move plus an 8-byte move at offset 14, and that
     * unaligned load straddles the separate field stores the workload
     * just made, so it cannot be forwarded from them
     * (docs/performance.md, "Hot-path data-structure rules").
     */
    std::uint16_t reserved = 0;
};

static_assert(sizeof(TraceInstr) == 24, "TraceInstr must stay 24 bytes");
static_assert(std::has_unique_object_representations_v<TraceInstr>,
              "TraceInstr must have no implicit padding");

/**
 * Infinite instruction stream. Implementations must be deterministic
 * given their construction parameters.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Stable trace name, e.g. "ligra.pagerank_like.1". */
    virtual const std::string &name() const = 0;

    /** Suite category, e.g. "Ligra" (used for per-category averages). */
    virtual const std::string &category() const = 0;

    /** Produce the next instruction in program order. */
    virtual TraceInstr next() = 0;

    /**
     * Fresh, rewound copy of this workload. @p seed_offset perturbs the
     * RNG seed so multi-core mixes of the same trace do not run in
     * lockstep.
     */
    virtual std::unique_ptr<Workload> clone(std::uint64_t seed_offset) const
        = 0;

    /**
     * True when saveState/loadState round-trip this workload's cursor
     * exactly (sim/simulator.hh warmup checkpoints). Defaults to false:
     * a workload that does not opt in simply disables checkpointing for
     * runs that use it — never a wrong checkpoint.
     */
    virtual bool checkpointable() const { return false; }

    /** Serialize the stream cursor (only if checkpointable()). */
    virtual void saveState(StateWriter &) const {}

    /** Restore a cursor written by saveState on an identical workload. */
    virtual void loadState(StateReader &) {}
};

} // namespace hermes
