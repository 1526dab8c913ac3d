#pragma once

/**
 * @file
 * Synthetic workload generators.
 *
 * Each generator emits an infinite, deterministic instruction stream
 * whose memory-access structure mimics one class of the paper's
 * workloads (docs/traces.md, "The workload corpus"): streaming sweeps,
 * strided sweeps, dependent pointer chases, graph-analytics gathers
 * (Ligra-like), server-style hash probes (CVP-like), multi-working-set
 * compute mixes (SPEC-like) and stencil sweeps with cross-row reuse
 * (PARSEC-like).
 *
 * Address-space layout: every logical array lives in its own 4GB-aligned
 * region, so arrays never alias in the cache index bits.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ring.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "trace/workload.hh"

namespace hermes
{

/** Access-pattern families implemented by SyntheticWorkload. */
enum class Pattern : std::uint8_t
{
    Stream,       ///< Dense sequential sweep over a huge array
    Stride,       ///< Constant-stride sweep (stride > one element)
    PointerChase, ///< Serialised dependent chase over an LCG permutation
    GraphGather,  ///< Sequential edge scan + random vertex-data gather
    HashProbe,    ///< Random bucket probes with a hot payload region
    MixedCompute, ///< Weighted accesses over L1/L2/LLC/DRAM working sets
    StencilReuse, ///< Row sweep reading neighbour rows (temporal reuse)
};

/** Construction parameters for a synthetic workload. */
struct SyntheticParams
{
    std::string name = "synthetic";
    std::string category = "MISC";
    Pattern pattern = Pattern::Stream;
    std::uint64_t seed = 1;

    /** Size of the main (DRAM-resident) data structure. */
    std::uint64_t footprintBytes = 64ull << 20;
    /** Element step for Stream/Stride sweeps. */
    unsigned strideBytes = 4;
    /** ALU instructions emitted around each memory operation. */
    unsigned aluPerMemop = 4;
    /** Probability that a block also writes (emits a store); a
     * StencilReuse block always stores. */
    double storeFraction = 0.10;
    /** Probability that a block carries a data-dependent branch. */
    double dataBranchFraction = 0.10;
    /** Taken-probability (predictability) of data-dependent branches. */
    double dataBranchBias = 0.85;
    /**
     * Limit on load-level parallelism for regular sweeps: each sweep
     * load depends on the one @c loadMlp loads earlier, bounding the
     * number of concurrent misses like loop-carried dependences do in
     * real kernels. 0 disables the limit.
     */
    unsigned loadMlp = 0;

    /** PointerChase: number of independent chains interleaved. */
    unsigned chaseChains = 1;
    /** PointerChase: extra always-hitting loads per block. */
    double hitLoadFraction = 0.4;
    /** Size of the small always-hitting (hot) region. */
    std::uint64_t hotBytes = 16ull << 10;

    /** GraphGather: average out-degree of a vertex. */
    unsigned graphAvgDegree = 8;
    /** GraphGather: bytes of data gathered per destination vertex. */
    unsigned graphDataStride = 64;
    /** GraphGather: fraction of gathers hitting a hot vertex subset
     * (community locality; the subset is LLC-resident). */
    double gatherHotFraction = 0.75;

    /** HashProbe: probability a payload access goes to the hot region. */
    double probeHotFraction = 0.75;
    /** HashProbe: fraction of probes into a hot (cache-resident) part
     * of the table. */
    double probeTableHotFraction = 0.6;
    /** HashProbe: size of the medium (LLC-resident) payload region. */
    std::uint64_t warmBytes = 1ull << 20;

    /** MixedCompute: probability of touching the DRAM-resident array. */
    double mixColdFraction = 0.25;

    /** StencilReuse: bytes per grid row. */
    std::uint64_t rowBytes = 1ull << 20;
};

/**
 * Deterministic synthetic instruction stream implementing the patterns
 * above. See the .cc file for the per-pattern block shapes.
 */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(SyntheticParams params);

    const std::string &name() const override { return params_.name; }
    const std::string &category() const override { return params_.category; }
    TraceInstr next() override;
    std::unique_ptr<Workload> clone(std::uint64_t seed_offset) const override;

    const SyntheticParams &params() const { return params_; }

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &w) const override
    {
        w.section("WSYN");
        const Rng::State rs = rng_.state();
        w.u64(rs.s0);
        w.u64(rs.s1);
        w.u64(buffer_.size());
        for (std::size_t i = 0; i < buffer_.size(); ++i) {
            const TraceInstr &t = buffer_.at(i);
            w.u64(t.pc);
            w.u8(static_cast<std::uint8_t>(t.kind));
            w.u64(t.vaddr);
            w.b(t.branchTaken);
            w.u32(t.depDistance);
        }
        w.u32(emitted_);
        w.u64(sweepPos_);
        w.u64(loopCounter_);
        for (std::uint64_t v : chaseNode_)
            w.u64(v);
        for (std::uint32_t v : lastChaseEmit_)
            w.u32(v);
        w.u64(vertex_);
        w.u64(sweepLoadRing_.size());
        for (std::uint32_t v : sweepLoadRing_)
            w.u32(v);
        w.u64(sweepLoadCount_);
        w.u64(edgeCursor_);
        w.u64(row_);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("WSYN");
        Rng::State rs;
        rs.s0 = r.u64();
        rs.s1 = r.u64();
        rng_.setState(rs);
        buffer_.clear();
        const std::size_t n = r.count(1u << 20);
        for (std::size_t i = 0; i < n; ++i) {
            TraceInstr t;
            t.pc = r.u64();
            t.kind = static_cast<InstrKind>(r.u8());
            t.vaddr = r.u64();
            t.branchTaken = r.b();
            t.depDistance = r.u32();
            buffer_.push_back(t);
        }
        emitted_ = r.u32();
        sweepPos_ = r.u64();
        loopCounter_ = r.u64();
        for (std::uint64_t &v : chaseNode_)
            v = r.u64();
        for (std::uint32_t &v : lastChaseEmit_)
            v = r.u32();
        vertex_ = r.u64();
        const std::size_t m = r.count(1u << 20);
        sweepLoadRing_.assign(m, 0);
        for (std::uint32_t &v : sweepLoadRing_)
            v = r.u32();
        sweepLoadCount_ = r.u64();
        edgeCursor_ = r.u64();
        row_ = r.u64();
    }

  private:
    /** Generate one loop-body block of instructions into the buffer. */
    void refill();

    void emitAlu(unsigned count);
    void emitLoad(unsigned pc_slot, Addr vaddr, std::uint32_t dep = 0);
    /** Emit a sweep load with the loadMlp dependence chain applied. */
    void emitSweepLoad(unsigned pc_slot, Addr vaddr);
    void emitStore(unsigned pc_slot, Addr vaddr);
    void emitBranch(unsigned pc_slot, bool taken);
    /** Loop branch + optional data-dependent branch at block end. */
    void emitBlockTail();

    void refillStream();
    void refillStride();
    void refillPointerChase();
    void refillGraphGather();
    void refillHashProbe();
    void refillMixedCompute();
    void refillStencilReuse();

    Addr hotAddr();

    SyntheticParams params_;
    Rng rng_;
    Ring<TraceInstr> buffer_;

    /** Emission cursor used to assign dependence distances. */
    std::uint32_t emitted_ = 0;

    // Pattern state
    std::uint64_t sweepPos_ = 0;       ///< Stream/Stride/Stencil cursor
    std::uint64_t loopCounter_ = 0;    ///< Inner-loop trip counter
    std::uint64_t chaseNode_[4] = {};  ///< PointerChase chain positions
    std::uint32_t lastChaseEmit_[4] = {}; ///< emitted_ at last chase load
    std::uint64_t vertex_ = 0;         ///< GraphGather vertex cursor
    std::vector<std::uint32_t> sweepLoadRing_; ///< loadMlp dep ring
    std::uint64_t sweepLoadCount_ = 0;
    std::uint64_t edgeCursor_ = 0;     ///< GraphGather global edge index
    std::uint64_t row_ = 0;            ///< StencilReuse current row
};

} // namespace hermes
