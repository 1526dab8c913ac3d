#include "trace/synthetic.hh"

#include <cassert>

namespace hermes
{

namespace
{

/** Code region base; PC slots are 4B apart like real instructions. */
constexpr Addr kPcBase = 0x400000;

/** Inner-loop trip count: the loop branch is not taken once per trip. */
constexpr std::uint64_t kLoopTripCount = 64;

/** Each logical array gets its own 4GB-aligned data region. */
constexpr Addr
regionBase(unsigned region_id)
{
    return (static_cast<Addr>(region_id) + 1) << 32;
}

/**
 * Full-period LCG step modulo 2^k: multiplier ≡ 1 (mod 4), odd
 * increment. Used as a fixed pointer-graph successor function so chases
 * revisit nodes in a stable order.
 */
std::uint64_t
lcgStep(std::uint64_t node, std::uint64_t mask)
{
    return (node * 2891336453ull + 12345ull) & mask;
}

/** Round down to a power of two (at least 1). */
std::uint64_t
floorPow2(std::uint64_t x)
{
    std::uint64_t p = 1;
    while (p * 2 <= x)
        p *= 2;
    return p;
}

} // namespace

SyntheticWorkload::SyntheticWorkload(SyntheticParams params)
    : params_(std::move(params)), rng_(params_.seed)
{
    assert(params_.footprintBytes >= kPageSize);
    assert(params_.chaseChains >= 1 && params_.chaseChains <= 4);
    if (params_.loadMlp > 0)
        sweepLoadRing_.assign(params_.loadMlp, 0);
    for (unsigned c = 0; c < params_.chaseChains; ++c)
        chaseNode_[c] = mix64(params_.seed + c) &
                        (floorPow2(params_.footprintBytes / kBlockSize) - 1);
}

TraceInstr
SyntheticWorkload::next()
{
    if (buffer_.empty())
        refill();
    TraceInstr instr = buffer_.front();
    buffer_.pop_front();
    return instr;
}

std::unique_ptr<Workload>
SyntheticWorkload::clone(std::uint64_t seed_offset) const
{
    SyntheticParams p = params_;
    p.seed = params_.seed + seed_offset * 0x5851F42D4C957F2Dull;
    return std::make_unique<SyntheticWorkload>(std::move(p));
}

void
SyntheticWorkload::emitAlu(unsigned count)
{
    for (unsigned i = 0; i < count; ++i) {
        TraceInstr t;
        t.pc = kPcBase + 4 * (200 + (emitted_ % 16));
        t.kind = InstrKind::Alu;
        buffer_.push_back(t);
        ++emitted_;
    }
}

void
SyntheticWorkload::emitLoad(unsigned pc_slot, Addr vaddr, std::uint32_t dep)
{
    TraceInstr t;
    t.pc = kPcBase + 4 * pc_slot;
    t.kind = InstrKind::Load;
    t.vaddr = vaddr;
    t.depDistance = dep;
    buffer_.push_back(t);
    ++emitted_;
}

void
SyntheticWorkload::emitSweepLoad(unsigned pc_slot, Addr vaddr)
{
    std::uint32_t dep = 0;
    if (params_.loadMlp > 0) {
        const std::size_t slot = sweepLoadCount_ % params_.loadMlp;
        if (sweepLoadCount_ >= params_.loadMlp)
            dep = emitted_ - sweepLoadRing_[slot];
        sweepLoadRing_[slot] = emitted_;
        ++sweepLoadCount_;
    }
    emitLoad(pc_slot, vaddr, dep);
}

void
SyntheticWorkload::emitStore(unsigned pc_slot, Addr vaddr)
{
    TraceInstr t;
    t.pc = kPcBase + 4 * pc_slot;
    t.kind = InstrKind::Store;
    t.vaddr = vaddr;
    buffer_.push_back(t);
    ++emitted_;
}

void
SyntheticWorkload::emitBranch(unsigned pc_slot, bool taken)
{
    TraceInstr t;
    t.pc = kPcBase + 4 * pc_slot;
    t.kind = InstrKind::Branch;
    t.branchTaken = taken;
    buffer_.push_back(t);
    ++emitted_;
}

void
SyntheticWorkload::emitBlockTail()
{
    if (rng_.chance(params_.dataBranchFraction))
        emitBranch(190, rng_.chance(params_.dataBranchBias));
    ++loopCounter_;
    // Inner-loop branch: taken except at trip-count boundaries, so the
    // branch predictor sees the highly regular behaviour of real loops.
    const bool exit_loop = (loopCounter_ % kLoopTripCount) == 0;
    emitBranch(191, !exit_loop);
    if (exit_loop)
        emitBranch(192, true); // outer loop back-edge
}

Addr
SyntheticWorkload::hotAddr()
{
    return regionBase(9) + rng_.below(params_.hotBytes);
}

void
SyntheticWorkload::refill()
{
    switch (params_.pattern) {
      case Pattern::Stream:
        refillStream();
        break;
      case Pattern::Stride:
        refillStride();
        break;
      case Pattern::PointerChase:
        refillPointerChase();
        break;
      case Pattern::GraphGather:
        refillGraphGather();
        break;
      case Pattern::HashProbe:
        refillHashProbe();
        break;
      case Pattern::MixedCompute:
        refillMixedCompute();
        break;
      case Pattern::StencilReuse:
        refillStencilReuse();
        break;
    }
    emitBlockTail();
}

void
SyntheticWorkload::refillStream()
{
    const Addr base = regionBase(0);
    emitAlu(params_.aluPerMemop);
    emitSweepLoad(10, base + sweepPos_);
    if (rng_.chance(params_.storeFraction))
        emitStore(11, regionBase(1) + sweepPos_);
    sweepPos_ += params_.strideBytes;
    if (sweepPos_ >= params_.footprintBytes)
        sweepPos_ = 0;
}

void
SyntheticWorkload::refillStride()
{
    const Addr base = regionBase(0);
    emitAlu(params_.aluPerMemop);
    emitSweepLoad(20, base + sweepPos_);
    if (rng_.chance(params_.storeFraction))
        emitStore(21, base + sweepPos_);
    sweepPos_ += params_.strideBytes;
    if (sweepPos_ >= params_.footprintBytes)
        sweepPos_ = sweepPos_ % params_.strideBytes;
}

void
SyntheticWorkload::refillPointerChase()
{
    const std::uint64_t nodes = floorPow2(params_.footprintBytes /
                                          kBlockSize);
    const Addr base = regionBase(0);
    for (unsigned c = 0; c < params_.chaseChains; ++c) {
        emitAlu(params_.aluPerMemop + 2);
        chaseNode_[c] = lcgStep(chaseNode_[c], nodes - 1);
        // Dependence on the previous chase load of this chain
        // serialises the chain like a real linked-list traversal.
        std::uint32_t dep = 0;
        if (lastChaseEmit_[c] != 0)
            dep = emitted_ - lastChaseEmit_[c];
        lastChaseEmit_[c] = emitted_;
        emitLoad(30 + c, base + chaseNode_[c] * kBlockSize, dep);
        if (rng_.chance(params_.hitLoadFraction))
            emitLoad(38, hotAddr());
        if (rng_.chance(params_.storeFraction))
            emitStore(39, hotAddr());
    }
}

void
SyntheticWorkload::refillGraphGather()
{
    const std::uint64_t vcount =
        std::max<std::uint64_t>(params_.footprintBytes /
                                params_.graphDataStride, 1024);
    const Addr offsets = regionBase(0);
    const Addr edges = regionBase(1);
    const Addr vdata = regionBase(2);

    // Visit the next vertex: sequential offset-array load (cache
    // friendly) ...
    emitAlu(params_.aluPerMemop);
    emitLoad(40, offsets + vertex_ * 8);
    const unsigned degree =
        1 + static_cast<unsigned>(mix64(params_.seed ^ vertex_) %
                                  (2 * params_.graphAvgDegree));
    // ... then scan its edge list (sequential) and gather destination
    // vertex data. Community locality keeps a hot vertex subset
    // LLC-resident; cold gathers (PC slot 42) go off-chip, so the
    // gather PC correlates strongly with off-chip behaviour.
    const std::uint64_t hot_vcount = std::max<std::uint64_t>(
        std::min<std::uint64_t>(vcount / 8, (16ull << 10) /
                                            params_.graphDataStride),
        128);
    for (unsigned e = 0; e < degree; ++e) {
        emitLoad(41, edges + edgeCursor_ * 4);
        const std::uint64_t h = mix64((vertex_ << 20) ^ e ^ params_.seed);
        std::uint64_t dst;
        if (rng_.chance(params_.gatherHotFraction))
            dst = h % hot_vcount;
        else
            dst = h % vcount;
        emitSweepLoad(42, vdata + dst * params_.graphDataStride);
        if (rng_.chance(params_.storeFraction))
            emitStore(43, vdata + dst * params_.graphDataStride);
        emitAlu(params_.aluPerMemop / 2 + 1);
        ++edgeCursor_;
    }
    vertex_ = (vertex_ + 1) % vcount;
}

void
SyntheticWorkload::refillHashProbe()
{
    const std::uint64_t buckets = params_.footprintBytes / kBlockSize;
    const Addr table = regionBase(0);
    const Addr hot = regionBase(9);
    const Addr warm = regionBase(3);

    emitAlu(params_.aluPerMemop);
    // Bucket probe: a hot part of the table stays cache-resident
    // (skewed key popularity); the long tail goes off-chip.
    const std::uint64_t hot_buckets = std::max<std::uint64_t>(
        std::min<std::uint64_t>(buckets / 16, 512), 128);
    const std::uint64_t bucket =
        rng_.chance(params_.probeTableHotFraction)
            ? rng_.below(hot_buckets)
            : rng_.below(buckets);
    emitSweepLoad(50, table + bucket * kBlockSize);
    // Bucket overflow chain: next sequential line, sometimes.
    if (rng_.chance(0.3))
        emitLoad(51, table + (bucket + 1) * kBlockSize);
    emitAlu(params_.aluPerMemop / 2);
    // Payload: mostly a hot region (cache-resident), sometimes a warm
    // LLC-sized region, giving the mid-accuracy regime HMP struggles in.
    if (rng_.chance(params_.probeHotFraction)) {
        emitLoad(52, hot + rng_.below(params_.hotBytes));
    } else {
        emitLoad(53, warm + rng_.below(params_.warmBytes));
    }
    if (rng_.chance(params_.storeFraction))
        emitStore(54, hot + rng_.below(params_.hotBytes));
}

void
SyntheticWorkload::refillMixedCompute()
{
    const Addr l1_arr = regionBase(4);  // 16KB: L1-resident
    const Addr l2_arr = regionBase(5);  // 256KB: L2-resident
    const Addr llc_arr = regionBase(6); // 1.5MB: LLC-resident
    const Addr big_arr = regionBase(8); // 6MB: fits only large LLCs
    const Addr cold = regionBase(0);    // footprint: DRAM-resident

    emitAlu(params_.aluPerMemop + 2);
    const double r = rng_.uniform();
    const double cold_p = params_.mixColdFraction;
    if (r < cold_p) {
        emitSweepLoad(60, cold + rng_.below(params_.footprintBytes));
    } else if (r < cold_p + 0.05) {
        // Working set sized between the default and the largest LLCs
        // swept in Fig. 20: misses at 3MB/core, hits at 12MB+.
        emitSweepLoad(66, big_arr + rng_.below(6ull << 20));
    } else if (r < cold_p + 0.11) {
        emitLoad(61, llc_arr + rng_.below(3ull << 19));
    } else if (r < cold_p + 0.35) {
        emitLoad(62, l2_arr + rng_.below(256ull << 10));
    } else {
        emitLoad(63, l1_arr + rng_.below(16ull << 10));
    }
    // A slow prefetch-friendly sweep interleaved with the random mix.
    if (rng_.chance(0.10)) {
        emitLoad(64, regionBase(7) + sweepPos_);
        sweepPos_ = (sweepPos_ + 16) % params_.footprintBytes;
    }
    if (rng_.chance(params_.storeFraction))
        emitStore(65, l2_arr + rng_.below(256ull << 10));
}

void
SyntheticWorkload::refillStencilReuse()
{
    const Addr grid = regionBase(0);
    const Addr out = regionBase(1);
    const std::uint64_t rows =
        std::max<std::uint64_t>(params_.footprintBytes / params_.rowBytes,
                                4);

    emitAlu(params_.aluPerMemop);
    const Addr cur = grid + row_ * params_.rowBytes + sweepPos_;
    // Current row: first touch of each line misses but prefetches well.
    emitSweepLoad(70, cur);
    // Row above: touched one row-sweep ago -> hits in L2/LLC when two
    // rows fit, giving the partially-resident reuse PARSEC exhibits.
    emitLoad(71, cur - params_.rowBytes +
                     (row_ == 0 ? params_.rowBytes * rows : 0));
    // Row below: leading accesses, miss + prefetchable.
    emitLoad(72, cur + params_.rowBytes -
                     (row_ + 1 == rows ? params_.rowBytes * rows : 0));
    emitStore(73, out + row_ * params_.rowBytes + sweepPos_);

    sweepPos_ += params_.strideBytes;
    if (sweepPos_ >= params_.rowBytes) {
        sweepPos_ = 0;
        row_ = (row_ + 1) % rows;
    }
}

} // namespace hermes
