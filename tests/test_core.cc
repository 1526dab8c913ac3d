// Tests for the out-of-order core model: retirement, load blocking,
// dependences, branch misprediction penalties, queue limits and stall
// attribution.

#include <gtest/gtest.h>

#include "core/ooo_core.hh"
#include "test_helpers.hh"

namespace hermes
{
namespace
{

using test::FakeMemory;

/** Finite script followed by an infinite ALU filler. */
class ScriptedWorkload : public Workload
{
  public:
    explicit ScriptedWorkload(std::vector<TraceInstr> script)
        : script_(std::move(script))
    {
    }

    const std::string &name() const override { return name_; }
    const std::string &category() const override { return name_; }

    TraceInstr
    next() override
    {
        if (pos_ < script_.size())
            return script_[pos_++];
        TraceInstr t;
        t.pc = 0x400800;
        t.kind = InstrKind::Alu;
        return t;
    }

    std::unique_ptr<Workload>
    clone(std::uint64_t) const override
    {
        return std::make_unique<ScriptedWorkload>(script_);
    }

  private:
    std::vector<TraceInstr> script_;
    std::size_t pos_ = 0;
    std::string name_ = "scripted";
};

TraceInstr
alu()
{
    TraceInstr t;
    t.pc = 0x400000;
    t.kind = InstrKind::Alu;
    return t;
}

TraceInstr
load(Addr addr, std::uint32_t dep = 0)
{
    TraceInstr t;
    t.pc = 0x400010;
    t.kind = InstrKind::Load;
    t.vaddr = addr;
    t.depDistance = dep;
    return t;
}

TraceInstr
store(Addr addr)
{
    TraceInstr t;
    t.pc = 0x400020;
    t.kind = InstrKind::Store;
    t.vaddr = addr;
    return t;
}

TraceInstr
branch(bool taken, Addr pc = 0x400030)
{
    TraceInstr t;
    t.pc = pc;
    t.kind = InstrKind::Branch;
    t.branchTaken = taken;
    return t;
}

struct CoreHarness
{
    explicit CoreHarness(std::vector<TraceInstr> script,
                         CoreParams params = CoreParams{},
                         Cycle mem_latency = 40)
        : memory(mem_latency), workload(std::move(script)),
          core(0, params, &workload, &memory, nullptr)
    {
        memory.setClient(&core);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            ++now;
            memory.tick(now);
            core.tick(now);
        }
    }

    FakeMemory memory;
    ScriptedWorkload workload;
    OooCore core;
    Cycle now = 0;
};

TEST(Core, AluIpcApproachesWidth)
{
    CoreHarness h({});
    h.run(2000);
    // 6-wide fetch/retire of pure ALU should sustain IPC near 6.
    EXPECT_GT(h.core.stats().ipc(), 4.5);
}

TEST(Core, LoadBlocksRetirementUntilDataReturns)
{
    std::vector<TraceInstr> script = {load(0x1000)};
    for (int i = 0; i < 100; ++i)
        script.push_back(alu());
    CoreHarness h(script, CoreParams{}, 100);
    h.run(400);
    const auto &s = h.core.stats();
    EXPECT_EQ(s.loadsRetired, 1u);
    EXPECT_EQ(s.loadsOffChip, 1u); // FakeMemory serves from "DRAM"
    EXPECT_EQ(s.offChipBlocking, 1u);
    EXPECT_GT(s.stallCyclesOffChip, 50u);
}

TEST(Core, IndependentLoadsOverlap)
{
    std::vector<TraceInstr> script;
    for (int i = 0; i < 16; ++i)
        script.push_back(load(0x1000 + i * 0x100));
    CoreHarness h(script, CoreParams{}, 100);
    h.run(100 + 150);
    // All 16 loads retire in roughly one memory latency, not 16.
    EXPECT_EQ(h.core.stats().loadsRetired, 16u);
}

TEST(Core, DependentLoadsSerialise)
{
    // Chain of 4 loads, each depending on the previous one.
    std::vector<TraceInstr> script;
    script.push_back(load(0x1000));
    for (int i = 1; i < 4; ++i)
        script.push_back(load(0x1000 + i * 0x100, 1));
    CoreHarness h(script, CoreParams{}, 100);
    h.run(250);
    EXPECT_LT(h.core.stats().loadsRetired, 4u); // not done yet
    h.run(250);
    EXPECT_EQ(h.core.stats().loadsRetired, 4u); // ~4 x latency total
}

TEST(Core, BranchMispredictStallsFetch)
{
    // Pseudo-random branch outcomes are inherently unpredictable;
    // throughput must fall well below the all-ALU rate.
    std::vector<TraceInstr> script;
    std::uint64_t lfsr = 0xACE1u;
    for (int i = 0; i < 600; ++i) {
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xB400u);
        script.push_back(branch((lfsr & 4) != 0));
        script.push_back(alu());
    }
    CoreHarness h(script);
    h.run(800);
    EXPECT_GT(h.core.stats().branchMispredicts, 20u);
    EXPECT_LT(h.core.stats().ipc(), 3.0);
}

TEST(Core, PredictableBranchesLearnt)
{
    std::vector<TraceInstr> script;
    for (int i = 0; i < 2000; ++i) {
        script.push_back(branch(true));
        script.push_back(alu());
    }
    CoreHarness h(script);
    h.run(1500);
    const auto &b = h.core.branchStats();
    ASSERT_GT(b.lookups, 500u);
    EXPECT_LT(static_cast<double>(b.mispredicts) /
                  static_cast<double>(b.lookups),
              0.05);
}

TEST(Core, StoresCommitToWriteQueue)
{
    std::vector<TraceInstr> script = {store(0x2000), alu(), alu()};
    CoreHarness h(script);
    h.run(50);
    EXPECT_EQ(h.core.stats().storesRetired, 1u);
    ASSERT_EQ(h.memory.writes.size(), 1u);
    EXPECT_EQ(h.memory.writes[0].line(), lineAddr(0x2000));
    EXPECT_EQ(static_cast<int>(h.memory.writes[0].type),
              static_cast<int>(AccessType::Rfo));
}

TEST(Core, LqLimitThrottlesDispatch)
{
    CoreParams p;
    p.lqSize = 2;
    std::vector<TraceInstr> script;
    for (int i = 0; i < 8; ++i)
        script.push_back(load(0x1000 + i * 0x100));
    CoreHarness h(script, p, 200);
    h.run(150);
    // Only 2 loads can be in flight; none retired yet and memory has
    // seen at most 2 reads.
    EXPECT_LE(h.memory.reads.size(), 2u);
    h.run(2000);
    EXPECT_EQ(h.core.stats().loadsRetired, 8u);
}

TEST(Core, RobWrapsCorrectly)
{
    CoreParams p;
    p.robSize = 32;
    std::vector<TraceInstr> script;
    for (int i = 0; i < 300; ++i)
        script.push_back(i % 7 == 0 ? load(0x1000 + i * 64) : alu());
    CoreHarness h(script, p, 20);
    h.run(3000);
    EXPECT_GE(h.core.stats().instrsRetired, 300u);
}

TEST(Core, StallAttributionSeparatesOffChip)
{
    // One load (off-chip via FakeMemory) followed by ALUs: all the
    // retirement stall must be attributed to the off-chip bucket.
    std::vector<TraceInstr> script = {load(0x3000)};
    for (int i = 0; i < 50; ++i)
        script.push_back(alu());
    CoreHarness h(script, CoreParams{}, 80);
    h.run(300);
    const auto &s = h.core.stats();
    EXPECT_GT(s.stallCyclesOffChip, 0u);
    EXPECT_EQ(s.stallCyclesOtherLoad, 0u);
}

/** Parameterized: IPC scales sensibly with fetch width. */
class CoreWidthTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoreWidthTest, AluIpcTracksWidth)
{
    CoreParams p;
    p.fetchWidth = GetParam();
    p.retireWidth = GetParam();
    CoreHarness h({}, p);
    h.run(2000);
    EXPECT_GT(h.core.stats().ipc(), 0.75 * GetParam());
    EXPECT_LE(h.core.stats().ipc(), GetParam() + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Widths, CoreWidthTest,
                         ::testing::Values(1u, 2u, 4u, 6u, 8u));

} // namespace
} // namespace hermes
