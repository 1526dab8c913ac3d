#include "prefetch/pythia.hh"

#include <algorithm>

#include "sim/model_registry.hh"

namespace hermes
{

namespace
{

std::uint32_t
mix32(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 29;
    return static_cast<std::uint32_t>(x);
}

} // namespace

const std::array<int, 16> Pythia::kActions = {
    0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, -1, -2, -3, -6,
};

Pythia::Pythia(PythiaParams params)
    : params_(params), rng_(params.seed),
      table1_(params.tableEntries), table2_(params.tableEntries)
{
    for (auto &row : table1_)
        row.fill(0.0f);
    for (auto &row : table2_)
        row.fill(0.0f);
}

double
Pythia::qValue(std::uint32_t phi1, std::uint32_t phi2,
               unsigned action) const
{
    return 0.5 * (table1_[phi1][action] + table2_[phi2][action]);
}

void
Pythia::updateQ(std::uint32_t phi1, std::uint32_t phi2, unsigned action,
                double target)
{
    const double q = qValue(phi1, phi2, action);
    const double delta = params_.alpha * (target - q);
    table1_[phi1][action] += static_cast<float>(delta);
    table2_[phi2][action] += static_cast<float>(delta);
}

unsigned
Pythia::selectAction(std::uint32_t phi1, std::uint32_t phi2)
{
    if (rng_.chance(params_.epsilon))
        return static_cast<unsigned>(rng_.below(kActions.size()));
    // Argmax over the raw per-action float sums: qValue only halves
    // the sum (an exact, monotone scaling), so the winner — and the
    // tie-breaking toward the lower action index — is unchanged while
    // the rows are indexed once instead of per action.
    const auto &r1 = table1_[phi1];
    const auto &r2 = table2_[phi2];
    unsigned best = 0;
    float best_s = r1[0] + r2[0];
    for (unsigned a = 1; a < kActions.size(); ++a) {
        const float s = r1[a] + r2[a];
        if (s > best_s) {
            best_s = s;
            best = a;
        }
    }
    return best;
}

void
Pythia::assignReward(EqEntry &e, int reward)
{
    if (e.rewarded)
        return;
    e.rewarded = true;
    // One-step bootstrap: the value of the greedy action in the most
    // recent state stands in for the successor state's value. With the
    // default gamma = 0 the term is identically zero, so the 16-action
    // max is skipped entirely on that (hot) configuration.
    double bootstrap = 0.0;
    if (havePrev_ && params_.gamma != 0.0) {
        double best = qValue(lastPhi1_, lastPhi2_, 0);
        for (unsigned a = 1; a < kActions.size(); ++a)
            best = std::max(best, qValue(lastPhi1_, lastPhi2_, a));
        bootstrap = params_.gamma * best;
    }
    updateQ(e.phi1, e.phi2, e.action, reward + bootstrap);
}

void
Pythia::eqChainLink(EqEntry &e, std::uint64_t seq)
{
    e.nextSameLine = kNoSeq;
    const auto [it, fresh] = eqByLine_.try_emplace(e.line, EqChain{seq, seq});
    if (!fresh) {
        eq_[it->second.tail - eqBaseSeq_].nextSameLine = seq;
        it->second.tail = seq;
    }
}

void
Pythia::rewardLine(Addr line, int reward)
{
    const auto it = eqByLine_.find(line);
    if (it == eqByLine_.end())
        return;
    // The chain head is the oldest unrewarded entry for this line —
    // exactly the entry a front-to-back EQ scan would find.
    EqEntry &e = eq_[it->second.head - eqBaseSeq_];
    if (e.nextSameLine == kNoSeq)
        eqByLine_.erase(it);
    else
        it->second.head = e.nextSameLine;
    assignReward(e, reward);
}

void
Pythia::retireEqOverflow()
{
    while (eq_.size() > params_.eqSize) {
        EqEntry &e = eq_.front();
        if (!e.rewarded) {
            const int reward = kActions[e.action] == 0
                                   ? params_.rewardNoPrefetch
                                   : params_.rewardInaccurate;
            assignReward(e, reward);
            // Unrewarded entries are chain heads (they are the oldest
            // EQ entry overall); unlink before the seq goes stale.
            const auto it = eqByLine_.find(e.line);
            if (e.nextSameLine == kNoSeq)
                eqByLine_.erase(it);
            else
                it->second.head = e.nextSameLine;
        }
        eq_.pop_front();
        ++eqBaseSeq_;
    }
}

int
Pythia::pageLocalDelta(Addr line)
{
    const Addr page = line / kBlocksPerPage;
    const int offset = static_cast<int>(line % kBlocksPerPage);
    ++pageClock_;
    if (int *last = pages_.touch(page, pageClock_)) {
        const int delta = offset - *last;
        *last = offset;
        return delta;
    }
    pages_.insert(page, pageClock_) = offset;
    return 0;
}

void
Pythia::onAccess(Addr addr, Addr pc, bool hit, std::vector<Addr> &out_lines)
{
    (void)hit;
    const Addr line = lineAddr(addr);
    const int delta = pageLocalDelta(line);

    // State features (hashed-perceptron style).
    const std::uint32_t phi1 =
        mix32((pc << 7) ^ static_cast<std::uint64_t>(delta + 64)) &
        (params_.tableEntries - 1);
    const std::uint64_t offset_sig =
        (static_cast<std::uint64_t>(lastOffsets_[0]) << 18) ^
        (static_cast<std::uint64_t>(lastOffsets_[1]) << 12) ^
        (static_cast<std::uint64_t>(lastOffsets_[2]) << 6) ^
        lastOffsets_[3];
    const std::uint32_t phi2 =
        mix32(offset_sig * 0x9E3779B9ull) & (params_.tableEntries - 1);

    const unsigned action = selectAction(phi1, phi2);
    const int offset = kActions[action];

    EqEntry e;
    e.phi1 = phi1;
    e.phi2 = phi2;
    e.action = action;
    if (offset != 0) {
        const std::int64_t target = static_cast<std::int64_t>(line) + offset;
        // Stay within the page, like Pythia's address space scope.
        if (target >= 0 && static_cast<Addr>(target) / kBlocksPerPage ==
                               line / kBlocksPerPage) {
            e.line = static_cast<Addr>(target);
            out_lines.push_back(e.line);
        }
    }
    eqChainLink(e, eqBaseSeq_ + eq_.size());
    eq_.push_back(e);
    retireEqOverflow();

    // Advance program-context state.
    lastPhi1_ = phi1;
    lastPhi2_ = phi2;
    lastLine_ = line;
    havePrev_ = true;
    lastOffsets_[3] = lastOffsets_[2];
    lastOffsets_[2] = lastOffsets_[1];
    lastOffsets_[1] = lastOffsets_[0];
    lastOffsets_[0] = static_cast<std::uint8_t>(lineOffsetInPage(addr));
}

void
Pythia::onPrefetchUseful(Addr line, Addr pc)
{
    (void)pc;
    rewardLine(line, params_.rewardAccurate);
}

void
Pythia::onPrefetchLate(Addr line, Addr pc)
{
    (void)pc;
    // Accurate-but-late earns less than timely (R_AL < R_AT), steering
    // the policy toward longer prefetch distances.
    rewardLine(line, params_.rewardAccurateLate);
}

std::uint64_t
Pythia::storageBits() const
{
    // QVStore: two tables x entries x actions x 6-bit quantised Q
    // values (floats here are an implementation convenience), plus the
    // EQ (line tag 40b + features 20b + action 4b).
    return 2ull * params_.tableEntries * kActions.size() * 6 +
           static_cast<std::uint64_t>(params_.eqSize) * 64;
}

namespace
{

ModelDef
pythiaModelDef()
{
    ModelDef d;
    d.name = "pythia";
    d.kind = ModelKind::Prefetcher;
    d.doc = "reinforcement-learning prefetcher (Bera et al., the "
            "paper's baseline, Table 4)";
    d.counters = prefetcherCounterKeys();
    d.makePrefetcher = [](const ModelContext &ctx) {
        PythiaParams p;
        p.seed = ctx.seed;
        return std::make_unique<Pythia>(p);
    };
    return d;
}

const ModelRegistrar pythiaModelDefRegistrar(pythiaModelDef());

} // namespace

} // namespace hermes
