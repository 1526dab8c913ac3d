#include "hermes/hermes.hh"

namespace hermes
{

HermesController::HermesController(HermesParams params,
                                   OffChipPredictor *predictor,
                                   DramController *dram)
    : params_(params), predictor_(predictor), dram_(dram)
{
}

bool
HermesController::predictLoad(Addr pc, Addr vaddr, PredMeta &meta)
{
    if (predictor_ == nullptr) {
        meta = PredMeta{};
        return false;
    }
    return predictor_->predict(pc, vaddr, meta);
}

void
HermesController::onLoadIssued(const MemRequest &req, const PredMeta &meta,
                               Cycle now)
{
    if (!params_.issueEnabled || !meta.valid || !meta.predictedOffChip)
        return;
    MemRequest hreq = req;
    hreq.type = AccessType::Hermes;
    pending_.push_back(PendingIssue{hreq, now + params_.issueLatency});
}

void
HermesController::drainPending(Cycle now)
{
    while (!pending_.empty() && pending_.front().issueAt <= now) {
        const MemRequest req = pending_.front().req;
        pending_.pop_front();
        ++stats_.requestsScheduled;
        if (dram_ != nullptr)
            dram_->addHermes(req);
    }
}

void
HermesController::onLoadComplete(Addr pc, Addr vaddr, const PredMeta &meta,
                                 bool went_off_chip, bool served_by_hermes)
{
    if (!meta.valid)
        return;
    if (meta.predictedOffChip && went_off_chip)
        ++stats_.pred.truePositives;
    else if (meta.predictedOffChip && !went_off_chip)
        ++stats_.pred.falsePositives;
    else if (!meta.predictedOffChip && went_off_chip)
        ++stats_.pred.falseNegatives;
    else
        ++stats_.pred.trueNegatives;
    if (served_by_hermes)
        ++stats_.loadsServedByHermes;
    if (predictor_ != nullptr)
        predictor_->train(pc, vaddr, meta, went_off_chip);
}

} // namespace hermes
