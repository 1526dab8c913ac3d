#include "trace/trace_file.hh"

#include <stdexcept>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "trace/trace_io.hh"

namespace hermes
{

std::uint64_t
writeTraceFile(const std::string &path, Workload &workload,
               std::uint64_t count, const std::string &name,
               const std::string &category)
{
    auto writer =
        openTraceWriter(path, formatForPath(path),
                        compressionForPath(path), count, name, category);
    for (std::uint64_t i = 0; i < count; ++i)
        writer->append(workload.next());
    writer->finish();
    return writer->droppedDeps();
}

FileWorkload::FileWorkload(const std::string &path) : path_(path)
{
    reader_ = std::make_unique<TraceReader>(openByteSource(path),
                                            formatForPath(path));
    const TraceMeta &meta = reader_->meta();
    if (meta.format == TraceFormat::Hrmtrace) {
        name_ = meta.name;
        category_ = meta.category;
        instrCount_ = meta.recordCount;
        return;
    }
    // ChampSim traces carry no header: scan the stream once so every
    // record is validated and the loop length is known, then rewind.
    name_ = path.substr(path.find_last_of('/') + 1);
    category_ = "CHAMPSIM";
    TraceInstr t;
    while (reader_->next(t))
        ++instrCount_;
    if (instrCount_ == 0)
        throw std::runtime_error("empty champsim trace: " + path);
    reader_->rewind();
}

TraceInstr
FileWorkload::next()
{
    if (pos_ == instrCount_) {
        reader_->rewind();
        pos_ = 0;
    }
    TraceInstr t;
    if (!reader_->next(t))
        throw std::runtime_error("trace ended early: " + path_);
    ++pos_;
    return t;
}

std::unique_ptr<Workload>
FileWorkload::clone(std::uint64_t seed_offset) const
{
    auto copy = std::unique_ptr<FileWorkload>(new FileWorkload());
    copy->path_ = path_;
    copy->name_ = name_;
    copy->category_ = category_;
    copy->instrCount_ = instrCount_;
    copy->reader_ = std::make_unique<TraceReader>(
        openByteSource(path_), formatForPath(path_));
    // Start replicas at a rotated position so multi-core copies of the
    // same file do not run in lockstep. mix64 decorrelates the start
    // from the raw offset (the old offset*9973 scheme collapsed every
    // replica onto position 0 whenever the record count divided the
    // product); the fallback keeps distinct nonzero offsets off the
    // base workload's start position.
    std::uint64_t start = 0;
    if (seed_offset > 0 && instrCount_ > 1) {
        start = mix64(seed_offset) % instrCount_;
        if (start == 0)
            start = 1 + (seed_offset - 1) % (instrCount_ - 1);
    }
    TraceInstr t;
    for (std::uint64_t i = 0; i < start; ++i)
        static_cast<void>(copy->reader_->next(t));
    copy->pos_ = start;
    return copy;
}

void
FileWorkload::saveState(StateWriter &w) const
{
    w.section("WFIL");
    w.str(name_);
    w.u64(instrCount_);
    w.u64(pos_);
    reader_->saveState(w);
}

void
FileWorkload::loadState(StateReader &r)
{
    r.section("WFIL");
    const std::string name = r.str();
    const std::uint64_t count = r.u64();
    const std::uint64_t target = r.u64();
    if (name != name_ || count != instrCount_ || target > instrCount_)
        throw StateError("checkpointed trace '" + name +
                         "' does not match workload '" + name_ + "'");
    reader_->loadState(r, target);
    pos_ = target;
}

std::size_t
FileWorkload::residentBytes() const
{
    return sizeof(*this) + reader_->residentBytes();
}

} // namespace hermes
