#pragma once

/**
 * @file
 * Shared fakes for unit-testing components in isolation: a scriptable
 * backing memory (fixed-latency MemDevice), a recording client that
 * captures returned responses, and an in-memory ByteSink for
 * checkpoint bytes.
 */

#include <algorithm>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "cache/mem_iface.hh"
#include "common/state_io.hh"
#include "trace/trace_io.hh"

namespace hermes::test
{

/** Records every response it receives. */
class RecordingClient : public MemClient
{
  public:
    void returnData(const MemRequest &req) override
    {
        responses.push_back(req);
    }

    bool
    sawLine(Addr line) const
    {
        for (const auto &r : responses)
            if (r.line() == line)
                return true;
        return false;
    }

    std::vector<MemRequest> responses;
};

/**
 * Fixed-latency backing store standing in for everything below the
 * component under test. Responds to reads after @c latency cycles via
 * the wired client; counts writes.
 */
class FakeMemory : public MemDevice
{
  public:
    explicit FakeMemory(Cycle latency = 50) : latency_(latency) {}

    void setClient(MemClient *client) { client_ = client; }

    bool
    addRead(const MemRequest &req) override
    {
        if (rejectReads)
            return false;
        reads.push_back(req);
        pending_.push_back({req, now_ + latency_});
        return true;
    }

    bool
    addWrite(const MemRequest &req) override
    {
        writes.push_back(req);
        return true;
    }

    void
    tick(Cycle now) override
    {
        now_ = now;
        while (!pending_.empty() && pending_.front().second <= now) {
            MemRequest resp = pending_.front().first;
            pending_.pop_front();
            resp.servedFrom = MemLevel::Dram;
            resp.cycleMcArrive = now;
            if (client_ != nullptr)
                client_->returnData(resp);
        }
    }

    bool rejectReads = false;
    std::vector<MemRequest> reads;
    std::vector<MemRequest> writes;

  private:
    Cycle latency_;
    Cycle now_ = 0;
    MemClient *client_ = nullptr;
    std::deque<std::pair<MemRequest, Cycle>> pending_;
};

/** In-memory ByteSink so checkpoint bytes can be inspected/mutated. */
class VectorSink : public ByteSink
{
  public:
    void write(const void *data, std::size_t size) override
    {
        const auto *p = static_cast<const char *>(data);
        bytes.insert(bytes.end(), p, p + size);
    }
    void finish() override {}
    const std::string &path() const override { return path_; }

    std::vector<char> bytes;

  private:
    std::string path_ = "<memory>";
};

/**
 * In-memory ByteSource over a byte vector. A nonzero @p max_read caps
 * every read() at that many bytes, as a pipe or socket may.
 */
class VectorSource : public ByteSource
{
  public:
    explicit VectorSource(std::vector<char> bytes, std::size_t max_read = 0)
        : bytes_(std::move(bytes)), maxRead_(max_read)
    {
    }

    std::size_t read(void *data, std::size_t size) override
    {
        std::size_t n = std::min(size, bytes_.size() - pos_);
        if (maxRead_ != 0)
            n = std::min(n, maxRead_);
        std::memcpy(data, bytes_.data() + pos_, n);
        pos_ += n;
        return n;
    }
    void rewind() override { pos_ = 0; }
    const std::string &path() const override { return path_; }
    Compression compression() const override { return Compression::None; }
    std::int64_t sizeHint() const override
    {
        return static_cast<std::int64_t>(bytes_.size());
    }

  private:
    std::vector<char> bytes_;
    std::size_t maxRead_;
    std::size_t pos_ = 0;
    std::string path_ = "<memory>";
};

/**
 * Recompute the trailing checksum of a sealed checkpoint whose payload
 * a test edited, so only the restore's own checks can reject the edit.
 */
inline void
resealChecksum(std::vector<char> &bytes)
{
    Xxh64 sum;
    sum.update(bytes.data(), bytes.size() - 8);
    const std::uint64_t value = sum.value();
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + i] = static_cast<char>(value >> (8 * i));
}

/** Make a load request to a byte address. */
inline MemRequest
loadReq(Addr address, Addr pc = 0x400000, int core = 0,
        std::uint64_t instr = 1)
{
    MemRequest r;
    r.address = address;
    r.pc = pc;
    r.coreId = core;
    r.type = AccessType::Load;
    r.instrId = instr;
    return r;
}

} // namespace hermes::test
