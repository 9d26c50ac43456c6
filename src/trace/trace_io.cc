/**
 * @file
 * Trace file I/O implementation.
 *
 * writeTrace() is the one v1 encoder and TraceBatchReader the one
 * decoder (readTrace() is a loop over it). Both directions go through
 * a fixed-size chunk buffer: one fwrite/fread per chunk instead of
 * one syscall-sized call per 24-byte record.
 */

#include "trace/trace_io.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <system_error>

namespace pifetch {

namespace {

/** On-disk record layout (packed, little-endian host assumed). */
struct DiskRecord
{
    std::uint64_t pc;
    std::uint64_t target;
    std::uint8_t kind;
    std::uint8_t trapLevel;
    std::uint8_t taken;
    std::uint8_t pad[5];
};

static_assert(sizeof(DiskRecord) == 24, "unexpected disk record size");

struct Header
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint64_t count;
};

/** Records buffered per fwrite/fread call (32K records = 768 KiB). */
constexpr std::size_t chunkRecords = 32 * 1024;

/**
 * Bytes past the header in @p f, or -1 if unknowable (not a regular
 * file). fstat rather than fseek/ftell: st_size is 64-bit where the
 * platform supports large files, so multi-GB traces stay readable.
 */
long long
payloadBytes(std::FILE *f)
{
    struct stat st;
    if (fstat(fileno(f), &st) != 0 || !S_ISREG(st.st_mode))
        return -1;
    const long long size = static_cast<long long>(st.st_size);
    if (size < static_cast<long long>(sizeof(Header)))
        return -1;
    return size - static_cast<long long>(sizeof(Header));
}

} // namespace

bool
writeTrace(const std::string &path, const std::vector<RetiredInstr> &records)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const Header h{traceMagic, traceVersion, records.size()};
    bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
    std::vector<DiskRecord> chunk;
    for (std::size_t at = 0; ok && at < records.size();
         at += chunkRecords) {
        const std::size_t n =
            std::min(chunkRecords, records.size() - at);
        chunk.assign(n, DiskRecord{});
        for (std::size_t i = 0; i < n; ++i) {
            const RetiredInstr &r = records[at + i];
            chunk[i].pc = r.pc;
            chunk[i].target = r.target;
            chunk[i].kind = static_cast<std::uint8_t>(r.kind);
            chunk[i].trapLevel = r.trapLevel;
            chunk[i].taken = r.taken ? 1 : 0;
        }
        ok = std::fwrite(chunk.data(), sizeof(DiskRecord), n, f) == n;
    }
    ok = ok && std::fflush(f) == 0;
    return std::fclose(f) == 0 && ok;
}

bool
readTrace(const std::string &path, std::vector<RetiredInstr> &records)
{
    records.clear();
    TraceBatchReader reader;
    if (!reader.open(path))
        return false;
    // Size up front only when the count is bounded by real bytes on
    // disk; otherwise grow with the records that actually decode.
    if (reader.countChecked())
        records.reserve(reader.count());
    RecordBatch batch;
    while (reader.next(batch)) {
        for (std::uint32_t i = 0; i < batch.size; ++i)
            records.push_back(batch.get(i));
    }
    if (reader.failed()) {
        records.clear();
        return false;
    }
    return true;
}

void
TraceBatchReader::fail(const std::string &msg)
{
    if (!failed_) {
        failed_ = true;
        error_ = path_ + ": " + msg;
    }
    close();
}

bool
TraceBatchReader::open(const std::string &path)
{
    close();
    path_ = path;
    error_.clear();
    failed_ = false;
    countChecked_ = false;
    total_ = 0;
    remaining_ = 0;
    decoded_ = 0;
    chunkPos_ = 0;
    chunkLen_ = 0;

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        fail("cannot open (" + std::generic_category().message(errno) +
             ")");
        return false;
    }
    file_ = f;

    // Classify the header from the bytes that are there, so a short
    // foreign file reads as "bad magic" and a short v1 stub as
    // "truncated header".
    Header h{};
    const std::size_t got = std::fread(&h, 1, sizeof(h), f);
    if (got >= sizeof(h.magic) && h.magic != traceMagic) {
        fail("not a pifetch trace (bad magic)");
        return false;
    }
    if (got >= sizeof(h.magic) + sizeof(h.version) &&
        h.version != traceVersion) {
        fail("unsupported trace version " + std::to_string(h.version) +
             " (this build reads v1)");
        return false;
    }
    if (got < sizeof(h)) {
        fail("truncated header (" + std::to_string(got) + " of " +
             std::to_string(sizeof(h)) + " bytes)");
        return false;
    }

    // The header's count is untrusted input: a corrupt or truncated
    // file could otherwise promise billions of records. When the
    // payload size is knowable it must hold everything the header
    // promises; when it is not (the stream is not a regular file), a
    // short read surfaces as failed() instead.
    const long long payload = payloadBytes(f);
    countChecked_ = payload >= 0;
    if (countChecked_) {
        const auto held = static_cast<unsigned long long>(payload) /
                          sizeof(DiskRecord);
        if (h.count > held) {
            fail("header promises " + std::to_string(h.count) +
                 " records but the payload holds " +
                 std::to_string(held) + " (truncated or corrupt file)");
            return false;
        }
    }

    total_ = h.count;
    remaining_ = h.count;
    chunk_.resize(sizeof(DiskRecord) *
                  std::min<std::uint64_t>(
                      chunkRecords, std::max<std::uint64_t>(h.count, 1)));
    return true;
}

void
TraceBatchReader::close()
{
    if (file_) {
        std::fclose(static_cast<std::FILE *>(file_));
        file_ = nullptr;
    }
}

void
TraceBatchReader::refill()
{
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunkRecords, remaining_));
    if (std::fread(chunk_.data(), sizeof(DiskRecord), n,
                   static_cast<std::FILE *>(file_)) != n) {
        fail("stream ends after " + std::to_string(decoded_) + " of " +
             std::to_string(total_) + " records");
        return;
    }
    chunkPos_ = 0;
    chunkLen_ = n;
    remaining_ -= n;
}

bool
TraceBatchReader::next(RecordBatch &out, std::uint32_t max)
{
    out.clear();
    if (failed_ || file_ == nullptr || max == 0)
        return false;
    out.reserve(max);

    while (out.size < max && (chunkPos_ < chunkLen_ || remaining_ > 0)) {
        if (chunkPos_ == chunkLen_) {
            refill();
            if (failed_) {
                out.clear();
                return false;
            }
        }
        const auto *recs =
            reinterpret_cast<const DiskRecord *>(chunk_.data());
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::size_t>(max - out.size,
                                  chunkLen_ - chunkPos_));
        // Scatter the packed disk fields into the batch columns.
        const std::uint32_t b = out.size;
        for (std::uint32_t i = 0; i < take; ++i) {
            const DiskRecord &d = recs[chunkPos_ + i];
            out.pc[b + i] = d.pc;
            out.target[b + i] = d.target;
            out.kind[b + i] = d.kind;
            out.trapLevel[b + i] = d.trapLevel;
            out.taken[b + i] = d.taken != 0 ? 1 : 0;
        }
        out.size = b + take;
        chunkPos_ += take;
        decoded_ += take;
    }

    out.computeBlocks();
    return out.size > 0;
}

} // namespace pifetch
