/**
 * @file
 * Binary trace file I/O.
 *
 * Lets users capture a retire-order stream once and replay it through
 * predictors and prefetchers (the paper's trace-based methodology,
 * Section 5). The format is a fixed little-endian header followed by
 * packed records; versioned so future extensions stay readable.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace pifetch {

/** Magic number identifying pifetch trace files ("PIFT"). */
constexpr std::uint32_t traceMagic = 0x54464950;

/** Current trace format version. */
constexpr std::uint32_t traceVersion = 1;

/**
 * Write @p records to @p path as one v1 file: the header with the
 * final count, then the records one disk chunk (~32K records) per
 * fwrite. The file is flushed and closed explicitly, so a write error
 * that only surfaces at flush/close time (e.g. ENOSPC) is reported as
 * failure, never as silent data loss.
 *
 * @return true on success; false on any I/O failure.
 */
bool writeTrace(const std::string &path,
                const std::vector<RetiredInstr> &records);

/**
 * Read a whole trace file into memory: a loop over TraceBatchReader,
 * so it applies the reader's header validation (magic, version, and
 * the record count against the file size, checked before any
 * allocation).
 *
 * @param[out] records Replaced with the file contents on success;
 *             left empty on failure.
 * @return true on success; false on I/O error, bad magic, version
 *         mismatch, or a count that exceeds the file's payload.
 */
bool readTrace(const std::string &path,
               std::vector<RetiredInstr> &records);

/**
 * Streaming batch decoder for trace files, the only v1 decoder.
 *
 * Hands out the stream one structure-of-arrays RecordBatch at a time:
 * each 32K-record disk chunk is read with a single fread and its
 * fields are scattered into the batch's parallel PC / target / kind
 * columns (block addresses precomputed), ready to feed
 * TraceEngine::replayBatch() without touching AoS form or holding more
 * than one chunk in memory.
 */
class TraceBatchReader
{
  public:
    TraceBatchReader() = default;
    ~TraceBatchReader() { close(); }

    TraceBatchReader(const TraceBatchReader &) = delete;
    TraceBatchReader &operator=(const TraceBatchReader &) = delete;

    /**
     * Open @p path and validate its header (magic, version, and the
     * record count against the file's actual payload size).
     * @return true if the stream is ready; otherwise error() names
     *         the fault.
     */
    bool open(const std::string &path);

    /** Records the header promises (valid after a successful open). */
    std::uint64_t count() const { return total_; }

    /** True when count() was checked against a regular file's size
     *  (a pipe's count is unchecked until its records arrive). */
    bool countChecked() const { return countChecked_; }

    /** Records decoded so far. */
    std::uint64_t decoded() const { return decoded_; }

    /**
     * Decode up to @p max records into @p out (columns filled, block
     * addresses computed). @return true if @p out holds at least one
     * record; false at end of stream or on error (check failed()).
     */
    bool next(RecordBatch &out, std::uint32_t max = recordBatchLen);

    /** True once an I/O error or short read has been observed. */
    bool failed() const { return failed_; }

    /** What failed: one distinct message per fault, naming the file. */
    const std::string &error() const { return error_; }

    /** Release the underlying file (idempotent). */
    void close();

  private:
    /** Read the next disk chunk into chunk_. Sets failed_ on error. */
    void refill();

    /** Record the first fault and release the file. */
    void fail(const std::string &msg);

    void *file_ = nullptr;       //!< std::FILE, opaque to the header
    std::string path_;
    std::uint64_t total_ = 0;    //!< records promised by the header
    std::uint64_t remaining_ = 0;  //!< records not yet read from disk
    std::uint64_t decoded_ = 0;
    bool failed_ = false;
    bool countChecked_ = false;
    std::string error_;

    /** Raw bytes of the current disk chunk and the decode cursor. */
    std::vector<std::uint8_t> chunk_;
    std::size_t chunkPos_ = 0;  //!< next undecoded record index
    std::size_t chunkLen_ = 0;  //!< records in the current chunk
};

} // namespace pifetch
