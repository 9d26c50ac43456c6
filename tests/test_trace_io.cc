/**
 * @file
 * Trace file I/O tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/rng.hh"
#include "trace/trace_io.hh"

namespace pifetch {
namespace {

/**
 * One record of every InstrKind, taken and not, at trap levels 0 and
 * 1, with and without a target (invalidAddr) — including the
 * pathological Plain-with-target record an arbitrary file could hold.
 */
std::vector<RetiredInstr>
sampleTrace()
{
    const InstrKind kinds[] = {
        InstrKind::Plain,     InstrKind::CondBranch, InstrKind::Jump,
        InstrKind::Call,      InstrKind::Return,     InstrKind::TrapEnter,
        InstrKind::TrapReturn};
    std::vector<RetiredInstr> t;
    Addr pc = 0x1000;
    for (const InstrKind kind : kinds) {
        for (const bool taken : {false, true}) {
            for (const bool has_target : {false, true}) {
                for (const TrapLevel trap : {0, 1}) {
                    RetiredInstr r;
                    r.pc = pc;
                    r.kind = kind;
                    r.target = has_target ? pc + 0x4444 : invalidAddr;
                    r.taken = taken;
                    r.trapLevel = trap;
                    t.push_back(r);
                    pc += 4;
                }
            }
        }
    }
    return t;
}

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "pifetch_trace_test.bin";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(TraceIoTest, RoundTripPreservesAllFields)
{
    // The sample alone, then tiled to sizes that are not a multiple
    // of the 32K-record disk chunk: one short of and one past a
    // two-chunk boundary, so the partial tail chunk carries every
    // record shape too.
    const auto sample = sampleTrace();
    for (const std::size_t count : {sample.size(), std::size_t{65535},
                                    std::size_t{65537}}) {
        std::vector<RetiredInstr> original;
        original.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            RetiredInstr r = sample[i % sample.size()];
            r.pc += (i / sample.size()) * 0x10000;
            original.push_back(r);
        }
        ASSERT_TRUE(writeTrace(path_, original));

        std::vector<RetiredInstr> replay;
        ASSERT_TRUE(readTrace(path_, replay));
        ASSERT_EQ(replay.size(), original.size()) << "count " << count;
        for (std::size_t i = 0; i < original.size(); ++i) {
            ASSERT_EQ(replay[i].pc, original[i].pc) << i;
            ASSERT_EQ(replay[i].target, original[i].target) << i;
            ASSERT_EQ(replay[i].kind, original[i].kind) << i;
            ASSERT_EQ(replay[i].taken, original[i].taken) << i;
            ASSERT_EQ(replay[i].trapLevel, original[i].trapLevel) << i;
        }
    }
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips)
{
    ASSERT_TRUE(writeTrace(path_, {}));
    std::vector<RetiredInstr> replay = sampleTrace();
    ASSERT_TRUE(readTrace(path_, replay));
    EXPECT_TRUE(replay.empty());
}

TEST_F(TraceIoTest, MissingFileFails)
{
    std::vector<RetiredInstr> replay;
    EXPECT_FALSE(readTrace(path_ + ".nope", replay));
}

TEST_F(TraceIoTest, BadMagicRejected)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[32] = "this is not a pifetch trace";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);

    std::vector<RetiredInstr> replay;
    EXPECT_FALSE(readTrace(path_, replay));
}

TEST_F(TraceIoTest, TruncatedFileRejected)
{
    ASSERT_TRUE(writeTrace(path_, sampleTrace()));
    // Truncate mid-record.
    std::FILE *f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(0, truncate(path_.c_str(), size - 10));

    std::vector<RetiredInstr> replay;
    EXPECT_FALSE(readTrace(path_, replay));
}

TEST_F(TraceIoTest, LargeTraceRoundTrips)
{
    std::vector<RetiredInstr> big;
    big.reserve(100000);
    for (Addr i = 0; i < 100000; ++i) {
        RetiredInstr r;
        r.pc = i * 4;
        r.kind = (i % 7 == 0) ? InstrKind::Call : InstrKind::Plain;
        r.target = (i % 7 == 0) ? i * 8 : invalidAddr;
        big.push_back(r);
    }
    ASSERT_TRUE(writeTrace(path_, big));
    std::vector<RetiredInstr> replay;
    ASSERT_TRUE(readTrace(path_, replay));
    ASSERT_EQ(replay.size(), big.size());
    EXPECT_EQ(replay[99999].pc, big[99999].pc);
}

TEST_F(TraceIoTest, CorruptHeaderCountRejectedWithoutAllocating)
{
    // A valid small file whose header then claims ~768 billion
    // records: reserve()ing that many would demand ~17 TB before the
    // first record read could fail. The reader must bounds-check the
    // count against the file size and reject up front.
    ASSERT_TRUE(writeTrace(path_, sampleTrace()));
    std::FILE *f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const std::uint64_t bogus = 0xb2d05e00000000ull;
    ASSERT_EQ(0, std::fseek(f, 8, SEEK_SET));  // magic+version = 8 B
    ASSERT_EQ(1u, std::fwrite(&bogus, sizeof(bogus), 1, f));
    ASSERT_EQ(0, std::fclose(f));

    std::vector<RetiredInstr> replay;
    EXPECT_FALSE(readTrace(path_, replay));
    EXPECT_TRUE(replay.empty());
}

TEST_F(TraceIoTest, CountLargerThanPayloadRejected)
{
    // Off-by-one flavour: header promises one more record than the
    // payload holds.
    ASSERT_TRUE(writeTrace(path_, sampleTrace()));
    std::FILE *f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const std::uint64_t bogus = sampleTrace().size() + 1;
    ASSERT_EQ(0, std::fseek(f, 8, SEEK_SET));
    ASSERT_EQ(1u, std::fwrite(&bogus, sizeof(bogus), 1, f));
    ASSERT_EQ(0, std::fclose(f));

    std::vector<RetiredInstr> replay;
    EXPECT_FALSE(readTrace(path_, replay));
    EXPECT_TRUE(replay.empty());
}

TEST_F(TraceIoTest, TrailingBytesBeyondCountAreIgnored)
{
    ASSERT_TRUE(writeTrace(path_, sampleTrace()));
    std::FILE *f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char extra[7] = "extra!";
    ASSERT_EQ(sizeof(extra),
              std::fwrite(extra, 1, sizeof(extra), f));
    ASSERT_EQ(0, std::fclose(f));

    std::vector<RetiredInstr> replay;
    ASSERT_TRUE(readTrace(path_, replay));
    EXPECT_EQ(replay.size(), sampleTrace().size());
}

TEST_F(TraceIoTest, HeaderOnlyFileWithZeroCountSucceeds)
{
    ASSERT_TRUE(writeTrace(path_, {}));
    std::vector<RetiredInstr> replay;
    ASSERT_TRUE(readTrace(path_, replay));
    EXPECT_TRUE(replay.empty());

    // ...but a bare header claiming records is rejected.
    std::FILE *f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const std::uint64_t bogus = 1;
    ASSERT_EQ(0, std::fseek(f, 8, SEEK_SET));
    ASSERT_EQ(1u, std::fwrite(&bogus, sizeof(bogus), 1, f));
    ASSERT_EQ(0, std::fclose(f));
    EXPECT_FALSE(readTrace(path_, replay));
}

TEST_F(TraceIoTest, ChunkBoundaryTraceRoundTripsAllFields)
{
    // Sizes straddling the 32K-record chunk: below, exactly one
    // chunk, one over, and a multi-chunk trace with a partial tail.
    const std::size_t sizes[] = {32767, 32768, 32769, 70001};
    for (const std::size_t count : sizes) {
        std::vector<RetiredInstr> trace;
        trace.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            RetiredInstr r;
            r.pc = 0x40000000 + i * 4;
            r.kind = static_cast<InstrKind>(i % 5);
            r.target = (i % 3 == 0) ? 0x50000000 + i : invalidAddr;
            r.taken = i % 2 == 0;
            r.trapLevel = static_cast<TrapLevel>(i % 2);
            trace.push_back(r);
        }
        ASSERT_TRUE(writeTrace(path_, trace));
        std::vector<RetiredInstr> replay;
        ASSERT_TRUE(readTrace(path_, replay));
        ASSERT_EQ(replay.size(), trace.size()) << "count " << count;
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(replay[i].pc, trace[i].pc);
            ASSERT_EQ(replay[i].target, trace[i].target);
            ASSERT_EQ(replay[i].kind, trace[i].kind);
            ASSERT_EQ(replay[i].taken, trace[i].taken);
            ASSERT_EQ(replay[i].trapLevel, trace[i].trapLevel);
        }
    }
}

TEST_F(TraceIoTest, WriteToUnwritablePathFails)
{
    EXPECT_FALSE(writeTrace("/nonexistent-dir/trace.bin",
                            sampleTrace()));
    // The sample fits in stdio's buffer, so on /dev/full (ENOSPC on
    // every write) the error surfaces only at flush/close.
    if (std::FILE *full = std::fopen("/dev/full", "wb")) {
        std::fclose(full);
        EXPECT_FALSE(writeTrace("/dev/full", sampleTrace()));
    }
}

TEST_F(TraceIoTest, FuzzedCorruptionNeverCrashesOrLeaksState)
{
    // Seeded corruption fuzz over the three failure families the
    // reader must survive: truncation anywhere (including
    // mid-header), random bit flips, and short header-only stubs.
    // The contract under attack: readTrace never crashes, never
    // over-allocates, and on failure leaves `records` empty (no
    // partial-state leak). A payload-only bit flip may still parse —
    // the format carries no checksum — but then the record count must
    // match whatever the (possibly flipped) header promised against
    // the actual payload.
    std::vector<RetiredInstr> original;
    original.reserve(1'000);
    for (Addr i = 0; i < 1'000; ++i) {
        RetiredInstr r;
        r.pc = 0x40000 + i * 4;
        r.kind = static_cast<InstrKind>(i % 5);
        r.target = (i % 3 == 0) ? 0x50000 + i : invalidAddr;
        r.taken = i % 2 == 0;
        r.trapLevel = static_cast<TrapLevel>(i % 2);
        original.push_back(r);
    }
    ASSERT_TRUE(writeTrace(path_, original));

    std::string pristine;
    {
        std::ifstream is(path_, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        ASSERT_TRUE(is);
        pristine = buf.str();
    }
    constexpr std::size_t headerBytes = 16;  // magic+version+count
    ASSERT_EQ(pristine.size(),
              headerBytes + original.size() * 24);

    Rng rng(0x7ace10);
    const std::string mutated_path = path_ + ".fuzz";
    for (int iter = 0; iter < 400; ++iter) {
        std::string mutated = pristine;
        switch (rng.below(3)) {
          case 0:  // truncate anywhere, including inside the header
            mutated.resize(rng.below(mutated.size() + 1));
            break;
          case 1: {  // flip 1..8 random bits anywhere
            const std::uint64_t flips = rng.range(1, 8);
            for (std::uint64_t f = 0; f < flips; ++f) {
                const std::size_t byte = rng.below(mutated.size());
                mutated[byte] = static_cast<char>(
                    mutated[byte] ^ (1u << rng.below(8)));
            }
            break;
          }
          default:  // header-only stub, possibly partial
            mutated.resize(rng.below(headerBytes + 1));
            break;
        }
        {
            std::ofstream os(mutated_path, std::ios::binary);
            os << mutated;
            ASSERT_TRUE(os.good());
        }

        // Pre-load the output vector so a failure that merely forgot
        // to clear it is caught as a leak.
        std::vector<RetiredInstr> replay = sampleTrace();
        const bool ok = readTrace(mutated_path, replay);
        if (!ok) {
            EXPECT_TRUE(replay.empty())
                << "iteration " << iter
                << ": failed read leaked partial state";
        } else {
            // Success is legitimate only when the file still starts
            // with an intact header whose count fits the payload.
            ASSERT_GE(mutated.size(), headerBytes);
            std::uint64_t count = 0;
            std::memcpy(&count, mutated.data() + 8, sizeof(count));
            EXPECT_EQ(replay.size(), count) << "iteration " << iter;
            EXPECT_LE(headerBytes + count * 24, mutated.size())
                << "iteration " << iter;
        }
    }
    std::remove(mutated_path.c_str());
}

} // namespace
} // namespace pifetch
