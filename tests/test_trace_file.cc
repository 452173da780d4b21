/** @file Tests for the trace-file workload source. */

#include <gtest/gtest.h>

#include <sstream>

#include "workload/trace_file.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::workload;

TraceFileSource
fromString(const std::string &text, std::uint32_t cores = 4,
           bool loop = true)
{
    std::istringstream in(text);
    return TraceFileSource(in, cores, loop);
}

TEST(TraceFile, ParsesArithAndMem)
{
    auto src = fromString("0 0 X 2\n"
                          "0 0 R 1000 32\n");
    EXPECT_EQ(src.instructionCount(), 3u);
    EXPECT_EQ(src.warpsPerCore(0), 1u);

    WarpInstr i;
    src.nextInstr(0, 0, 0, i);
    EXPECT_FALSE(i.isMem);
    src.nextInstr(0, 0, 0, i);
    EXPECT_FALSE(i.isMem);
    src.nextInstr(0, 0, 0, i);
    ASSERT_TRUE(i.isMem);
    EXPECT_EQ(i.accesses[0].addr, 0x1000u);
    EXPECT_EQ(i.accesses[0].bytes, 32u);
    EXPECT_EQ(i.accesses[0].op, mem::MemOp::Read);
}

TEST(TraceFile, OpKinds)
{
    auto src = fromString("0 0 R 100 32\n"
                          "0 0 W 200 32\n"
                          "0 0 A 300 32\n"
                          "0 0 B 400 128\n");
    WarpInstr i;
    src.nextInstr(0, 0, 0, i);
    EXPECT_EQ(i.accesses[0].op, mem::MemOp::Read);
    src.nextInstr(0, 0, 0, i);
    EXPECT_EQ(i.accesses[0].op, mem::MemOp::Write);
    src.nextInstr(0, 0, 0, i);
    EXPECT_EQ(i.accesses[0].op, mem::MemOp::Atomic);
    src.nextInstr(0, 0, 0, i);
    EXPECT_EQ(i.accesses[0].op, mem::MemOp::Bypass);
}

TEST(TraceFile, CoalescedRecords)
{
    auto src = fromString("0 0 R 1000 32 +\n"
                          "0 0 R 1080 32 +\n"
                          "0 0 R 1100 32\n");
    EXPECT_EQ(src.instructionCount(), 1u);
    WarpInstr i;
    src.nextInstr(0, 0, 0, i);
    ASSERT_TRUE(i.isMem);
    EXPECT_EQ(i.numAccesses, 3u);
    EXPECT_EQ(i.accesses[1].addr, 0x1080u);
}

TEST(TraceFile, HexAddresses)
{
    auto src = fromString("0 0 R deadbeef 32\n"
                          "0 63 R 0xDEADBEEF 32\n");
    WarpInstr i;
    src.nextInstr(0, 0, 0, i);
    EXPECT_EQ(i.accesses[0].addr, 0xdeadbeefull);
    src.nextInstr(0, 63, 0, i);
    EXPECT_EQ(i.accesses[0].addr, 0xdeadbeefull);
    EXPECT_EQ(src.warpsPerCore(0), 64u); // warp 63 is the largest id
}

TEST(TraceFile, CommentsAndBlanks)
{
    auto src = fromString("# header\n"
                          "\n"
                          "0 0 X 1  # trailing comment\n");
    EXPECT_EQ(src.instructionCount(), 1u);
}

TEST(TraceFile, LoopingReplay)
{
    auto src = fromString("0 0 R 1000 32\n");
    WarpInstr a, b;
    src.nextInstr(0, 0, 0, a);
    src.nextInstr(0, 0, 0, b);
    EXPECT_TRUE(b.isMem); // looped
}

TEST(TraceFile, NonLoopingIdles)
{
    auto src = fromString("0 0 R 1000 32\n", 4, /*loop=*/false);
    WarpInstr a, b;
    src.nextInstr(0, 0, 0, a);
    src.nextInstr(0, 0, 0, b);
    EXPECT_FALSE(b.isMem); // exhausted: arithmetic spin
}

TEST(TraceFile, UntracedWarpIdles)
{
    auto src = fromString("0 1 R 1000 32\n");
    EXPECT_EQ(src.warpsPerCore(0), 2u);
    WarpInstr i;
    src.nextInstr(0, 0, 0, i); // warp 0 has no records
    EXPECT_FALSE(i.isMem);
}

TEST(TraceFile, PerWarpStreamsIndependent)
{
    auto src = fromString("0 0 R 1000 32\n"
                          "0 1 R 2000 32\n");
    WarpInstr i;
    src.nextInstr(0, 1, 0, i);
    EXPECT_EQ(i.accesses[0].addr, 0x2000u);
    src.nextInstr(0, 0, 0, i);
    EXPECT_EQ(i.accesses[0].addr, 0x1000u);
}

TEST(TraceFile, RejectsBadInput)
{
    EXPECT_EXIT(fromString("0 0 Q 100 32\n"),
                ::testing::ExitedWithCode(1), "bad op");
    EXPECT_EXIT(fromString("0 0 R 100\n"), ::testing::ExitedWithCode(1),
                "needs");
    EXPECT_EXIT(fromString("9 0 R 100 32\n", /*cores=*/4),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(fromString("# only comments\n"),
                ::testing::ExitedWithCode(1), "no records");
    EXPECT_EXIT(fromString("0 0 X 0\n"), ::testing::ExitedWithCode(1),
                "positive");
    // A warp id that would wrap warpsPerCore to 0.
    EXPECT_EXIT(fromString("0 4294967295 X 1\n"),
                ::testing::ExitedWithCode(1), ":1: warp 4294967295 out");
    EXPECT_EXIT(fromString("0 64 X 1\n"), ::testing::ExitedWithCode(1),
                "warp 64 out of range");
    EXPECT_EXIT(fromString("0 0 R zz 32\n"), ::testing::ExitedWithCode(1),
                ":1: bad address 'zz'");
    EXPECT_EXIT(fromString("0 0 R 100x 32\n"),
                ::testing::ExitedWithCode(1), "bad address '100x'");
    EXPECT_EXIT(fromString("0 0 R 0x 32\n"), ::testing::ExitedWithCode(1),
                "bad address '0x'");
    EXPECT_EXIT(fromString("0 0 R 0x100 32\n0 0 R 0x100 32 junk\n"),
                ::testing::ExitedWithCode(1), ":2: unexpected 'junk'");
    EXPECT_EXIT(fromString("0 0 R 0x100 32 + +\n"),
                ::testing::ExitedWithCode(1), "unexpected '\\+'");
}

TEST(TraceFile, MissingFileIsFatal)
{
    EXPECT_EXIT(TraceFileSource("/no/such/file.trace", 4),
                ::testing::ExitedWithCode(1), "cannot be opened");
}

} // anonymous namespace
