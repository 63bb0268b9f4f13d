#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/wal.h"

namespace mdm::storage {
namespace {

TEST(WalTest, CommittedOpsReplayInOrder) {
  MemoryWalSink sink;
  WalWriter wal(&sink);
  auto t1 = wal.Begin();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(wal.LogOp(*t1, "op1").ok());
  ASSERT_TRUE(wal.LogOp(*t1, "op2").ok());
  ASSERT_TRUE(wal.Commit(*t1).ok());

  std::vector<std::string> applied;
  auto n = WalRecover(sink.bytes(), [&](const WalRecord& rec) {
    applied.push_back(rec.payload);
    return Status::OK();
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);  // begin, 2 ops, commit
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], "op1");
  EXPECT_EQ(applied[1], "op2");
}

TEST(WalTest, UncommittedAndAbortedOpsAreDiscarded) {
  MemoryWalSink sink;
  WalWriter wal(&sink);
  auto t1 = wal.Begin();  // committed
  auto t2 = wal.Begin();  // aborted
  auto t3 = wal.Begin();  // never finished (crash)
  ASSERT_TRUE(wal.LogOp(*t1, "keep").ok());
  ASSERT_TRUE(wal.LogOp(*t2, "aborted").ok());
  ASSERT_TRUE(wal.LogOp(*t3, "in-flight").ok());
  ASSERT_TRUE(wal.Abort(*t2).ok());
  ASSERT_TRUE(wal.Commit(*t1).ok());

  std::vector<std::string> applied;
  ASSERT_TRUE(WalRecover(sink.bytes(), [&](const WalRecord& rec) {
                applied.push_back(rec.payload);
                return Status::OK();
              })
                  .ok());
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], "keep");
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  MemoryWalSink sink;
  WalWriter wal(&sink);
  auto t1 = wal.Begin();
  ASSERT_TRUE(wal.LogOp(*t1, "committed-op").ok());
  ASSERT_TRUE(wal.Commit(*t1).ok());
  size_t good_size = sink.bytes().size();
  auto t2 = wal.Begin();
  ASSERT_TRUE(wal.LogOp(*t2, "will-be-torn").ok());
  ASSERT_TRUE(wal.Commit(*t2).ok());
  // Crash: cut the log mid-way through txn 2's records.
  sink.TruncateTo(good_size + 3);

  std::vector<std::string> applied;
  ASSERT_TRUE(WalRecover(sink.bytes(), [&](const WalRecord& rec) {
                applied.push_back(rec.payload);
                return Status::OK();
              })
                  .ok());
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], "committed-op");
}

TEST(WalTest, CorruptMiddleRecordEndsReplayAtCorruption) {
  MemoryWalSink sink;
  WalWriter wal(&sink);
  auto t1 = wal.Begin();
  ASSERT_TRUE(wal.LogOp(*t1, "op-a").ok());
  ASSERT_TRUE(wal.Commit(*t1).ok());
  // Flip a byte inside the first record's payload area.
  auto& bytes = const_cast<std::vector<uint8_t>&>(sink.bytes());
  bytes[10] ^= 0xFF;
  std::vector<std::string> applied;
  ASSERT_TRUE(WalRecover(sink.bytes(), [&](const WalRecord& rec) {
                applied.push_back(rec.payload);
                return Status::OK();
              })
                  .ok());
  EXPECT_TRUE(applied.empty());
}

}  // namespace
}  // namespace mdm::storage
