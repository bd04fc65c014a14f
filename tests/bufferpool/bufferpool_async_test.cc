// Async buffer-pool coverage: write-behind eviction, free drops of clean
// blocks, single-flight restores, 2Q scan resistance, pressure-aware admission, and the chaos paths (failed
// writebacks, corrupt spill files) the synchronous stub never exercised.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "api/systemds_context.h"
#include "common/faults.h"
#include "io/atomic_file.h"
#include "obs/metrics.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/controlprog/data.h"
#include "serve/scoring_service.h"

namespace sysds {
namespace {

namespace fs = std::filesystem;

class BufferPoolAsyncTest : public ::testing::Test {
 protected:
  void TearDown() override {
    MatrixObject::SetBufferPool(nullptr);
    FaultInjector::Get().Disable();
  }
};

FaultConfig SpillErrorConfig(double prob) {
  FaultConfig c;
  c.enabled = true;
  c.seed = 1;
  c.profile.spill_error_prob = prob;
  return c;
}

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Get().CounterValue(name);
}

int64_t RestoreCount() {
  return obs::MetricsRegistry::Get()
      .GetHistogram("bufferpool.restore_ns")
      ->Count();
}

TEST_F(BufferPoolAsyncTest, WriteBehindTurnsEvictionsIntoFreeDrops) {
  BufferPool::Options opt;
  opt.limit_bytes = 200 * 1024;  // fits ~2 of the 80KB blocks
  BufferPool pool(opt);
  MatrixObject::SetBufferPool(&pool);
  int64_t drops_before = CounterValue("bufferpool.free_drops");

  std::vector<std::shared_ptr<MatrixObject>> objs;
  for (int i = 0; i < 6; ++i) {
    objs.push_back(std::make_shared<MatrixObject>(
        MatrixBlock::Dense(100, 100, static_cast<double>(i + 1))));
  }
  pool.Drain();
  EXPECT_LE(pool.CachedBytes(), opt.limit_bytes);
  EXPECT_GT(pool.EvictionCount(), 0);
  // The background writer cleaned blocks so at least some evictions were
  // free drops instead of synchronous spill writes.
  EXPECT_GT(CounterValue("bufferpool.free_drops"), drops_before);
  // Contents survive the async path bit-exact.
  for (int i = 0; i < 6; ++i) {
    auto r = objs[static_cast<size_t>(i)]->AcquireRead();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_DOUBLE_EQ((*r)->Get(42, 42), static_cast<double>(i + 1));
    objs[static_cast<size_t>(i)]->Release();
  }
}

TEST_F(BufferPoolAsyncTest, RestoredObjectStaysCleanAndReEvictsForFree) {
  BufferPool pool(1 << 30);
  MatrixObject::SetBufferPool(&pool);
  auto obj = std::make_shared<MatrixObject>(MatrixBlock::Dense(64, 64, 5.0));
  pool.SetLimit(64);  // force a synchronous spill
  ASSERT_FALSE(obj->HasPayload());

  pool.SetLimit(1 << 30);
  auto r = obj->AcquireRead();
  ASSERT_TRUE(r.ok()) << r.status();
  obj->Release();
  ASSERT_TRUE(obj->HasPayload());

  // Blocks are immutable, so the kept spill file is still valid: the
  // second eviction must not write again.
  int64_t sync_before = CounterValue("bufferpool.sync_spills");
  int64_t wb_before = CounterValue("bufferpool.writebacks");
  int64_t drops_before = CounterValue("bufferpool.free_drops");
  pool.SetLimit(64);
  pool.Drain();
  EXPECT_FALSE(obj->HasPayload());
  EXPECT_EQ(CounterValue("bufferpool.sync_spills"), sync_before);
  EXPECT_EQ(CounterValue("bufferpool.writebacks"), wb_before);
  EXPECT_GT(CounterValue("bufferpool.free_drops"), drops_before);

  auto again = obj->AcquireRead();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_DOUBLE_EQ((*again)->Get(7, 7), 5.0);
  obj->Release();
}

TEST_F(BufferPoolAsyncTest, ConcurrentAcquiresCoalesceIntoOneRestore) {
  BufferPool pool(1 << 30);
  MatrixObject::SetBufferPool(&pool);
  auto obj =
      std::make_shared<MatrixObject>(MatrixBlock::Dense(200, 200, 2.0));
  pool.SetLimit(64);
  ASSERT_FALSE(obj->HasPayload());
  pool.SetLimit(1 << 30);

  const int kThreads = 8;
  int64_t reads_before = RestoreCount();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = obj->AcquireRead();
      if (!r.ok() || (*r)->Get(13, 13) != 2.0) {
        failures.fetch_add(1);
      } else {
        obj->Release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Single-flight: N concurrent acquires of one spilled object perform
  // exactly one disk read; waiters block on the object's CV.
  EXPECT_EQ(RestoreCount() - reads_before, 1);
}

TEST_F(BufferPoolAsyncTest, TwoQKeepsWorkingSetThroughScan) {
  // A re-referenced (protected) object must survive a one-touch scan that
  // is larger than the pool.
  BufferPool pool(400 * 1024);
  MatrixObject::SetBufferPool(&pool);
  auto hot = std::make_shared<MatrixObject>(MatrixBlock::Dense(100, 100, 1.0));
  // Re-reference: promoted to the protected queue.
  for (int i = 0; i < 3; ++i) {
    auto r = hot->AcquireRead();
    EXPECT_TRUE(r.ok());
    hot->Release();
  }
  // One-touch scan, 2x the pool size.
  std::vector<std::shared_ptr<MatrixObject>> scan;
  for (int i = 0; i < 10; ++i) {
    scan.push_back(
        std::make_shared<MatrixObject>(MatrixBlock::Dense(100, 100, 2.0)));
  }
  pool.Drain();
  EXPECT_TRUE(hot->HasPayload());
}

TEST_F(BufferPoolAsyncTest, PinnedStormExportsNegativeHeadroom) {
  BufferPool::Options opt;
  opt.limit_bytes = 100 * 1024;
  BufferPool pool(opt);
  MatrixObject::SetBufferPool(&pool);
  // Pin three ~80KB objects: pinned bytes alone exceed the limit.
  std::vector<std::shared_ptr<MatrixObject>> pinned;
  for (int i = 0; i < 3; ++i) {
    pinned.push_back(std::make_shared<MatrixObject>(
        MatrixBlock::Dense(100, 100, static_cast<double>(i))));
    ASSERT_TRUE(pinned.back()->AcquireRead().ok());
  }
  pool.Drain();
  // No pinned block was evicted, even though the pool is far over limit.
  for (const auto& p : pinned) EXPECT_TRUE(p->HasPayload());
  EXPECT_GT(pool.PinnedBytes(), opt.limit_bytes);
  EXPECT_LT(pool.Headroom(), 0);
  EXPECT_TRUE(pool.UnderPressure(1));

  // Unpinning restores normal eviction behaviour.
  for (const auto& p : pinned) p->Release();
  EXPECT_GE(pool.Headroom(), 0);
  pool.SetLimit(1024);
  pool.Drain();
  EXPECT_LE(pool.CachedBytes(), 1024);
}

TEST_F(BufferPoolAsyncTest, PinnedBytesFollowDecompressOnRead) {
  // AcquireRead on a pinned compressed object decompresses it and
  // re-registers it at the larger size; pinned bytes must follow, and
  // releasing every pin must bring them back to zero.
  BufferPool pool(1 << 30);
  MatrixObject::SetBufferPool(&pool);
  MatrixBlock m = MatrixBlock::Dense(500, 5);
  for (int64_t r = 0; r < 500; ++r) {
    for (int64_t c = 0; c < 5; ++c) m.Set(r, c, static_cast<double>(r % 3));
  }
  CompressedMatrixBlock cb = CompressedMatrixBlock::Compress(m);
  ASSERT_GT(cb.NumCompressedColumns(), 0);
  auto obj = std::make_shared<MatrixObject>(std::move(cb));
  ASSERT_TRUE(obj->AcquireCompressed().ok());
  const int64_t compressed_size = pool.PinnedBytes();
  ASSERT_TRUE(obj->AcquireRead().ok());
  EXPECT_GT(obj->EstimateSizeInBytes(), compressed_size);
  EXPECT_EQ(pool.PinnedBytes(), obj->EstimateSizeInBytes());
  obj->Release();
  obj->Release();
  EXPECT_EQ(pool.PinnedBytes(), 0);
}

TEST_F(BufferPoolAsyncTest, ServiceRejectsWithOomWhenHeadroomLow) {
  auto ctx = SystemDSContext::Builder().BufferPoolLimit(100 * 1024).Build();
  SymbolInfo xinfo;
  xinfo.dt = DataType::kMatrix;
  xinfo.dim1 = 2;
  xinfo.dim2 = 2;
  auto prepared = ctx->Prepare("y = sum(X)", {{"X", xinfo}});
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  serve::ServiceOptions sopt;
  sopt.num_workers = 1;
  sopt.admission_headroom_bytes = 16 * 1024;
  serve::ScoringService svc(sopt);
  ASSERT_TRUE(
      svc.RegisterModel(
             "m", std::shared_ptr<const PreparedScript>(std::move(*prepared)),
             {"y"})
          .ok());

  // With ample headroom the request is admitted and served.
  auto ok = svc.Score("m", Inputs().Matrix("X", MatrixBlock::Dense(2, 2, 1.0)));
  ASSERT_TRUE(ok.ok()) << ok.status();

  // Pin the pool full: real headroom (limit - pinned) goes negative and
  // admission fast-rejects with the retryable kOom, same as a full queue.
  std::vector<std::shared_ptr<MatrixObject>> pinned;
  for (int i = 0; i < 3; ++i) {
    pinned.push_back(
        std::make_shared<MatrixObject>(MatrixBlock::Dense(100, 100, 1.0)));
    ASSERT_TRUE(pinned.back()->AcquireRead().ok());
  }
  auto rejected =
      svc.Score("m", Inputs().Matrix("X", MatrixBlock::Dense(2, 2, 1.0)));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOom);
  EXPECT_TRUE(IsRetryable(rejected.status()));

  // Backpressure clears with the pins.
  for (const auto& p : pinned) p->Release();
  auto recovered =
      svc.Score("m", Inputs().Matrix("X", MatrixBlock::Dense(2, 2, 1.0)));
  EXPECT_TRUE(recovered.ok()) << recovered.status();
}

TEST_F(BufferPoolAsyncTest, FailedWritebackStaysDirtyAndRetryable) {
  BufferPool::Options opt;
  opt.limit_bytes = 200 * 1024;
  BufferPool pool(opt);
  MatrixObject::SetBufferPool(&pool);
  int64_t wb_failures_before =
      CounterValue("fault.bufferpool.writeback_failures");
  std::vector<std::shared_ptr<MatrixObject>> objs;
  {
    // Every spill write fails: write-behind must leave blocks dirty and
    // resident (degraded but correct), never drop unwritten data.
    ScopedFaultInjection chaos(SpillErrorConfig(1.0));
    for (int i = 0; i < 6; ++i) {
      objs.push_back(std::make_shared<MatrixObject>(
          MatrixBlock::Dense(100, 100, static_cast<double>(i))));
    }
    pool.Drain();
    EXPECT_GT(CounterValue("fault.bufferpool.writeback_failures"),
              wb_failures_before);
    for (const auto& o : objs) EXPECT_TRUE(o->HasPayload());
  }
  // Once the spill device recovers the same pressure drains normally.
  pool.SetLimit(100 * 1024);
  pool.Drain();
  EXPECT_LE(pool.CachedBytes(), 100 * 1024);
  for (int i = 0; i < 6; ++i) {
    auto r = objs[static_cast<size_t>(i)]->AcquireRead();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_DOUBLE_EQ((*r)->Get(1, 1), static_cast<double>(i));
    objs[static_cast<size_t>(i)]->Release();
  }
}

TEST_F(BufferPoolAsyncTest, CorruptWritebackSurfacesAsCorruptAndRetryable) {
  BufferPool::Options opt;
  opt.limit_bytes = 1 << 30;
  BufferPool pool(opt);
  MatrixObject::SetBufferPool(&pool);
  // A dense block spanning many read chunks of the verified restore, so
  // corruption lands in its first, a middle and its last chunk.
  constexpr int64_t kRows = 512, kCols = 1024;
  auto obj =
      std::make_shared<MatrixObject>(MatrixBlock::Dense(kRows, kCols, 4.0));
  pool.SetLimit(64);  // spill + drop
  ASSERT_FALSE(obj->HasPayload());
  pool.SetLimit(1 << 30);

  std::string path = pool.SpillPathFor(obj.get());
  ASSERT_TRUE(fs::exists(path));
  std::string original;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    original = buf.str();
  }
  // Spill file: 33-byte matrix header (magic, rows, cols, nnz, sparse
  // flag), the cells, then the 24-byte footer (magic, payload size, CRC).
  constexpr size_t kHeader = 33, kFooter = 24;
  ASSERT_EQ(original.size(), kHeader + kRows * kCols * 8 + kFooter);
  ASSERT_GT(original.size(), 4 * static_cast<size_t>(
                                     io::VerifiedReader::kChunkBytes));
  const size_t payload_end = original.size() - kFooter;
  auto flip = [&original](size_t pos) {
    std::string bytes = original;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
    return bytes;
  };
  auto with_int64 = [](std::string bytes, size_t pos, int64_t v) {
    std::memcpy(&bytes[pos], &v, 8);
    return bytes;
  };
  // Header dims far beyond the file (8 PiB of cells): rejected against
  // the footer's payload size before anything of that size is allocated,
  // whether the footer agrees with the file or with the header.
  const int64_t kHugeRows = int64_t{1} << 40;
  const std::string huge_dims = with_int64(original, 8, kHugeRows);
  const std::vector<std::pair<std::string, std::string>> corruptions = {
      {"first payload byte", flip(kHeader)},
      {"middle payload byte", flip(kHeader + (payload_end - kHeader) / 2)},
      {"last payload byte", flip(payload_end - 1)},
      {"header dims bit", flip(16)},
      {"header nnz bit", flip(24)},
      {"header sparse flag", flip(32)},
      {"truncated payload, footer kept",
       original.substr(0, payload_end / 2) + original.substr(payload_end)},
      {"truncated file", original.substr(0, payload_end / 2)},
      {"header dims disagree with footer size", huge_dims},
      {"footer size follows huge header dims",
       with_int64(huge_dims, payload_end + 8,
                  static_cast<int64_t>(kHeader) + kHugeRows * kCols * 8)},
  };
  const int64_t restored_bytes = CounterValue("bufferpool.restore_bytes");
  for (const auto& [name, bytes] : corruptions) {
    SCOPED_TRACE(name);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    // The CRC footer and the dims check catch every case as kCorrupt
    // (retryable); no unverified block is installed and the spill file is
    // kept for a retry.
    auto read = obj->AcquireRead();
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kCorrupt) << read.status();
    EXPECT_TRUE(IsRetryable(read.status()));
    EXPECT_FALSE(obj->HasPayload());
    EXPECT_TRUE(fs::exists(path)) << "spill file kept for retry";
  }
  EXPECT_EQ(CounterValue("bufferpool.restore_bytes"), restored_bytes);

  // Repair (e.g. the storage layer heals) and the same acquire succeeds.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << original;
  }
  auto recovered = obj->AcquireRead();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_DOUBLE_EQ((*recovered)->Get(5, 5), 4.0);
  EXPECT_DOUBLE_EQ((*recovered)->Get(kRows - 1, kCols - 1), 4.0);
  EXPECT_EQ((*recovered)->NonZeros(), kRows * kCols);
  obj->Release();
  EXPECT_EQ(CounterValue("bufferpool.restore_bytes") - restored_bytes,
            obj->EstimateSizeInBytes());
}

TEST_F(BufferPoolAsyncTest, RegisterUnregisterRaceWithInflightWriteback) {
  // Object churn under constant eviction pressure: destructors must block
  // on in-flight writebacks (no use-after-free of the raw pointer the
  // background writer holds). Primarily a tsan target.
  BufferPool::Options opt;
  opt.limit_bytes = 64 * 1024;  // every object overflows the pool
  BufferPool pool(opt);
  MatrixObject::SetBufferPool(&pool);
  const int kThreads = 4, kIters = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        auto obj = std::make_shared<MatrixObject>(
            MatrixBlock::Dense(60, 60, static_cast<double>(t * kIters + i)));
        auto r = obj->AcquireRead();
        if (!r.ok() ||
            (*r)->Get(0, 0) != static_cast<double>(t * kIters + i)) {
          failures.fetch_add(1);
        } else {
          obj->Release();
        }
        // obj destroyed here, potentially mid-writeback.
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  pool.Drain();
  EXPECT_EQ(pool.CachedBytes(), 0);
  EXPECT_EQ(pool.PinnedBytes(), 0);
}

// ---------------------------------------------------------------------------
// Differential: the pool must be invisible in results. The same iterative
// over-memory script produces bit-identical outputs with a tiny pool
// (spill/restore on every iteration, async machinery fully engaged), with
// the async features disabled, and with a pool large enough to never evict.
// ---------------------------------------------------------------------------

double RunIterativeScript(SystemDSContext::Builder builder) {
  auto ctx = builder.Build();
  const char* script = R"(
    X = rand(rows=200, cols=100, min=0, max=1, seed=42)
    Y = rand(rows=200, cols=100, min=0, max=1, seed=43)
    acc = matrix(0, rows=100, cols=100)
    for (i in 1:6) {
      G = t(X) %*% Y
      acc = acc + G * (1.0 / i)
      Z = X + Y
      s0 = sum(Z)
    }
    out = sum(acc)
    print(out)
  )";
  auto result = ctx->Execute(script, Inputs(), Outputs("out"));
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return 0.0;
  auto v = result->GetDouble("out");
  EXPECT_TRUE(v.ok());
  return v.ok() ? *v : 0.0;
}

TEST_F(BufferPoolAsyncTest, ResultsBitIdenticalAcrossPoolConfigurations) {
  double no_evictions =
      RunIterativeScript(SystemDSContext::Builder().BufferPoolLimit(1 << 30));
  double async_tiny = RunIterativeScript(
      SystemDSContext::Builder().BufferPoolLimit(64 * 1024));
  double sync_tiny =
      RunIterativeScript(SystemDSContext::Builder()
                             .BufferPoolLimit(64 * 1024)
                             .BufferPoolWriteBehind(false));
  // Bit-identical, not approximately equal: spill/restore round-trips and
  // background scheduling must not perturb a single bit of the result.
  EXPECT_EQ(no_evictions, async_tiny);
  EXPECT_EQ(no_evictions, sync_tiny);
  EXPECT_NE(no_evictions, 0.0);
}

}  // namespace
}  // namespace sysds
