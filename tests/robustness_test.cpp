// Robustness tests: failures injected *while* I/O is in flight, mixed
// concurrent traffic, rebuild under load, and engine-parameter properties.
#include <gtest/gtest.h>

#include "raid/controller.hpp"
#include "test_util.hpp"
#include "workload/parallel_io.hpp"

namespace raidx {
namespace {

using test::Rig;
using test::pattern_run;

sim::Task<> write_all(raid::IoEngine* eng, std::uint64_t lba,
                      std::uint32_t nblocks, std::uint8_t salt = 0) {
  const auto data = pattern_run(lba, nblocks, eng->block_bytes(), salt);
  co_await eng->write(0, lba, data);
}

sim::Task<> read_all(raid::IoEngine* eng, std::uint64_t lba,
                     std::uint32_t nblocks, std::vector<std::byte>* got,
                     int client = 1) {
  got->assign(static_cast<std::size_t>(nblocks) * eng->block_bytes(),
              std::byte{0});
  co_await eng->read(client, lba, nblocks, *got);
}

TEST(MidFlightFailure, RaidxReadSurvivesDiskDeathDuringTheRead) {
  Rig rig(test::small_cluster());
  raid::RaidxController eng(rig.fabric);
  rig.run(write_all(&eng, 0, 64));
  std::vector<std::byte> got;
  rig.sim.spawn(read_all(&eng, 0, 64, &got));
  // Let the read get partway, then kill a disk under it.
  rig.sim.run_until(rig.sim.now() + sim::milliseconds(40));
  rig.cluster.disk(1).fail();
  rig.sim.run();
  EXPECT_EQ(got, pattern_run(0, 64, eng.block_bytes()));
}

TEST(MidFlightFailure, Raid5ReadSurvivesDiskDeathDuringTheRead) {
  Rig rig(test::small_cluster());
  raid::Raid5Controller eng(rig.fabric);
  rig.run(write_all(&eng, 0, 64));
  std::vector<std::byte> got;
  rig.sim.spawn(read_all(&eng, 0, 64, &got));
  rig.sim.run_until(rig.sim.now() + sim::milliseconds(40));
  rig.cluster.disk(2).fail();
  rig.sim.run();
  EXPECT_EQ(got, pattern_run(0, 64, eng.block_bytes()));
}

TEST(MidFlightFailure, RaidxWriteDuringDiskDeathStaysDurable) {
  Rig rig(test::small_cluster());
  raid::RaidxController eng(rig.fabric);
  rig.sim.spawn(write_all(&eng, 0, 64, 3));
  rig.sim.run_until(rig.sim.now() + sim::milliseconds(60));
  rig.cluster.disk(3).fail();
  rig.sim.run();
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 64, &got));
  EXPECT_EQ(got, pattern_run(0, 64, eng.block_bytes(), 3));
}

TEST(RebuildUnderLoad, RaidxServesReadsWhileRebuilding) {
  Rig rig(test::small_cluster(4, 1, /*blocks_per_disk=*/200));
  raid::RaidxController eng(rig.fabric);
  rig.run(write_all(&eng, 0, 64, 5));
  rig.cluster.disk(2).fail();
  rig.cluster.disk(2).replace();

  auto rebuild = [](raid::RaidxController* e) -> sim::Task<> {
    co_await e->rebuild_disk(2, 2);
  };
  std::vector<std::byte> got1, got2;
  rig.sim.spawn(rebuild(&eng));
  rig.sim.spawn(read_all(&eng, 0, 64, &got1, 1));
  rig.sim.spawn(read_all(&eng, 0, 64, &got2, 3));
  rig.sim.run();
  EXPECT_EQ(got1, pattern_run(0, 64, eng.block_bytes(), 5));
  EXPECT_EQ(got2, pattern_run(0, 64, eng.block_bytes(), 5));
  // And the rebuilt disk serves afterwards, alone.
  rig.cluster.disk(0).fail();
  std::vector<std::byte> got3;
  rig.run(read_all(&eng, 0, 64, &got3, 1));
  EXPECT_EQ(got3, pattern_run(0, 64, eng.block_bytes(), 5));
}

// A second failure mid-sweep must abort the rebuild *cleanly*: IoError
// surfaces to the caller, and the half-rebuilt spare stays marked
// rebuilding at a frozen watermark.  The regression this guards: if the
// abort path ever marks the rebuild finished, the unrestored tail of the
// spare silently serves blank blocks instead of failing or degrading.
TEST(RebuildAbort, SecondFailureFreezesTheWatermarkOnRaid5) {
  Rig rig(test::small_cluster(4, 1, /*blocks_per_disk=*/200));
  raid::Raid5Controller eng(rig.fabric);
  rig.run(write_all(&eng, 0, 64, 6));
  rig.cluster.disk(2).fail();
  rig.cluster.disk(2).replace();

  bool aborted = false;
  auto rebuild = [](raid::Raid5Controller* e, bool* aborted) -> sim::Task<> {
    try {
      co_await e->rebuild_disk(2, 2);
    } catch (const raid::IoError&) {
      *aborted = true;
    }
  };
  rig.sim.spawn(rebuild(&eng, &aborted));
  // Let the sweep restore part of the disk, then kill one of its sources.
  rig.sim.run_until(rig.sim.now() + sim::milliseconds(30));
  rig.cluster.disk(0).fail();
  rig.sim.run();

  EXPECT_TRUE(aborted);
  EXPECT_TRUE(rig.cluster.disk(2).rebuilding());
  const std::uint64_t frozen = rig.cluster.disk(2).rebuild_watermark();
  EXPECT_GT(frozen, 0u);
  EXPECT_LT(frozen, 200u);
  rig.sim.run();
  EXPECT_EQ(rig.cluster.disk(2).rebuild_watermark(), frozen);

  // With disk 0 dead and disk 2 only partially restored, a read that
  // needs the unrestored tail must fail -- never serve the blank spare.
  bool read_failed = false;
  std::vector<std::byte> got;
  auto tail_read = [](raid::Raid5Controller* e, std::vector<std::byte>* got,
                      bool* failed) -> sim::Task<> {
    try {
      got->assign(64 * e->block_bytes(), std::byte{0});
      co_await e->read(1, 0, 64, *got);
    } catch (const raid::IoError&) {
      *failed = true;
    }
  };
  rig.run(tail_read(&eng, &got, &read_failed));
  EXPECT_TRUE(read_failed);
}

TEST(RebuildAbort, SecondFailureFreezesTheWatermarkOnRaidx) {
  Rig rig(test::small_cluster(4, 1, /*blocks_per_disk=*/200));
  raid::RaidxController eng(rig.fabric);
  rig.run(write_all(&eng, 0, 64, 7));
  rig.cluster.disk(1).fail();
  rig.cluster.disk(1).replace();

  bool aborted = false;
  auto rebuild = [](raid::RaidxController* e, bool* aborted) -> sim::Task<> {
    try {
      co_await e->rebuild_disk(1, 1);
    } catch (const raid::IoError&) {
      *aborted = true;
    }
  };
  rig.sim.spawn(rebuild(&eng, &aborted));
  rig.sim.run_until(rig.sim.now() + sim::milliseconds(30));
  rig.cluster.disk(3).fail();
  rig.sim.run();

  EXPECT_TRUE(aborted);
  EXPECT_TRUE(rig.cluster.disk(1).rebuilding());
  EXPECT_LT(rig.cluster.disk(1).rebuild_watermark(), 200u);
}

TEST(MixedTraffic, ReadersAndWritersOnDisjointRangesStayCorrect) {
  Rig rig(test::small_cluster());
  raid::RaidxController eng(rig.fabric);
  rig.run(write_all(&eng, 0, 32, 1));

  auto reader_loop = [](raid::RaidxController* e,
                        std::vector<std::byte>* out) -> sim::Task<> {
    for (int i = 0; i < 4; ++i) {
      out->assign(32 * e->block_bytes(), std::byte{0});
      co_await e->read(1, 0, 32, *out);
    }
  };
  auto writer_loop = [](raid::RaidxController* e) -> sim::Task<> {
    for (int i = 0; i < 4; ++i) {
      const auto data = pattern_run(64, 32, e->block_bytes(),
                                    static_cast<std::uint8_t>(i));
      co_await e->write(2, 64, data);
    }
  };
  std::vector<std::byte> reader_saw;
  rig.sim.spawn(reader_loop(&eng, &reader_saw));
  rig.sim.spawn(writer_loop(&eng));
  rig.sim.run();
  // The reader's range was never written concurrently: always salt 1.
  EXPECT_EQ(reader_saw, pattern_run(0, 32, eng.block_bytes(), 1));
  // The writer's final state is its last round.
  std::vector<std::byte> final_state;
  rig.run(read_all(&eng, 64, 32, &final_state));
  EXPECT_EQ(final_state, pattern_run(64, 32, eng.block_bytes(), 3));
}

// ---- engine-parameter properties -------------------------------------------

struct WindowCase {
  int window;
};

class WindowSweep : public ::testing::TestWithParam<WindowCase> {};

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(WindowCase{1}, WindowCase{2},
                                           WindowCase{4}, WindowCase{8}),
                         [](const auto& info) {
                           std::string name = "w";
                           name += std::to_string(info.param.window);
                           return name;
                         });

TEST_P(WindowSweep, RoundTripsHoldAtEveryWindow) {
  raid::EngineParams ep;
  ep.read_window = GetParam().window;
  ep.write_window = GetParam().window;
  Rig rig(test::small_cluster());
  raid::RaidxController eng(rig.fabric, ep);
  rig.run(write_all(&eng, 2, 50, 8));
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 2, 50, &got));
  EXPECT_EQ(got, pattern_run(2, 50, eng.block_bytes(), 8));
}

TEST(WindowProperty, WiderWindowsNeverSlowASingleStream) {
  auto time_read = [](int window) {
    auto params = test::small_cluster(4, 1, 4096, 32'768);
    params.disk.store_data = false;
    Rig rig(params);
    raid::EngineParams ep;
    ep.read_window = window;
    raid::RaidxController eng(rig.fabric, ep);
    workload::ParallelIoConfig cfg;
    cfg.clients = 1;
    cfg.op = workload::IoOp::kRead;
    cfg.bytes_per_op = 64ull * 32'768;
    return workload::run_parallel_io(eng, cfg).elapsed;
  };
  const auto w1 = time_read(1);
  const auto w2 = time_read(2);
  const auto w8 = time_read(8);
  EXPECT_LE(w2, w1);
  EXPECT_LE(w8, w2);
}

TEST(LocksProperty, DisablingLocksPreservesSingleWriterResults) {
  for (bool locks : {true, false}) {
    raid::EngineParams ep;
    ep.use_locks = locks;
    Rig rig(test::small_cluster());
    raid::RaidxController eng(rig.fabric, ep);
    rig.run(write_all(&eng, 0, 40, 2));
    std::vector<std::byte> got;
    rig.run(read_all(&eng, 0, 40, &got));
    EXPECT_EQ(got, pattern_run(0, 40, eng.block_bytes(), 2))
        << "locks=" << locks;
  }
}

TEST(ChunkProperty, LargerReadChunksReduceDiskOps) {
  auto count_ops = [](std::uint32_t chunk) {
    raid::EngineParams ep;
    ep.read_chunk_blocks = chunk;
    Rig rig(test::small_cluster());
    raid::RaidxController eng(rig.fabric, ep);
    auto scenario = [](raid::RaidxController* e) -> sim::Task<> {
      std::vector<std::byte> buf(64 * e->block_bytes());
      co_await e->read(0, 0, 64, buf);
    };
    rig.run(scenario(&eng));
    std::uint64_t ops = 0;
    for (int d = 0; d < 4; ++d) ops += rig.cluster.disk(d).reads();
    return ops;
  };
  EXPECT_GT(count_ops(1), count_ops(8));
}

sim::Task<> client_write(raid::IoEngine* eng, int client, std::uint64_t lba,
                         std::uint32_t nblocks) {
  const auto data = pattern_run(lba, nblocks, eng->block_bytes());
  co_await eng->write(client, lba, data);
}

TEST(MidFlightTeardown, StoppingMidBroadcastTearsDownCleanly) {
  // A paper16-like run: 16 nodes x 1 disk, every node a writing client,
  // each grant and release of a per-block lock group broadcast to 15
  // peers.  Stop it with broadcasts, sends and receive charges in flight,
  // then tear the world down the way raidxsim does: shutdown() first,
  // while everything the suspended frames touch is alive.  Sanitizer
  // builds check that nothing is leaked or touched after it is freed.
  constexpr int kNodes = 16;
  constexpr std::uint32_t kBlocks = 32;
  Rig rig(test::small_cluster(kNodes, 1, 1024, 4096));
  raid::RaidxController eng(rig.fabric);
  for (int c = 0; c < kNodes; ++c) {
    rig.sim.spawn(client_write(&eng, c, static_cast<std::uint64_t>(c) *
                                            kBlocks, kBlocks));
  }
  ASSERT_FALSE(rig.sim.run_until(sim::milliseconds(20)));
  std::size_t in_flight = 0;
  for (int n = 0; n < kNodes; ++n) {
    in_flight += rig.fabric.service(n).broadcasts_in_flight();
  }
  EXPECT_GT(in_flight, 0u);
  rig.sim.shutdown();
  EXPECT_EQ(rig.sim.pending_events(), 0u);
}

}  // namespace
}  // namespace raidx
