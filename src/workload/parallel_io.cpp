#include "workload/parallel_io.hpp"

#include <cassert>
#include <stdexcept>

#include "block/payload.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"

namespace raidx::workload {

namespace {

struct Shared {
  raid::ArrayController& engine;
  const ParallelIoConfig& config;
  sim::Barrier barrier;
  std::vector<ClientResult>& results;
  sim::LatencyRecorder& latency;
};

sim::Task<> client_task(Shared& sh, int client_idx, std::uint64_t region_lba,
                        std::uint64_t region_blocks, sim::Rng rng) {
  auto& sim = sh.engine.fabric().cluster().sim();
  const int num_nodes = sh.engine.fabric().cluster().num_nodes();
  int node;
  if (sh.config.exclude_node >= 0) {
    node = client_idx % (num_nodes - 1);
    if (node >= sh.config.exclude_node) ++node;
  } else {
    node = client_idx % num_nodes;
  }
  const std::uint32_t bs = sh.engine.block_bytes();
  const auto blocks_per_op =
      static_cast<std::uint32_t>(sh.config.bytes_per_op / bs);
  assert(blocks_per_op > 0);
  const std::size_t op_bytes = static_cast<std::size_t>(blocks_per_op) * bs;
  // Reads land in a real buffer; writes carry a zero-run payload -- the
  // simulated timing depends only on sizes, and skipping the per-client
  // gigabytes of host memory is what keeps the large sweeps fast.
  std::vector<std::byte> buffer(sh.config.op == IoOp::kRead ? op_bytes : 0);
  const block::Payload wpayload = block::Payload::zeros(op_bytes);

  // Draw the whole access sequence up front (pure RNG, no simulated time)
  // so warm passes replay exactly the LBAs the measured pass will touch.
  std::vector<std::uint64_t> lbas(
      static_cast<std::size_t>(sh.config.ops_per_client));
  std::uint64_t pos = region_lba;
  for (int i = 0; i < sh.config.ops_per_client; ++i) {
    if (sh.config.scattered) {
      lbas[static_cast<std::size_t>(i)] =
          region_lba + rng.uniform_u64(0, region_blocks - blocks_per_op);
    } else {
      lbas[static_cast<std::size_t>(i)] = pos;
      pos += blocks_per_op;
      if (pos + blocks_per_op > region_lba + region_blocks) pos = region_lba;
    }
  }

  ClientResult& r = sh.results[static_cast<std::size_t>(client_idx)];
  for (int pass = 0; pass <= sh.config.warm_passes; ++pass) {
    const bool measured = pass == sh.config.warm_passes;
    co_await sh.barrier.arrive_and_wait();
    if (measured) r.start = sim.now();
    for (int i = 0; i < sh.config.ops_per_client; ++i) {
      const std::uint64_t lba = lbas[static_cast<std::size_t>(i)];
      const sim::Time t0 = sim.now();
      {
        obs::Span op = obs::trace_span(
            sim, {}, "workload.op", obs::Track::kRequest, node,
            obs::SpanArgs{}
                .tag("client", client_idx)
                .tag("node", node)
                .tag("lba", static_cast<std::int64_t>(lba))
                .tag("write", sh.config.op == IoOp::kWrite ? 1 : 0)
                .tag("measured", measured ? 1 : 0));
        if (sh.config.op == IoOp::kRead) {
          co_await sh.engine.read(node, lba, blocks_per_op, buffer,
                                  op.ctx());
        } else {
          co_await sh.engine.write(node, lba, wpayload, op.ctx());
        }
      }
      if (measured) {
        sh.latency.add(sim.now() - t0);
        r.bytes += sh.config.bytes_per_op;
        ++r.ops;
        if (obs::Hub* hub = sim.hub()) {
          hub->registry()
              .histogram(sh.config.op == IoOp::kRead
                             ? "workload.op_latency_us.read"
                             : "workload.op_latency_us.write")
              .observe(static_cast<std::uint64_t>((sim.now() - t0) / 1000));
        }
      }
    }
  }
  r.end = sim.now();
}

}  // namespace

ParallelIoResult run_parallel_io(raid::ArrayController& engine,
                                 const ParallelIoConfig& config) {
  auto& sim = engine.fabric().cluster().sim();
  const std::uint32_t bs = engine.block_bytes();
  if (config.bytes_per_op % bs != 0) {
    throw std::invalid_argument("bytes_per_op must be whole blocks");
  }
  // Size regions to the workload, not to the layout's capacity: every
  // architecture then covers the same physical footprint.
  const std::uint64_t needed =
      config.scattered
          ? std::max(config.bytes_per_op / bs, config.scatter_region_blocks)
          : static_cast<std::uint64_t>(config.ops_per_client) *
                (config.bytes_per_op / bs);
  const std::uint64_t region_blocks = needed;
  if (region_blocks * static_cast<std::uint64_t>(config.clients) >
      engine.logical_blocks()) {
    throw std::invalid_argument("client region too small for workload");
  }

  ParallelIoResult result;
  result.clients.resize(static_cast<std::size_t>(config.clients));

  Shared sh{engine, config, sim::Barrier(sim, config.clients),
            result.clients, result.op_latency};
  sim::Rng root(config.seed);
  for (int c = 0; c < config.clients; ++c) {
    sim.spawn(client_task(sh, c,
                          static_cast<std::uint64_t>(c) * region_blocks,
                          region_blocks, root.fork()));
  }
  sim.run();  // drains foreground and background alike

  // Write-back caches may still hold dirty blocks below the flusher's
  // high-water mark; drain them so the sustained figure pays for every
  // deferred write (the same accounting RAID-x image flushes get).
  if (engine.cache() != nullptr) {
    sim.spawn(engine.flush_cache());
    sim.run();
  }

  sim::Time first = -1, last = 0;
  std::uint64_t bytes = 0;
  for (const auto& cr : result.clients) {
    if (first < 0 || cr.start < first) first = cr.start;
    if (cr.end > last) last = cr.end;
    bytes += cr.bytes;
    result.ops_completed += cr.ops;
  }
  result.ops_issued = static_cast<std::uint64_t>(config.clients) *
                      static_cast<std::uint64_t>(config.ops_per_client);
  result.elapsed = last - first;
  result.aggregate_mbs = sim::bandwidth_mbs(bytes, result.elapsed);
  result.background_drain = sim.now() - last;
  result.sustained_mbs = sim::bandwidth_mbs(bytes, sim.now() - first);
  return result;
}

}  // namespace raidx::workload
