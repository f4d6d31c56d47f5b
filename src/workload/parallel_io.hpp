// Parallel disk-I/O workload of Section 5.1 / Fig. 5.
//
// N clients, one per cluster node (wrapping round-robin beyond n), each
// access a private file striped across the whole array.  All clients start
// simultaneously behind a barrier (the paper uses MPI_Barrier()).  Large
// accesses move one 64 MB file per client; small accesses move one 32 KB
// block at a time at scattered positions.  The result is the aggregate
// bandwidth over the span from the first client's start to the last
// client's completion -- the quantity plotted in Fig. 5.
#pragma once

#include <cstdint>
#include <vector>

#include "raid/controller.hpp"
#include "sim/stats.hpp"

namespace raidx::workload {

enum class IoOp { kRead, kWrite };

struct ParallelIoConfig {
  int clients = 1;
  IoOp op = IoOp::kRead;
  /// Bytes moved per operation (the paper: 64 MB large, 32 KB small).
  std::uint64_t bytes_per_op = 64ull << 20;
  /// Operations issued by each client (1 for large, many for small).
  int ops_per_client = 1;
  /// Scatter small ops uniformly over the client's region instead of
  /// advancing sequentially.
  bool scattered = false;
  /// Working-set size per client for scattered ops, in blocks.  Regions
  /// are sized to the workload (not to each layout's capacity) so every
  /// architecture sees the same physical footprint and seek spans --
  /// otherwise smaller-capacity layouts get artificially short seeks.
  std::uint64_t scatter_region_blocks = 2048;
  /// Node that hosts no client (the NFS server: the paper's clients are
  /// distinct from the file server).  -1 = clients on every node.
  int exclude_node = -1;
  /// Unmeasured passes over the same access sequence before the measured
  /// one, barrier-synced, to warm an attached block cache.  0 keeps the
  /// seed's single-pass behavior (and its exact event sequence).
  int warm_passes = 0;
  std::uint64_t seed = 42;
};

struct ClientResult {
  sim::Time start = 0;
  sim::Time end = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;  // measured-pass ops that returned
};

struct ParallelIoResult {
  /// Aggregate bandwidth over [min start, max end] -- Fig. 5's y-axis.
  /// For RAID-x this excludes background image flushes still in flight
  /// when the last client finishes (the OSM "hiding" effect).
  double aggregate_mbs = 0.0;
  /// Aggregate bandwidth counting the full drain of deferred work -- the
  /// sustained steady-state figure.
  double sustained_mbs = 0.0;
  sim::Time elapsed = 0;
  std::vector<ClientResult> clients;
  sim::LatencyRecorder op_latency;
  /// Simulated time spent draining deferred work after the last client
  /// finished (RAID-x background image flushes).
  sim::Time background_drain = 0;
  /// Ops of the measured pass: issued counts every op the clients issue
  /// back to back (clients x ops_per_client), completed the ones that
  /// returned.  The simulation stops once no event is left, so a client
  /// stuck on a request nothing will ever answer -- a partition that
  /// outlives its retries -- ends the run early with completed < issued
  /// (and every bandwidth figure above meaningless).
  std::uint64_t ops_issued = 0;
  std::uint64_t ops_completed = 0;
};

/// Run the workload to completion (including background flushes) on a
/// freshly built engine.  The engine's logical space is carved into one
/// private region per client.
ParallelIoResult run_parallel_io(raid::ArrayController& engine,
                                 const ParallelIoConfig& config);

}  // namespace raidx::workload
