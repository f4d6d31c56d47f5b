// raidxsim -- command-line experiment runner for the RAID-x simulator.
//
// Lets a user sweep any point of the design space without writing code:
//
//   raidxsim --arch raidx --nodes 16 --disks 1 --clients 8
//            --op read --bytes 64M --ops 1
//   raidxsim --arch raid5 --clients 16 --op write --bytes 32K --ops 40
//            --scattered --fail 3
//   raidxsim --arch nfs --clients 12 --op read --bytes 8M --verbose
//
// Prints aggregate and sustained bandwidth, per-op latency percentiles,
// and per-resource utilization.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <fstream>

#include "cache/cache_fabric.hpp"
#include "cluster/cluster.hpp"
#include "cluster/sharded.hpp"
#include "ha/fault_plan.hpp"
#include "ha/ha.hpp"
#include "integrity/integrity.hpp"
#include "load/open_loop.hpp"
#include "load/qos.hpp"
#include "nfs/nfs.hpp"
#include "obs/collect.hpp"
#include "obs/obs.hpp"
#include "sim/stats.hpp"
#include "wan/federation.hpp"
#include "workload/andrew.hpp"
#include "workload/engines.hpp"
#include "workload/parallel_io.hpp"
#include "workload/trace.hpp"

using namespace raidx;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --arch raid0|raid5|raid10|raidx|nfs   architecture (default raidx)\n"
      "  --nodes N          cluster nodes (default 16)\n"
      "  --shards S         partition the cluster into S placement groups\n"
      "                     simulated in parallel under conservative time-\n"
      "                     window sync (default 1 = the classic engine).\n"
      "                     S > 1 needs --open-loop, nodes divisible by S,\n"
      "                     and at least 2 nodes per shard\n"
      "  --threads T        worker threads driving the shards (default =\n"
      "                     shards; changes wall-clock only, never results)\n"
      "  --sites S          federate S identical sites (each a full\n"
      "                     --nodes x --disks cluster) over a WAN mesh\n"
      "                     (default 1 = the classic engine).  S > 1 needs\n"
      "                     --open-loop and conflicts with --shards\n"
      "  --wan-rtt MS       inter-site round-trip propagation (default 40)\n"
      "  --wan-bw MBS       inter-site link bandwidth, MB/s (default 60)\n"
      "  --wan-window SZ    per-flow in-flight window, K/M suffix ok\n"
      "                     (default 1M; below the BDP it caps each flow\n"
      "                     at window/RTT)\n"
      "  --geo-rep          asynchronously mirror each site's primary\n"
      "                     region to every peer (bounded-staleness\n"
      "                     accounting; reads degrade to the mirror when\n"
      "                     the origin is unreachable)\n"
      "  --geo-rep-mbs X    throttle each replication stream's catch-up at\n"
      "                     X MB/s (default 0 = uncapped)\n"
      "  --disks K          disks per node (default 1)\n"
      "  --clients C        parallel clients (default 8)\n"
      "  --op read|write    operation (default read)\n"
      "  --bytes SZ         bytes per op, accepts K/M suffix (default 64M)\n"
      "  --ops N            ops per client (default 1)\n"
      "  --scattered        scatter ops over the client region\n"
      "  --block SZ         stripe unit (default 32K)\n"
      "  --fail D           fail disk D before the run (repeatable)\n"
      "  --disk-type T      hdd|ssd|hybrid device mix (default hdd).\n"
      "                     ssd and hybrid accept ':key=val,...' tuning:\n"
      "                       op=F            over-provisioning fraction "
      "(default 0.07)\n"
      "                       gc=greedy|costben  victim selection (default "
      "greedy)\n"
      "                     hybrid splits each node's disks: top half SSD\n"
      "                     (data), bottom half HDD (mirror images); needs\n"
      "                     --arch raid1|raid10|raidx and an even --disks\n"
      "                     (raid1: even/odd disk of each pair instead)\n"
      "  --no-bg-mirrors    RAID-x: synchronous image writes\n"
      "  --no-locks         disable lock-group traffic\n"
      "  --window W         outstanding chunks per stream (default 2)\n"
      "  --cache-mb MB      per-node block cache capacity (default 0 = "
      "off)\n"
      "  --cache-policy P   none|wt|wb: write-through or write-back "
      "(default wt)\n"
      "  --cache-evict E    lru|2q eviction (default lru)\n"
      "  --coop-cache       serve misses from peer memory (cooperative)\n"
      "  --warm N           unmeasured warm passes before the measured run\n"
      "  --workload W       io|andrew: synthetic parallel I/O (default) or\n"
      "                     the 5-phase Andrew benchmark (stores real bytes)\n"
      "  --faults SPEC      chaos plan, e.g. 'fail:disk=3@2s;heal:disk=3@8s'\n"
      "                     or 'rand:seed=7,faults=2,window=10s,heal=3s';\n"
      "                     implies --ha unless --no-ha is given.  Silent\n"
      "                     corruption: 'corrupt:disk=3,block=17@2s' or\n"
      "                     'rot:seed=7,errors=5,window=10s' (bit-rot storm).\n"
      "                     WAN chaos (needs --sites > 1):\n"
      "                     'partition:site=1@5s;heal:site=1@15s' or\n"
      "                     'brownout:link=0,bw=5@3s;heal:link=0@9s'\n"
      "  --verify-reads     checksum-verify every read at the serving CDD\n"
      "  --scrub-rate X     background scrub daemon capped at X MB/s\n"
      "                     (default 0 = no scrubbing)\n"
      "  --fail-threshold N escalate a disk to whole-disk failure after N\n"
      "                     detected corrupt blocks (default 0 = off)\n"
      "  --ha               enable recovery orchestration (detector, hot\n"
      "                     spares, auto-rebuild)\n"
      "  --no-ha            inject --faults without any orchestration\n"
      "  --spares N         hot spares per node (default 1)\n"
      "  --global-spares N  shared overflow spare pool (default 0)\n"
      "  --rebuild-mbs X    cap auto-rebuild writes at X MB/s (default 0 = "
      "uncapped)\n"
      "  --timeout-ms X     client-side CDD timeout on remote read/write "
      "RPCs\n"
      "                     (default 0 = wait forever; required with "
      "part: faults)\n"
      "  --open-loop SPEC   open-loop (rate-driven) traffic instead of the\n"
      "                     closed-loop synthetic workload.  SPEC is\n"
      "                     comma-separated key=value pairs:\n"
      "                       rate=OPS        arrivals/s per tenant "
      "(default 1000)\n"
      "                       dist=poisson|burst  arrival process (default "
      "poisson)\n"
      "                       zipf=A          Zipf skew over the working set "
      "(default 0 = uniform)\n"
      "                       tenants=N       tenants sharing the array "
      "(default 1)\n"
      "                       sessions=N      client sessions per tenant "
      "(default 1024)\n"
      "                       duration=S      arrival window in seconds "
      "(default 1)\n"
      "                       write=F         write fraction (default 0)\n"
      "                       req-blocks=N    blocks per request (default 1)\n"
      "                       ws=BLOCKS       working-set blocks per tenant "
      "(default 4096)\n"
      "                       qos-mbs=X       per-tenant token-bucket rate "
      "(default 0 = no gate)\n"
      "                       qos-burst=MB    token-bucket burst (default 1)\n"
      "                       qos-policy=reject|queue|shed  (default shed)\n"
      "                       burst-on=S burst-off=S burst-mult=X  ON-OFF "
      "shape (dist=burst)\n"
      "                       cap=N           max requests in flight "
      "(default 4M)\n"
      "                       remote=F        fraction of arrivals executed\n"
      "                     on the next shard over the spine (needs --shards "
      "> 1)\n"
      "                     or on a peer site over the WAN (with --sites > "
      "1)\n"
      "  --seed S           workload seed (default 42)\n"
      "  --replay FILE      replay a block trace instead of the synthetic "
      "workload\n"
      "  --dump-trace FILE  write a generated trace (clients/ops/seed "
      "apply) and exit\n"
      "  --trace FILE       write a Chrome trace-event JSON of the run "
      "(view in about:tracing / Perfetto)\n"
      "  --trace-sample SPEC  selective tracing (needs --trace): head-based\n"
      "                     sampling plus an always-capture reservoir of "
      "the\n"
      "                     slowest completed requests.  key=value pairs:\n"
      "                       p=0.01 reservoir=16 seed=1\n"
      "  --slo SPEC         latency SLO monitor over open-loop traffic; "
      "burn-\n"
      "                     rate breach/recovery events land in the "
      "cluster\n"
      "                     event log.  key=value pairs (defaults shown):\n"
      "                       target=50ms objective=0.999 window=500ms "
      "burn=2\n"
      "  --watch SPEC       sim-time series scraper; prints a sparkline "
      "table\n"
      "                     after the run.  key=value pairs:\n"
      "                       interval=250ms samples=240 out=FILE (JSON)\n"
      "  --metrics FILE     write the metrics-registry snapshot as JSON\n"
      "                     (with --slo the file becomes "
      "{\"metrics\":...,\"events\":[...]})\n"
      "  --verbose          per-client and per-resource detail\n"
      "Flags also accept --flag=value form.\n",
      argv0);
  std::exit(2);
}

std::uint64_t parse_size(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  std::uint64_t mult = 1;
  if (end && *end) {
    switch (*end) {
      case 'k': case 'K': mult = 1024; break;
      case 'm': case 'M': mult = 1024 * 1024; break;
      case 'g': case 'G': mult = 1024ull * 1024 * 1024; break;
      default:
        std::fprintf(stderr, "bad size suffix: %s\n", s.c_str());
        std::exit(2);
    }
  }
  return static_cast<std::uint64_t>(v * static_cast<double>(mult));
}

/// Parsed --open-loop spec: every tenant gets the same shape; the QoS keys
/// build one gate covering them all (qos-mbs=0 means no gate at all).
struct OpenLoopCli {
  int tenants = 1;
  load::TenantLoad shape;
  double duration_s = 1.0;
  std::size_t cap = std::size_t{1} << 22;
  double qos_mbs = 0.0;
  double qos_burst_mb = 1.0;
  load::AdmitPolicy policy = load::AdmitPolicy::kShed;
  double remote = 0.0;  // cross-shard fraction (needs --shards > 1)
};

OpenLoopCli parse_open_loop_spec(const char* argv0, const std::string& spec) {
  OpenLoopCli cli;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string kv = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "%s: --open-loop clause '%s' is not key=value\n",
                   argv0, kv.c_str());
      std::exit(2);
    }
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "rate") cli.shape.rate_ops = std::atof(val.c_str());
    else if (key == "dist") {
      if (val == "poisson") cli.shape.dist = load::ArrivalDist::kPoisson;
      else if (val == "burst") cli.shape.dist = load::ArrivalDist::kBurst;
      else {
        std::fprintf(stderr, "%s: --open-loop dist=%s (poisson|burst)\n",
                     argv0, val.c_str());
        std::exit(2);
      }
    }
    else if (key == "zipf") cli.shape.zipf_alpha = std::atof(val.c_str());
    else if (key == "tenants") cli.tenants = std::atoi(val.c_str());
    else if (key == "sessions") cli.shape.sessions = std::atoi(val.c_str());
    else if (key == "duration") cli.duration_s = std::atof(val.c_str());
    else if (key == "write") cli.shape.write_fraction = std::atof(val.c_str());
    else if (key == "req-blocks") {
      cli.shape.blocks_per_op =
          static_cast<std::uint32_t>(std::atoi(val.c_str()));
    }
    else if (key == "ws") {
      cli.shape.working_set_blocks =
          static_cast<std::uint64_t>(std::atoll(val.c_str()));
    }
    else if (key == "qos-mbs") cli.qos_mbs = std::atof(val.c_str());
    else if (key == "qos-burst") cli.qos_burst_mb = std::atof(val.c_str());
    else if (key == "qos-policy") {
      if (val == "reject") cli.policy = load::AdmitPolicy::kReject;
      else if (val == "queue") cli.policy = load::AdmitPolicy::kQueue;
      else if (val == "shed") cli.policy = load::AdmitPolicy::kShed;
      else {
        std::fprintf(stderr,
                     "%s: --open-loop qos-policy=%s (reject|queue|shed)\n",
                     argv0, val.c_str());
        std::exit(2);
      }
    }
    else if (key == "burst-on") cli.shape.burst_on_s = std::atof(val.c_str());
    else if (key == "burst-off") cli.shape.burst_off_s = std::atof(val.c_str());
    else if (key == "burst-mult") cli.shape.burst_mult = std::atof(val.c_str());
    else if (key == "cap") {
      cli.cap = static_cast<std::size_t>(std::atoll(val.c_str()));
    }
    else if (key == "remote") cli.remote = std::atof(val.c_str());
    else {
      std::fprintf(stderr, "%s: --open-loop has no key '%s'\n", argv0,
                   key.c_str());
      std::exit(2);
    }
  }
  if (cli.tenants < 1 || cli.shape.rate_ops <= 0.0 ||
      cli.shape.sessions < 1 || cli.duration_s <= 0.0 ||
      cli.shape.blocks_per_op < 1 || cli.shape.zipf_alpha < 0.0 ||
      cli.shape.write_fraction < 0.0 || cli.shape.write_fraction > 1.0) {
    std::fprintf(stderr,
                 "%s: --open-loop needs tenants/rate/sessions/duration/"
                 "req-blocks > 0, zipf >= 0, write in [0,1]\n",
                 argv0);
    std::exit(2);
  }
  if (cli.remote < 0.0 || cli.remote > 1.0) {
    std::fprintf(stderr, "%s: --open-loop remote=F needs F in [0,1]\n",
                 argv0);
    std::exit(2);
  }
  return cli;
}

/// Parsed --disk-type: which device model backs each array slot, plus the
/// flash tuning shared by every SSD in the run.
struct DiskTypeCli {
  enum class Kind { kHdd, kSsd, kHybrid };
  Kind kind = Kind::kHdd;
  flash::FlashParams flash;
};

/// "hdd", "ssd", "hybrid", optionally ':key=val,...' (ssd/hybrid only).
/// A malformed clause cites itself verbatim and exits 2, same convention
/// as --faults and --open-loop.
DiskTypeCli parse_disk_type_spec(const char* argv0, const std::string& spec) {
  DiskTypeCli cli;
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (kind == "hdd") cli.kind = DiskTypeCli::Kind::kHdd;
  else if (kind == "ssd") cli.kind = DiskTypeCli::Kind::kSsd;
  else if (kind == "hybrid") cli.kind = DiskTypeCli::Kind::kHybrid;
  else {
    std::fprintf(stderr, "%s: --disk-type %s (hdd|ssd|hybrid)\n", argv0,
                 kind.c_str());
    std::exit(2);
  }
  if (colon == std::string::npos) return cli;
  if (cli.kind == DiskTypeCli::Kind::kHdd) {
    std::fprintf(stderr,
                 "%s: --disk-type hdd takes no tuning spec ('%s' tunes the "
                 "flash model; use ssd:... or hybrid:...)\n",
                 argv0, spec.substr(colon + 1).c_str());
    std::exit(2);
  }
  const std::string tail = spec.substr(colon + 1);
  std::size_t pos = 0;
  while (pos < tail.size()) {
    std::size_t comma = tail.find(',', pos);
    if (comma == std::string::npos) comma = tail.size();
    const std::string kv = tail.substr(pos, comma - pos);
    pos = comma + 1;
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "%s: --disk-type clause '%s' is not key=value\n",
                   argv0, kv.c_str());
      std::exit(2);
    }
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "op") {
      cli.flash.over_provision = std::atof(val.c_str());
      if (cli.flash.over_provision < 0.0 ||
          cli.flash.over_provision >= 1.0) {
        std::fprintf(stderr,
                     "%s: --disk-type op=%s needs a fraction in [0,1)\n",
                     argv0, val.c_str());
        std::exit(2);
      }
    } else if (key == "gc") {
      if (val == "greedy") cli.flash.gc_policy = flash::GcPolicy::kGreedy;
      else if (val == "costben") {
        cli.flash.gc_policy = flash::GcPolicy::kCostBenefit;
      } else {
        std::fprintf(stderr, "%s: --disk-type gc=%s (greedy|costben)\n",
                     argv0, val.c_str());
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "%s: --disk-type has no key '%s'\n", argv0,
                   key.c_str());
      std::exit(2);
    }
  }
  return cli;
}

/// Shared clause scanner for the telemetry specs (--slo, --watch,
/// --trace-sample): comma-separated key=value pairs, same grammar as
/// --open-loop.  A malformed clause cites itself verbatim and exits 2.
template <typename Fn>
void for_each_clause(const char* argv0, const char* flag,
                     const std::string& spec, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string kv = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "%s: %s clause '%s' is not key=value\n", argv0,
                   flag, kv.c_str());
      std::exit(2);
    }
    fn(kv.substr(0, eq), kv.substr(eq + 1));
  }
}

/// "250ms", "0.5s", "800us", or a bare number (milliseconds).
sim::Time parse_duration(const char* argv0, const char* flag,
                         const std::string& val) {
  char* end = nullptr;
  const double v = std::strtod(val.c_str(), &end);
  double ms = v;
  if (end != nullptr && *end != '\0') {
    if (std::strcmp(end, "ms") == 0) ms = v;
    else if (std::strcmp(end, "s") == 0) ms = v * 1e3;
    else if (std::strcmp(end, "us") == 0) ms = v / 1e3;
    else {
      std::fprintf(stderr, "%s: %s duration '%s' (use us/ms/s)\n", argv0,
                   flag, val.c_str());
      std::exit(2);
    }
  }
  if (ms <= 0.0) {
    std::fprintf(stderr, "%s: %s duration '%s' must be > 0\n", argv0, flag,
                 val.c_str());
    std::exit(2);
  }
  return sim::milliseconds(ms);
}

obs::SloConfig parse_slo_spec(const char* argv0, const std::string& spec) {
  obs::SloConfig cfg;
  for_each_clause(argv0, "--slo", spec,
                  [&](const std::string& key, const std::string& val) {
    if (key == "target") cfg.latency_target = parse_duration(argv0, "--slo", val);
    else if (key == "objective") cfg.objective = std::atof(val.c_str());
    else if (key == "window") cfg.window = parse_duration(argv0, "--slo", val);
    else if (key == "burn") cfg.burn_alert = std::atof(val.c_str());
    else {
      std::fprintf(stderr, "%s: --slo has no key '%s'\n", argv0, key.c_str());
      std::exit(2);
    }
  });
  if (cfg.objective <= 0.0 || cfg.objective >= 1.0 || cfg.burn_alert <= 0.0) {
    std::fprintf(stderr,
                 "%s: --slo needs objective in (0,1) and burn > 0\n", argv0);
    std::exit(2);
  }
  return cfg;
}

struct WatchCli {
  sim::Time interval = sim::milliseconds(250);
  std::size_t samples = 240;
  std::string out;
};

WatchCli parse_watch_spec(const char* argv0, const std::string& spec) {
  WatchCli cli;
  for_each_clause(argv0, "--watch", spec,
                  [&](const std::string& key, const std::string& val) {
    if (key == "interval") cli.interval = parse_duration(argv0, "--watch", val);
    else if (key == "samples") {
      cli.samples = static_cast<std::size_t>(std::atoll(val.c_str()));
    }
    else if (key == "out") cli.out = val;
    else {
      std::fprintf(stderr, "%s: --watch has no key '%s'\n", argv0,
                   key.c_str());
      std::exit(2);
    }
  });
  if (cli.samples < 2) {
    std::fprintf(stderr, "%s: --watch needs samples >= 2\n", argv0);
    std::exit(2);
  }
  return cli;
}

obs::SampleConfig parse_trace_sample_spec(const char* argv0,
                                          const std::string& spec) {
  obs::SampleConfig cfg;
  for_each_clause(argv0, "--trace-sample", spec,
                  [&](const std::string& key, const std::string& val) {
    if (key == "p") cfg.probability = std::atof(val.c_str());
    else if (key == "reservoir") {
      cfg.reservoir = static_cast<std::size_t>(std::atoll(val.c_str()));
    }
    else if (key == "seed") {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(val.c_str()));
    }
    else {
      std::fprintf(stderr, "%s: --trace-sample has no key '%s'\n", argv0,
                   key.c_str());
      std::exit(2);
    }
  });
  if (cfg.probability < 0.0 || cfg.probability > 1.0 ||
      (cfg.probability == 0.0 && cfg.reservoir == 0)) {
    std::fprintf(stderr,
                 "%s: --trace-sample needs p in [0,1] and at least one of "
                 "p > 0 or reservoir > 0\n",
                 argv0);
    std::exit(2);
  }
  return cfg;
}

workload::Arch parse_arch(const std::string& s) {
  if (s == "raid0") return workload::Arch::kRaid0;
  if (s == "raid5") return workload::Arch::kRaid5;
  if (s == "raid10") return workload::Arch::kRaid10;
  if (s == "raidx") return workload::Arch::kRaidX;
  if (s == "nfs") return workload::Arch::kNfs;
  std::fprintf(stderr, "unknown arch: %s\n", s.c_str());
  std::exit(2);
}

// A run can end with processes still suspended (requests outliving their
// RPC timeouts, clients stuck behind a partition).  Their frames hold
// references into the cluster, fabric, engine and hub, all of which are
// declared after the Simulation and so die before it.  Declared after the
// last of them, this destroys those frames while everything they touch is
// still alive.
struct Teardown {
  sim::Simulation& sim;
  ~Teardown() { sim.shutdown(); }
};

}  // namespace

int main(int argc, char** argv) {
  workload::Arch arch = workload::Arch::kRaidX;
  int nodes = 16, disks = 1, clients = 8, ops = 1, window = 2;
  int shards = 1, threads = 0;
  std::uint64_t bytes = 64ull << 20;
  std::uint32_t block = 32'768;
  bool is_write = false, scattered = false, verbose = false;
  bool bg_mirrors = true, locks = true;
  std::uint64_t seed = 42;
  std::vector<int> fails;
  std::string replay_file, dump_trace_file, trace_out, metrics_out;
  double cache_mb = 0.0;
  std::string cache_policy = "wt";
  std::string cache_evict = "lru";
  bool coop_cache = false;
  int warm = 0;
  std::string workload_kind = "io";
  std::string faults_spec;
  bool ha_on = false, no_ha = false;
  int spares = 1, global_spares = 0;
  double rebuild_mbs = 0.0, timeout_ms = 0.0;
  bool verify_reads = false;
  double scrub_rate = 0.0;
  int fail_threshold = 0;
  std::string open_loop_spec;
  std::string slo_spec, watch_spec, trace_sample_spec;
  bool slo_on = false, watch_on = false, trace_sample_on = false;
  std::string disk_type_spec;
  int sites = 1;
  double wan_rtt_ms = 40.0, wan_bw = 60.0;
  std::uint64_t wan_window = std::uint64_t{1} << 20;
  bool geo_rep = false;
  double geo_rep_mbs = 0.0;
  bool wan_rtt_set = false, wan_bw_set = false, wan_window_set = false,
       geo_rep_mbs_set = false;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // Accept --flag=value as well as --flag value.
    std::string inline_value;
    bool has_inline = false;
    if (a.rfind("--", 0) == 0) {
      const std::size_t eq = a.find('=');
      if (eq != std::string::npos) {
        inline_value = a.substr(eq + 1);
        a = a.substr(0, eq);
        has_inline = true;
      }
    }
    bool consumed_value = false;
    auto next = [&]() -> std::string {
      consumed_value = true;
      if (has_inline) return inline_value;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                     a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--arch") arch = parse_arch(next());
    else if (a == "--nodes") nodes = std::atoi(next().c_str());
    else if (a == "--shards") shards = std::atoi(next().c_str());
    else if (a == "--sites") sites = std::atoi(next().c_str());
    else if (a == "--wan-rtt") { wan_rtt_ms = std::atof(next().c_str()); wan_rtt_set = true; }
    else if (a == "--wan-bw") { wan_bw = std::atof(next().c_str()); wan_bw_set = true; }
    else if (a == "--wan-window") { wan_window = parse_size(next()); wan_window_set = true; }
    else if (a == "--geo-rep") geo_rep = true;
    else if (a == "--geo-rep-mbs") { geo_rep_mbs = std::atof(next().c_str()); geo_rep_mbs_set = true; }
    else if (a == "--threads") threads = std::atoi(next().c_str());
    else if (a == "--disks") disks = std::atoi(next().c_str());
    else if (a == "--clients") clients = std::atoi(next().c_str());
    else if (a == "--op") is_write = (next() == "write");
    else if (a == "--bytes") bytes = parse_size(next());
    else if (a == "--ops") ops = std::atoi(next().c_str());
    else if (a == "--scattered") scattered = true;
    else if (a == "--block") block = static_cast<std::uint32_t>(parse_size(next()));
    else if (a == "--fail") fails.push_back(std::atoi(next().c_str()));
    else if (a == "--disk-type") disk_type_spec = next();
    else if (a == "--no-bg-mirrors") bg_mirrors = false;
    else if (a == "--no-locks") locks = false;
    else if (a == "--window") window = std::atoi(next().c_str());
    else if (a == "--cache-mb") {
      cache_mb = std::atof(next().c_str());
      if (cache_mb < 0.0) {
        std::fprintf(stderr, "--cache-mb must be >= 0\n");
        return 2;
      }
    }
    else if (a == "--cache-policy") cache_policy = next();
    else if (a == "--cache-evict") cache_evict = next();
    else if (a == "--coop-cache") coop_cache = true;
    else if (a == "--warm") warm = std::atoi(next().c_str());
    else if (a == "--workload") workload_kind = next();
    else if (a == "--faults") faults_spec = next();
    else if (a == "--ha") ha_on = true;
    else if (a == "--no-ha") no_ha = true;
    else if (a == "--spares") spares = std::atoi(next().c_str());
    else if (a == "--global-spares") global_spares = std::atoi(next().c_str());
    else if (a == "--rebuild-mbs") rebuild_mbs = std::atof(next().c_str());
    else if (a == "--timeout-ms") timeout_ms = std::atof(next().c_str());
    else if (a == "--verify-reads") verify_reads = true;
    else if (a == "--scrub-rate") scrub_rate = std::atof(next().c_str());
    else if (a == "--fail-threshold") fail_threshold = std::atoi(next().c_str());
    else if (a == "--seed") seed = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    else if (a == "--open-loop") open_loop_spec = next();
    else if (a == "--replay") replay_file = next();
    else if (a == "--dump-trace") dump_trace_file = next();
    else if (a == "--trace") trace_out = next();
    else if (a == "--trace-sample") { trace_sample_spec = next(); trace_sample_on = true; }
    else if (a == "--slo") { slo_spec = next(); slo_on = true; }
    else if (a == "--watch") { watch_spec = next(); watch_on = true; }
    else if (a == "--metrics") metrics_out = next();
    else if (a == "--verbose") verbose = true;
    else {
      std::fprintf(stderr, "%s: unknown option %s\n\n", argv[0], a.c_str());
      usage(argv[0]);
    }
    if (has_inline && !consumed_value) {
      std::fprintf(stderr, "%s: %s takes no value\n", argv[0], a.c_str());
      return 2;
    }
  }
  if (nodes < 2 || disks < 1 || clients < 1 || ops < 1) usage(argv[0]);

  // Reject flag combinations that would silently do nothing (or fail only
  // after a long simulation).
  const bool cache_on = cache_mb > 0.0 && cache_policy != "none";
  if (warm < 0) {
    std::fprintf(stderr, "%s: --warm must be >= 0\n", argv[0]);
    return 2;
  }
  if (warm > 0 && !cache_on) {
    std::fprintf(stderr,
                 "%s: --warm only makes sense with a cache; add --cache-mb "
                 "(or drop --warm)\n",
                 argv[0]);
    return 2;
  }
  if (coop_cache && !cache_on) {
    std::fprintf(stderr,
                 "%s: --coop-cache requires a cache; add --cache-mb\n",
                 argv[0]);
    return 2;
  }
  if (workload_kind != "io" && workload_kind != "andrew") {
    std::fprintf(stderr, "%s: unknown workload '%s' (io|andrew)\n", argv[0],
                 workload_kind.c_str());
    return 2;
  }
  if (ha_on && no_ha) {
    std::fprintf(stderr, "%s: --ha and --no-ha conflict\n", argv[0]);
    return 2;
  }
  if (spares < 0 || global_spares < 0 || rebuild_mbs < 0 ||
      timeout_ms < 0) {
    std::fprintf(stderr,
                 "%s: --spares/--global-spares/--rebuild-mbs/--timeout-ms "
                 "must be >= 0\n",
                 argv[0]);
    return 2;
  }
  if (scrub_rate < 0 || fail_threshold < 0) {
    std::fprintf(stderr,
                 "%s: --scrub-rate/--fail-threshold must be >= 0\n",
                 argv[0]);
    return 2;
  }
  if (workload_kind == "andrew" && !replay_file.empty()) {
    std::fprintf(stderr, "%s: --workload andrew and --replay conflict\n",
                 argv[0]);
    return 2;
  }
  if (!open_loop_spec.empty() &&
      (workload_kind == "andrew" || !replay_file.empty() ||
       !dump_trace_file.empty())) {
    std::fprintf(stderr,
                 "%s: --open-loop replaces the workload; it conflicts with "
                 "--workload andrew, --replay, and --dump-trace\n",
                 argv[0]);
    return 2;
  }
  // Parse the spec before building anything expensive (a bad clause must
  // fail in milliseconds), but only when given.
  OpenLoopCli olcli;
  if (!open_loop_spec.empty()) {
    olcli = parse_open_loop_spec(argv[0], open_loop_spec);
  }
  // Device mix: parse first, then check the combinations the layouts can
  // actually place.
  DiskTypeCli dtcli;
  if (!disk_type_spec.empty()) {
    dtcli = parse_disk_type_spec(argv[0], disk_type_spec);
  }
  if (dtcli.kind == DiskTypeCli::Kind::kHybrid) {
    if (arch != workload::Arch::kRaid1 && arch != workload::Arch::kRaid10 &&
        arch != workload::Arch::kRaidX) {
      std::fprintf(stderr,
                   "%s: --disk-type hybrid places primaries on SSD and "
                   "mirror images on HDD; it needs a mirrored layout "
                   "(--arch raid1|raid10|raidx)\n",
                   argv[0]);
      return 2;
    }
    if (arch != workload::Arch::kRaid1 && disks % 2 != 0) {
      std::fprintf(stderr,
                   "%s: --disk-type hybrid splits each node's disk rows in "
                   "half (SSD data rows over HDD image rows); --disks %d "
                   "must be even\n",
                   argv[0], disks);
      return 2;
    }
  }
  if (dtcli.kind != DiskTypeCli::Kind::kHdd && shards > 1) {
    std::fprintf(stderr,
                 "%s: --disk-type %s builds a heterogeneous device map; "
                 "the sharded runner is spindle-only (drop --shards)\n",
                 argv[0],
                 dtcli.kind == DiskTypeCli::Kind::kSsd ? "ssd" : "hybrid");
    return 2;
  }
  // Sharded-engine validation: every rejected combination cites the clause
  // that makes it impossible, so a bad invocation fails in milliseconds
  // with an actionable message instead of after a long build.
  if (shards < 1) {
    std::fprintf(stderr, "%s: --shards must be >= 1 (got %d)\n", argv[0],
                 shards);
    return 2;
  }
  if (threads < 0) {
    std::fprintf(stderr, "%s: --threads must be >= 0 (got %d)\n", argv[0],
                 threads);
    return 2;
  }
  if (threads > 0 && shards == 1) {
    std::fprintf(stderr,
                 "%s: --threads drives the shard worker pool; it needs "
                 "--shards > 1\n",
                 argv[0]);
    return 2;
  }
  if (olcli.remote > 0.0 && shards == 1 && sites == 1) {
    std::fprintf(stderr,
                 "%s: --open-loop remote=%g sends traffic across shards or "
                 "sites; it needs --shards > 1 or --sites > 1\n",
                 argv[0], olcli.remote);
    return 2;
  }
  // WAN federation validation: every rejected combination cites the flag
  // that makes it impossible.
  if (sites < 1) {
    std::fprintf(stderr, "%s: --sites must be >= 1 (got %d)\n", argv[0],
                 sites);
    return 2;
  }
  if (sites == 1 &&
      (wan_rtt_set || wan_bw_set || wan_window_set || geo_rep)) {
    std::fprintf(stderr,
                 "%s: --wan-rtt/--wan-bw/--wan-window/--geo-rep shape the "
                 "inter-site WAN; they need --sites > 1\n",
                 argv[0]);
    return 2;
  }
  if (geo_rep_mbs_set && !geo_rep) {
    std::fprintf(stderr,
                 "%s: --geo-rep-mbs throttles replication catch-up; add "
                 "--geo-rep\n",
                 argv[0]);
    return 2;
  }
  if (sites > 1) {
    if (shards > 1) {
      std::fprintf(stderr,
                   "%s: --sites and --shards are different federations "
                   "(WAN mesh vs threaded placement groups); pick one\n",
                   argv[0]);
      return 2;
    }
    if (open_loop_spec.empty()) {
      std::fprintf(stderr,
                   "%s: --sites %d drives each site with open-loop "
                   "traffic; add --open-loop SPEC\n",
                   argv[0], sites);
      return 2;
    }
    if (arch == workload::Arch::kNfs) {
      std::fprintf(stderr,
                   "%s: --sites needs a block engine per site; --arch nfs "
                   "has one central server and cannot federate\n",
                   argv[0]);
      return 2;
    }
    if (wan_rtt_ms <= 0 || wan_bw <= 0 || wan_window == 0) {
      std::fprintf(stderr,
                   "%s: --wan-rtt/--wan-bw/--wan-window must be > 0\n",
                   argv[0]);
      return 2;
    }
    if (geo_rep_mbs < 0) {
      std::fprintf(stderr, "%s: --geo-rep-mbs must be >= 0\n", argv[0]);
      return 2;
    }
    if (ha_on) {
      std::fprintf(stderr,
                   "%s: --ha orchestration is per-site and not federated "
                   "yet; WAN chaos runs raw (drop --ha)\n",
                   argv[0]);
      return 2;
    }
    if (olcli.qos_mbs > 0.0) {
      std::fprintf(stderr,
                   "%s: --open-loop qos-mbs gates one array; the WAN "
                   "federation does not gate yet (drop qos-mbs or "
                   "--sites)\n",
                   argv[0]);
      return 2;
    }
    if (!fails.empty() || verify_reads || scrub_rate > 0 ||
        fail_threshold > 0 || warm > 0) {
      std::fprintf(stderr,
                   "%s: --fail/--verify-reads/--scrub-rate/"
                   "--fail-threshold/--warm are single-site features (use "
                   "--faults for WAN chaos)\n",
                   argv[0]);
      return 2;
    }
    if (watch_on) {
      std::fprintf(stderr,
                   "%s: --watch scrapes one cluster's resources; it does "
                   "not support --sites > 1 yet\n",
                   argv[0]);
      return 2;
    }
  }
  if (shards > 1) {
    if (open_loop_spec.empty()) {
      std::fprintf(stderr,
                   "%s: --shards %d partitions the open-loop engine; add "
                   "--open-loop SPEC (the closed-loop workloads run "
                   "single-shard)\n",
                   argv[0], shards);
      return 2;
    }
    if (arch == workload::Arch::kNfs) {
      std::fprintf(stderr,
                   "%s: --shards needs a block engine per group; --arch "
                   "nfs has one central server and cannot shard\n",
                   argv[0]);
      return 2;
    }
    if (nodes % shards != 0) {
      std::fprintf(stderr,
                   "%s: --nodes %d is not divisible by --shards %d (every "
                   "placement group must be identical)\n",
                   argv[0], nodes, shards);
      return 2;
    }
    if (nodes / shards < 2) {
      std::fprintf(stderr,
                   "%s: --nodes %d over --shards %d leaves %d node(s) per "
                   "group; the array geometry needs >= 2\n",
                   argv[0], nodes, shards, nodes / shards);
      return 2;
    }
    if (olcli.qos_mbs > 0.0) {
      std::fprintf(stderr,
                   "%s: --open-loop qos-mbs is per-array admission; the "
                   "sharded runner does not gate yet (drop qos-mbs or "
                   "--shards)\n",
                   argv[0]);
      return 2;
    }
    if (!fails.empty() || verify_reads || scrub_rate > 0 ||
        fail_threshold > 0 || warm > 0) {
      std::fprintf(stderr,
                   "%s: --fail/--verify-reads/--scrub-rate/"
                   "--fail-threshold/--warm are single-shard features "
                   "(use --faults for sharded chaos)\n",
                   argv[0]);
      return 2;
    }
    if (!trace_out.empty() || trace_sample_on || slo_on || watch_on) {
      std::fprintf(stderr,
                   "%s: --trace/--trace-sample/--slo/--watch attach to one "
                   "simulation's hub; they do not support --shards > 1 "
                   "yet\n",
                   argv[0]);
      return 2;
    }
  }
  // Telemetry specs: same fail-fast rule.  A sampler without a trace file,
  // or an SLO with no open-loop traffic to observe, would silently do
  // nothing -- reject them.
  if (trace_sample_on && trace_out.empty()) {
    std::fprintf(stderr, "%s: --trace-sample needs --trace FILE\n", argv[0]);
    return 2;
  }
  if (slo_on && open_loop_spec.empty()) {
    std::fprintf(stderr,
                 "%s: --slo monitors open-loop traffic; add --open-loop\n",
                 argv[0]);
    return 2;
  }
  obs::SloConfig slo_cfg;
  if (slo_on) slo_cfg = parse_slo_spec(argv[0], slo_spec);
  WatchCli wcli;
  if (watch_on) wcli = parse_watch_spec(argv[0], watch_spec);
  obs::SampleConfig ts_cfg;
  if (trace_sample_on) {
    ts_cfg = parse_trace_sample_spec(argv[0], trace_sample_spec);
  }
  if (!replay_file.empty() && !dump_trace_file.empty()) {
    std::fprintf(stderr,
                 "%s: --replay and --dump-trace conflict (replay consumes a "
                 "trace, dump-trace only generates one)\n",
                 argv[0]);
    return 2;
  }
  // Validate output paths up front so a bad path fails in milliseconds,
  // not after the whole simulation has run.
  for (const std::string* out : {&trace_out, &metrics_out, &wcli.out}) {
    if (out->empty()) continue;
    std::ofstream probe(*out);
    if (!probe) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0], out->c_str());
      return 2;
    }
  }

  if (!dump_trace_file.empty()) {
    workload::TraceGenConfig tg;
    tg.clients = clients;
    tg.ops_per_client = ops;
    tg.write_fraction = is_write ? 0.7 : 0.3;
    tg.seed = seed;
    std::ofstream out(dump_trace_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", dump_trace_file.c_str());
      return 1;
    }
    out << workload::format_trace(workload::generate_trace(tg));
    std::printf("wrote %d x %d trace records to %s\n", clients, ops,
                dump_trace_file.c_str());
    return 0;
  }

  // Engine / CDD / cache knobs are shared by the classic single-simulation
  // path and the sharded federation; build them once, fail fast on a bad
  // value.
  cdd::CddParams cddp;
  if (timeout_ms > 0) cddp.request_timeout = sim::milliseconds(timeout_ms);

  raid::EngineParams ep;
  ep.background_mirrors = bg_mirrors;
  ep.use_locks = locks;
  ep.read_window = window;
  ep.write_window = window;
  // RAID-1 pairs are already split even/odd by the device map; only the
  // row-split layouts need the hybrid placement variant.
  ep.hybrid_mirrors = dtcli.kind == DiskTypeCli::Kind::kHybrid &&
                      arch != workload::Arch::kRaid1;

  cache::CacheParams cp;
  if (cache_policy == "none") {
    cp.capacity_blocks = 0;
  } else if (cache_policy == "wt" || cache_policy == "wb") {
    cp.capacity_blocks = static_cast<std::uint64_t>(
        cache_mb * 1024.0 * 1024.0 / static_cast<double>(block));
    cp.write_policy = cache_policy == "wb"
                          ? cache::WritePolicy::kWriteBack
                          : cache::WritePolicy::kWriteThrough;
  } else {
    std::fprintf(stderr, "unknown cache policy: %s\n", cache_policy.c_str());
    return 2;
  }
  if (cache_evict == "2q") cp.eviction = cache::EvictionPolicy::k2Q;
  else if (cache_evict != "lru") {
    std::fprintf(stderr, "unknown eviction policy: %s\n", cache_evict.c_str());
    return 2;
  }
  cp.cooperative = coop_cache;

  if (shards > 1) {
    // Sharded federation: S identical placement groups advanced in
    // parallel under the conservative synchronizer, open-loop traffic per
    // group, optional ring-ordered cross-shard redirection.
    auto gparams = cluster::ClusterParams::trojans();
    gparams.geometry.nodes = nodes / shards;
    gparams.geometry.disks_per_node = disks;
    gparams.geometry.block_bytes = block;
    gparams.geometry.blocks_per_disk = (10ull << 30) / block;
    gparams.disk.store_data = false;

    cluster::ShardedParams sp;
    sp.shards = shards;
    sp.arch = arch;
    sp.engine = ep;
    sp.cache = cp;
    sp.cdd = cddp;

    // Chaos plan in federation-global ids: shard s owns disks
    // [s * nodes/shards * disks, ...) and nodes [s * nodes/shards, ...).
    ha::FaultPlan plan;
    if (!faults_spec.empty()) {
      try {
        plan = ha::FaultPlan::parse(faults_spec, nodes * disks,
                                    gparams.geometry.blocks_per_disk);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
      }
      for (const ha::FaultEvent& ev : plan.events()) {
        if (ev.kind == ha::FaultEvent::Kind::kPartitionNode &&
            timeout_ms <= 0) {
          std::fprintf(stderr,
                       "%s: part: faults need --timeout-ms, or requests at "
                       "the partitioned node block forever\n",
                       argv[0]);
          return 2;
        }
        if ((ev.kind == ha::FaultEvent::Kind::kPartitionNode ||
             ev.kind == ha::FaultEvent::Kind::kJoinNode) &&
            (ev.target < 0 || ev.target >= nodes)) {
          std::fprintf(stderr, "%s: no such node: %d\n", argv[0], ev.target);
          return 2;
        }
        if (ev.kind == ha::FaultEvent::Kind::kCorruptBlock) {
          std::fprintf(stderr,
                       "%s: corrupt: faults need the integrity plane, which "
                       "is single-shard; use fail:/part: chaos under "
                       "--shards\n",
                       argv[0]);
          return 2;
        }
      }
    }
    const bool want_orch = ha_on || (!faults_spec.empty() && !no_ha);

    cluster::ShardedCluster world(gparams, sp);
    if (!plan.empty() || want_orch) {
      ha::HaParams hp;
      hp.spares_per_node = spares;
      hp.global_spares = global_spares;
      hp.rebuild_mbs = rebuild_mbs;
      if (!plan.empty()) {
        std::printf("fault plan (%s, partitioned over %d shards):\n%s",
                    want_orch ? "orchestrated" : "raw", shards,
                    plan.describe().c_str());
      }
      try {
        world.arm_faults(plan, want_orch ? &hp : nullptr);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
      }
    }

    load::OpenLoopConfig ocfg;
    ocfg.tenants.assign(static_cast<std::size_t>(olcli.tenants),
                        olcli.shape);
    ocfg.duration = sim::seconds(olcli.duration_s);
    ocfg.seed = seed;
    ocfg.max_in_flight = olcli.cap;

    const int nthreads = threads > 0 ? threads : shards;
    std::printf("raidxsim: sharded open-loop on %s, %d shard(s) x %d "
                "nodes, %d tenant(s) x %.0f ops/s per shard, remote "
                "%.1f%%, %d worker(s)\n",
                world.engine(0).name().c_str(), shards, nodes / shards,
                olcli.tenants, olcli.shape.rate_ops, 100.0 * olcli.remote,
                nthreads);
    load::ShardedLoadResult sr;
    try {
      sr = load::run_open_loop_sharded(world, ocfg, olcli.remote, nthreads);
    } catch (const std::exception& e) {
      std::printf("run failed: %s\n", e.what());
      return 1;
    }
    std::printf("\noffered             : %8.2f MB/s (%llu requests over "
                "%.3f s)\n",
                sr.offered_mbs, static_cast<unsigned long long>(sr.offered),
                olcli.duration_s);
    std::printf("goodput             : %8.2f MB/s (%llu completed, slowest "
                "shard drained at %.3f s)\n",
                sr.goodput_mbs,
                static_cast<unsigned long long>(sr.completed),
                sim::to_seconds(sr.drained_at));
    std::printf("turned away         : %llu rejected, %llu shed, %llu "
                "failed, %llu cap-dropped\n",
                static_cast<unsigned long long>(sr.rejected),
                static_cast<unsigned long long>(sr.shed),
                static_cast<unsigned long long>(sr.failed),
                static_cast<unsigned long long>(sr.cap_dropped));
    std::printf("cross-shard         : %llu of %llu arrivals over the "
                "spine\n",
                static_cast<unsigned long long>(sr.remote_ops),
                static_cast<unsigned long long>(sr.offered));
    std::printf("latency             : p50 %.2f ms, p99 %.2f ms, p999 "
                "%.2f ms\n",
                sr.latency.quantile(0.50) / 1e6,
                sr.latency.quantile(0.99) / 1e6,
                sr.latency.quantile(0.999) / 1e6);
    const sim::ShardGroup::Stats& gs = world.group().stats();
    std::printf("sync                : %llu windows, %llu cross-shard "
                "messages\n",
                static_cast<unsigned long long>(gs.windows),
                static_cast<unsigned long long>(gs.messages));
    if (verbose) {
      for (int s = 0; s < shards; ++s) {
        const load::OpenLoopResult& r =
            sr.per_shard[static_cast<std::size_t>(s)];
        std::printf("  shard %2d: offered %7.2f MB/s, goodput %7.2f MB/s, "
                    "p99 %8.2f ms, %llu remote\n",
                    s, r.offered_mbs, r.goodput_mbs,
                    r.latency.quantile(0.99) / 1e6,
                    static_cast<unsigned long long>(r.remote_ops));
      }
    }
    if (want_orch) {
      std::uint64_t det = 0, reb = 0;
      for (int s = 0; s < shards; ++s) {
        const ha::HaStats& hs = world.shard(s).orchestrator->stats();
        det += hs.detections;
        reb += hs.rebuilds_completed;
      }
      std::printf("ha                  : %llu detections, %llu rebuilds "
                  "across %d shards\n",
                  static_cast<unsigned long long>(det),
                  static_cast<unsigned long long>(reb), shards);
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      out << world.merged_snapshot_json() << "\n";
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
        return 1;
      }
      std::printf("metrics             : %s\n", metrics_out.c_str());
    }
    return 0;
  }

  auto params = cluster::ClusterParams::trojans();
  params.geometry.nodes = nodes;
  params.geometry.disks_per_node = disks;
  params.geometry.block_bytes = block;
  params.geometry.blocks_per_disk = (10ull << 30) / block;
  // Andrew builds a real file system and verifies its bytes, so the disks
  // must store data; the synthetic sweeps only measure timing.
  params.disk.store_data = workload_kind == "andrew";

  // Device mix: ssd makes every slot flash; hybrid puts the top disk rows
  // (data) on flash and the bottom rows (mirror images) on spindles --
  // except RAID-1, whose mirror pairs are adjacent global ids, so the map
  // splits even (primary, SSD) from odd (mirror, HDD) instead.
  params.flash = dtcli.flash;
  if (dtcli.kind != DiskTypeCli::Kind::kHdd) {
    const int total = nodes * disks;
    params.device_map.assign(static_cast<std::size_t>(total),
                             disk::DeviceClass::kHdd);
    for (int id = 0; id < total; ++id) {
      bool ssd = true;
      if (dtcli.kind == DiskTypeCli::Kind::kHybrid) {
        ssd = arch == workload::Arch::kRaid1 ? id % 2 == 0
                                             : id / nodes < disks / 2;
      }
      if (ssd) {
        params.device_map[static_cast<std::size_t>(id)] =
            disk::DeviceClass::kSsd;
      }
    }
  }

  sim::Simulation sim;
  obs::Hub hub;
  if (!trace_out.empty() || !metrics_out.empty() || slo_on || watch_on) {
    hub.tracing = !trace_out.empty();
    if (trace_sample_on) hub.tracer().set_selective(ts_cfg);
    // The attribution matrix rides the metrics snapshot; enabling it has
    // zero effect on simulated timestamps (pure bookkeeping at existing
    // span boundaries).
    if (!metrics_out.empty()) hub.enable_attribution();
    if (slo_on) hub.enable_slo(slo_cfg);
    sim.set_hub(&hub);
  }

  if (sites > 1) {
    // WAN federation: N identical sites (each the full --nodes x --disks
    // cluster) under one simulation, joined by a full mesh of BDP-limited
    // links, driven by per-site open-loop traffic with optional cross-site
    // redirection and geo-replicated mirrors.
    wan::FederationParams fp;
    fp.sites = sites;
    fp.link.bandwidth_mbs = wan_bw;
    fp.link.rtt = sim::milliseconds(wan_rtt_ms);
    fp.link.window_bytes = wan_window;
    fp.geo_rep = geo_rep;
    fp.repl.ship_mbs = geo_rep_mbs;
    fp.cluster = params;
    fp.arch = arch;
    fp.engine = ep;
    fp.cache = cp;
    fp.cdd = cddp;

    // Chaos plan in federation-global ids: site s owns disks
    // [s * nodes * disks, ...); partition:site=/brownout:link= clauses are
    // range-checked by the parser against the mesh.
    ha::FaultPlan plan;
    if (!faults_spec.empty()) {
      try {
        plan = ha::FaultPlan::parse(faults_spec, sites * nodes * disks,
                                    params.geometry.blocks_per_disk, sites,
                                    wan::Federation::mesh_links(sites));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
      }
      for (const ha::FaultEvent& ev : plan.events()) {
        if (ev.kind == ha::FaultEvent::Kind::kPartitionNode ||
            ev.kind == ha::FaultEvent::Kind::kJoinNode) {
          std::fprintf(stderr,
                       "%s: part:/join: node faults are single-site "
                       "features; use partition:site= under --sites\n",
                       argv[0]);
          return 2;
        }
        if (ev.kind == ha::FaultEvent::Kind::kCorruptBlock) {
          std::fprintf(stderr,
                       "%s: corrupt:/rot: faults need the integrity plane, "
                       "which is single-site; use fail:/partition: chaos "
                       "under --sites\n",
                       argv[0]);
          return 2;
        }
      }
    }

    std::unique_ptr<wan::Federation> fed;
    try {
      fed = std::make_unique<wan::Federation>(sim, fp);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }

    // Per-site working sets are carved from the site's own primary
    // region, so they must fit in region_blocks, not the whole array.
    std::uint64_t need = 0;
    for (int t = 0; t < olcli.tenants; ++t) {
      const std::uint64_t slots = std::max<std::uint64_t>(
          1, olcli.shape.working_set_blocks / olcli.shape.blocks_per_op);
      need += slots * olcli.shape.blocks_per_op;
    }
    if (need > fed->region_blocks()) {
      std::fprintf(
          stderr,
          "%s: per-site tenant working sets need %llu blocks but each "
          "site's primary region holds %llu (shrink --open-loop ws=/"
          "tenants= or grow the array)\n",
          argv[0], static_cast<unsigned long long>(need),
          static_cast<unsigned long long>(fed->region_blocks()));
      return 2;
    }

    if (!plan.empty()) {
      std::printf("fault plan (raw, %d sites):\n%s", sites,
                  plan.describe().c_str());
      try {
        fed->arm_faults(plan);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
      }
    }

    std::printf(
        "raidxsim: wan federation on %s, %d sites x %d nodes, %d link(s) "
        "@ %.0f MB/s, rtt %.0f ms, window %llu KB%s\n",
        fed->engine(0).name().c_str(), sites, nodes, fed->num_links(),
        wan_bw, wan_rtt_ms,
        static_cast<unsigned long long>(wan_window >> 10),
        geo_rep ? " [geo-rep]" : "");
    std::printf(
        "raidxsim: open-loop per site, %d tenant(s) x %.0f ops/s, zipf "
        "%.2f, remote %.1f%%\n",
        olcli.tenants, olcli.shape.rate_ops, olcli.shape.zipf_alpha,
        100.0 * olcli.remote);

    std::vector<load::OpenLoopConfig> cfgs(
        static_cast<std::size_t>(sites));
    std::vector<std::unique_ptr<load::OpenLoopDriver>> drivers;
    for (int s = 0; s < sites; ++s) {
      load::OpenLoopConfig& cfg = cfgs[static_cast<std::size_t>(s)];
      cfg.tenants.assign(static_cast<std::size_t>(olcli.tenants),
                         olcli.shape);
      cfg.duration = sim::seconds(olcli.duration_s);
      cfg.seed = seed + static_cast<std::uint64_t>(s);
      cfg.max_in_flight = olcli.cap;
      cfg.base_lba = fed->region_base(s);
      if (olcli.remote > 0.0) {
        cfg.remote.fraction = olcli.remote;
        wan::Federation* f = fed.get();
        cfg.remote.exec = [f, s](std::uint64_t slot, std::uint32_t nblocks,
                                 bool write) {
          return f->remote_io(s, slot, nblocks, write);
        };
      }
      drivers.push_back(
          std::make_unique<load::OpenLoopDriver>(fed->engine(s), cfg));
    }
    const Teardown teardown{sim};
    try {
      for (auto& d : drivers) d->start();
      sim.run();
    } catch (const std::exception& e) {
      std::printf("run failed: %s\n", e.what());
      return 1;
    }

    load::OpenLoopResult total;
    std::vector<load::OpenLoopResult> per_site;
    per_site.reserve(drivers.size());
    for (auto& d : drivers) per_site.push_back(d->finish());
    for (const load::OpenLoopResult& r : per_site) {
      total.offered += r.offered;
      total.completed += r.completed;
      total.rejected += r.rejected;
      total.shed += r.shed;
      total.failed += r.failed;
      total.cap_dropped += r.cap_dropped;
      total.remote_ops += r.remote_ops;
      total.offered_mbs += r.offered_mbs;
      total.goodput_mbs += r.goodput_mbs;
      total.drained_at = std::max(total.drained_at, r.drained_at);
      total.latency.merge(r.latency);
    }
    std::printf("\noffered             : %8.2f MB/s (%llu requests over "
                "%.3f s, all sites)\n",
                total.offered_mbs,
                static_cast<unsigned long long>(total.offered),
                olcli.duration_s);
    std::printf("goodput             : %8.2f MB/s (%llu completed, slowest "
                "site drained at %.3f s)\n",
                total.goodput_mbs,
                static_cast<unsigned long long>(total.completed),
                sim::to_seconds(total.drained_at));
    std::printf("turned away         : %llu rejected, %llu shed, %llu "
                "failed, %llu cap-dropped\n",
                static_cast<unsigned long long>(total.rejected),
                static_cast<unsigned long long>(total.shed),
                static_cast<unsigned long long>(total.failed),
                static_cast<unsigned long long>(total.cap_dropped));
    std::printf("latency             : p50 %.2f ms, p99 %.2f ms, p999 "
                "%.2f ms\n",
                total.latency.quantile(0.50) / 1e6,
                total.latency.quantile(0.99) / 1e6,
                total.latency.quantile(0.999) / 1e6);
    if (verbose) {
      for (int s = 0; s < sites; ++s) {
        const load::OpenLoopResult& r =
            per_site[static_cast<std::size_t>(s)];
        std::printf("  site %2d: offered %7.2f MB/s, goodput %7.2f MB/s, "
                    "p99 %8.2f ms, %llu remote\n",
                    s, r.offered_mbs, r.goodput_mbs,
                    r.latency.quantile(0.99) / 1e6,
                    static_cast<unsigned long long>(r.remote_ops));
      }
    }

    const wan::WanStats& ws = fed->stats();
    std::uint64_t link_bytes = 0, link_drops = 0;
    for (int l = 0; l < fed->num_links(); ++l) {
      link_bytes += fed->link_by_id(l).bytes_carried();
      link_drops += fed->link_by_id(l).drops();
    }
    std::printf("wan reads           : %llu remote (%llu site-cache hits, "
                "%llu origin, %llu mirror [%llu stale], %llu unreachable, "
                "%llu redirected)\n",
                static_cast<unsigned long long>(ws.remote_reads),
                static_cast<unsigned long long>(ws.cache_hits),
                static_cast<unsigned long long>(ws.origin_reads),
                static_cast<unsigned long long>(ws.mirror_reads),
                static_cast<unsigned long long>(ws.stale_served),
                static_cast<unsigned long long>(ws.unreachable),
                static_cast<unsigned long long>(ws.redirects));
    std::printf("wan writes          : %llu forwarded, %llu forward "
                "failures\n",
                static_cast<unsigned long long>(ws.remote_writes),
                static_cast<unsigned long long>(ws.write_forward_failures));
    if (ws.remote_reads > 0) {
      std::printf("wan read latency    : p50 %.2f ms, p99 %.2f ms\n",
                  fed->remote_read_latency().quantile(0.50) / 1e6,
                  fed->remote_read_latency().quantile(0.99) / 1e6);
    }
    std::printf("wan links           : %.2f MB carried, %llu drops\n",
                static_cast<double>(link_bytes) / 1e6,
                static_cast<unsigned long long>(link_drops));
    if (wan::Replicator* rep = fed->replicator()) {
      std::uint64_t appended = 0, coalesced = 0, shipped = 0, failed = 0;
      for (int a = 0; a < sites; ++a) {
        for (int b = 0; b < sites; ++b) {
          if (a == b) continue;
          const wan::StreamStats& st = rep->stream(a, b);
          appended += st.appended;
          coalesced += st.coalesced;
          shipped += st.shipped;
          failed += st.failed_ships;
        }
      }
      std::printf("geo-rep             : %llu appended (%llu coalesced), "
                  "%llu shipped, %llu failed ships, backlog %llu (peak "
                  "%llu)\n",
                  static_cast<unsigned long long>(appended),
                  static_cast<unsigned long long>(coalesced),
                  static_cast<unsigned long long>(shipped),
                  static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(rep->total_backlog()),
                  static_cast<unsigned long long>(rep->peak_backlog()));
      if (rep->lag().count() > 0) {
        std::printf("geo-rep lag         : p50 %.2f ms, p99 %.2f ms, max "
                    "%.2f ms, %llu violation(s) of the %.1f s bound\n",
                    rep->lag().quantile(0.50) / 1e6,
                    rep->lag().quantile(0.99) / 1e6,
                    static_cast<double>(rep->max_lag()) / 1e6,
                    static_cast<unsigned long long>(
                        rep->staleness_violations()),
                    sim::to_seconds(fp.repl.staleness_bound));
      }
      if (rep->total_backlog() == 0) {
        std::printf("geo-rep converged   : %8.3f s\n",
                    sim::to_seconds(rep->last_converged()));
      } else {
        std::printf("geo-rep converged   : never (a partition outlived the "
                    "run; %llu entries still queued)\n",
                    static_cast<unsigned long long>(rep->total_backlog()));
      }
    }

    if (!trace_out.empty()) {
      std::string err;
      if (!hub.tracer().export_chrome(trace_out, sim.now(), &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
      }
      std::printf("trace               : %zu spans -> %s\n",
                  hub.tracer().spans().size(), trace_out.c_str());
    }
    if (hub.slo() != nullptr) {
      const obs::SloStats& ss = hub.slo()->stats();
      std::printf("slo                 : %llu/%llu over %.1f ms target, "
                  "%llu breach(es)\n",
                  static_cast<unsigned long long>(ss.violations),
                  static_cast<unsigned long long>(ss.requests),
                  sim::to_milliseconds(hub.slo()->config().latency_target),
                  static_cast<unsigned long long>(ss.breaches));
    }
    if (!metrics_out.empty()) {
      fed->collect(hub.registry());
      std::ofstream out(metrics_out);
      if (hub.events() != nullptr) {
        out << "{\"metrics\":" << hub.registry().snapshot_json()
            << ",\"events\":" << hub.events()->json() << "}\n";
      } else {
        out << hub.registry().snapshot_json() << "\n";
      }
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
        return 1;
      }
      std::printf("metrics             : %s\n", metrics_out.c_str());
    }
    return 0;
  }

  cluster::Cluster cluster(sim, params);
  cdd::CddFabric fabric(cluster, cddp);

  // Chaos plan: parse before anything expensive runs so a bad spec fails
  // in milliseconds.  Partition events need a CDD timeout, or any request
  // in flight across the partition waits forever.
  ha::FaultPlan plan;
  if (!faults_spec.empty()) {
    try {
      plan = ha::FaultPlan::parse(faults_spec, cluster.total_disks(),
                                  params.geometry.blocks_per_disk);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
    for (const ha::FaultEvent& ev : plan.events()) {
      if (ev.kind == ha::FaultEvent::Kind::kPartitionNode &&
          timeout_ms <= 0) {
        std::fprintf(stderr,
                     "%s: part: faults need --timeout-ms, or requests at "
                     "the partitioned node block forever\n",
                     argv[0]);
        return 2;
      }
      if ((ev.kind == ha::FaultEvent::Kind::kPartitionNode ||
           ev.kind == ha::FaultEvent::Kind::kJoinNode) &&
          (ev.target < 0 || ev.target >= nodes)) {
        std::fprintf(stderr, "%s: no such node: %d\n", argv[0], ev.target);
        return 2;
      }
    }
  }

  auto engine = workload::make_engine(arch, fabric, ep);

  cache::CacheFabric block_cache(cluster, cp);
  engine->attach_cache(&block_cache);

  // --watch: sim-time series scraper.  Sampling rides daemon events, which
  // never keep run() alive or shift foreground timestamps, so a watched
  // run finishes at the same simulated instant as an unwatched one.
  std::unique_ptr<obs::Scraper> scraper;
  if (watch_on) {
    scraper =
        std::make_unique<obs::Scraper>(sim, wcli.interval, wcli.samples);
    scraper->add_series(
        "disk.util",
        [&cluster, &sim, prev = 0.0, prev_t = 0.0]() mutable {
          double busy = 0.0;
          for (int d = 0; d < cluster.total_disks(); ++d) {
            busy += static_cast<double>(cluster.disk(d).busy_time());
          }
          const double now = static_cast<double>(sim.now());
          const double span = (now - prev_t) * cluster.total_disks();
          const double u = span > 0.0 ? (busy - prev) / span : 0.0;
          prev = busy;
          prev_t = now;
          return u;
        });
    scraper->add_series(
        "net.tx_mbs",
        [&cluster, &sim, prev = 0.0, prev_t = 0.0]() mutable {
          net::Network& net = cluster.network();
          double sent = 0.0;
          for (int n = 0; n < net.nodes(); ++n) {
            sent += static_cast<double>(net.bytes_sent(n));
          }
          const double now = static_cast<double>(sim.now());
          // bytes/ns -> MB/s is a factor of 1000.
          const double mbs =
              now > prev_t ? (sent - prev) / (now - prev_t) * 1e3 : 0.0;
          prev = sent;
          prev_t = now;
          return mbs;
        });
    scraper->add_series(
        "cdd.remote_ops",
        [&fabric, &sim, prev = 0.0, prev_t = 0.0]() mutable {
          const double ops = static_cast<double>(fabric.remote_requests());
          const double now = static_cast<double>(sim.now());
          const double rate =
              now > prev_t ? (ops - prev) / ((now - prev_t) * 1e-9) : 0.0;
          prev = ops;
          prev_t = now;
          return rate;
        });
    scraper->add_series("sim.pending", [&sim]() {
      return static_cast<double>(sim.foreground_pending());
    });
    scraper->start();
  }

  for (int f : fails) {
    if (f < 0 || f >= cluster.total_disks()) {
      std::fprintf(stderr, "no such disk: %d\n", f);
      return 2;
    }
    cluster.disk(f).fail();
  }

  // Recovery orchestration: on when asked for explicitly, or implied by a
  // fault plan (chaos without recovery needs --no-ha).
  std::unique_ptr<ha::Orchestrator> orch;
  if (ha_on || (!faults_spec.empty() && !no_ha)) {
    ha::HaParams hp;
    hp.spares_per_node = spares;
    hp.global_spares = global_spares;
    hp.rebuild_mbs = rebuild_mbs;
    orch = std::make_unique<ha::Orchestrator>(*engine, hp);
  }

  // Integrity plane: on when verification or scrubbing was asked for, or
  // implied by corruption in the fault plan (silent corruption with no
  // checksum plane would vanish without a trace -- the very failure mode
  // the subsystem exists to expose).
  std::unique_ptr<integrity::IntegrityPlane> plane;
  if (verify_reads || scrub_rate > 0 || fail_threshold > 0 ||
      plan.has_corruption()) {
    auto* ac = dynamic_cast<raid::ArrayController*>(engine.get());
    if (ac == nullptr) {
      std::fprintf(stderr,
                   "%s: --verify-reads/--scrub-rate/corrupt: faults need a "
                   "block engine (not nfs)\n",
                   argv[0]);
      return 2;
    }
    integrity::IntegrityParams ip;
    ip.verify_reads = verify_reads;
    ip.scrub = scrub_rate > 0;
    ip.scrub_rate_mbs = scrub_rate;
    ip.fail_threshold = fail_threshold;
    plane = std::make_unique<integrity::IntegrityPlane>(*ac, ip);
  }

  if (!plan.empty()) {
    std::printf("fault plan (%s):\n%s", orch ? "orchestrated" : "raw",
                plan.describe().c_str());
    plan.arm(cluster, orch.get(), plane.get());
  }
  const Teardown teardown{sim};

  auto print_ha_summary = [&]() {
    if (!orch) return;
    const ha::HaStats& hs = orch->stats();
    std::printf("ha                  : %llu detections (%llu traffic, %llu "
                "probe), %llu failovers, %llu rebuilds, %d spares left\n",
                static_cast<unsigned long long>(hs.detections),
                static_cast<unsigned long long>(hs.detections_by_traffic),
                static_cast<unsigned long long>(hs.detections_by_probe),
                static_cast<unsigned long long>(hs.failovers),
                static_cast<unsigned long long>(hs.rebuilds_completed),
                orch->spares().total_available());
    if (!hs.mttr_ns.empty()) {
      double sum = 0;
      for (sim::Time t : hs.mttr_ns) sum += static_cast<double>(t);
      std::printf("ha mttr             : %8.3f s mean over %zu recoveries\n",
                  sum / static_cast<double>(hs.mttr_ns.size()) * 1e-9,
                  hs.mttr_ns.size());
    }
  };

  // Returns nonzero when the scrub soak failed to converge: with the
  // daemon on, every injected error must be accounted for -- detected (and
  // repaired or explicitly listed unrecoverable), overwritten by traffic,
  // or superseded by a whole-disk recovery -- and no repair may have
  // errored out.  CI runs storms through this gate.
  auto print_integrity_summary = [&]() -> int {
    if (!plane) return 0;
    const integrity::IntegrityStats& is = plane->stats();
    std::printf("integrity           : %llu injected, %llu detected (%llu "
                "read, %llu scrub), %llu repaired, %llu unrecoverable\n",
                static_cast<unsigned long long>(is.injected),
                static_cast<unsigned long long>(is.detected),
                static_cast<unsigned long long>(is.detected_by_read),
                static_cast<unsigned long long>(is.detected_by_scrub),
                static_cast<unsigned long long>(is.repaired),
                static_cast<unsigned long long>(is.unrecoverable));
    if (is.overwritten > 0 || is.superseded > 0 || is.escalations > 0) {
      std::printf("integrity (other)   : %llu overwritten, %llu superseded "
                  "by rebuild, %llu disks escalated\n",
                  static_cast<unsigned long long>(is.overwritten),
                  static_cast<unsigned long long>(is.superseded),
                  static_cast<unsigned long long>(is.escalations));
    }
    if (plane->params().scrub) {
      std::printf("scrub               : %llu passes, %llu blocks verified "
                  "(cap %.1f MB/s)\n",
                  static_cast<unsigned long long>(is.scrub_passes),
                  static_cast<unsigned long long>(is.blocks_scrubbed),
                  plane->params().scrub_rate_mbs);
    }
    if (!is.mttd_ns.empty()) {
      double sum = 0;
      for (sim::Time t : is.mttd_ns) sum += static_cast<double>(t);
      std::printf("integrity mttd      : %8.3f s mean over %zu detections\n",
                  sum / static_cast<double>(is.mttd_ns.size()) * 1e-9,
                  is.mttd_ns.size());
    }
    if (!is.unrecoverable_blocks.empty()) {
      std::printf("unrecoverable blocks:");
      for (const integrity::UnrecoverableBlock& b : is.unrecoverable_blocks) {
        std::printf(" D%d:%llu", b.disk,
                    static_cast<unsigned long long>(b.offset));
      }
      std::printf("\n");
    }
    if (plane->params().scrub && is.injected > 0 &&
        (plane->undetected() > 0 || is.repairs_failed > 0)) {
      std::fprintf(stderr,
                   "integrity soak FAILED: %llu injected errors never "
                   "accounted for, %llu repairs errored\n",
                   static_cast<unsigned long long>(plane->undetected()),
                   static_cast<unsigned long long>(is.repairs_failed));
      return 1;
    }
    return 0;
  };

  auto export_obs = [&]() -> int {
    if (!trace_out.empty()) {
      std::string err;
      if (!hub.tracer().export_chrome(trace_out, sim.now(), &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
      }
      if (hub.tracer().selective()) {
        std::printf("trace               : %llu sampled + %zu reservoir "
                    "trace(s) of %llu -> %s\n",
                    static_cast<unsigned long long>(
                        hub.tracer().sampled_kept()),
                    hub.tracer().reservoir_count(),
                    static_cast<unsigned long long>(
                        hub.tracer().traces_started()),
                    trace_out.c_str());
      } else {
        std::printf("trace               : %zu spans -> %s\n",
                    hub.tracer().spans().size(), trace_out.c_str());
      }
    }
    if (hub.slo() != nullptr) {
      const obs::SloStats& ss = hub.slo()->stats();
      std::printf("slo                 : %llu/%llu over %.1f ms target, "
                  "%llu window(s), %llu breach(es), %llu recover(ies), "
                  "worst burn %.2fx\n",
                  static_cast<unsigned long long>(ss.violations),
                  static_cast<unsigned long long>(ss.requests),
                  sim::to_milliseconds(hub.slo()->config().latency_target),
                  static_cast<unsigned long long>(ss.windows),
                  static_cast<unsigned long long>(ss.breaches),
                  static_cast<unsigned long long>(ss.recoveries),
                  ss.worst_burn);
    }
    if (hub.events() != nullptr && !hub.events()->events().empty()) {
      std::printf("events              : %zu in cluster log",
                  hub.events()->events().size());
      if (const obs::ClusterEvent* b = hub.events()->first("slo.breach")) {
        std::printf("; first breach at %.3f s", sim::to_seconds(b->at));
      }
      std::printf("\n");
      if (verbose) {
        for (const obs::ClusterEvent& ev : hub.events()->events()) {
          std::printf("  [%12.6f s] %-20s %s\n", sim::to_seconds(ev.at),
                      ev.kind.c_str(), ev.detail.c_str());
        }
      }
    }
    if (scraper != nullptr) {
      std::printf("\nwatch (%zu samples @ %.0f ms):\n%s",
                  scraper->samples(),
                  sim::to_milliseconds(scraper->interval()),
                  scraper->render().c_str());
      if (!wcli.out.empty()) {
        std::ofstream out(wcli.out);
        out << scraper->json() << "\n";
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", wcli.out.c_str());
          return 1;
        }
        std::printf("watch json          : %s\n", wcli.out.c_str());
      }
    }
    if (!metrics_out.empty()) {
      obs::collect_cluster(hub.registry(), cluster, &fabric, &block_cache,
                           orch.get(), plane.get());
      std::ofstream out(metrics_out);
      if (hub.events() != nullptr) {
        // The ordered cluster event log rides the same artifact; the flat
        // snapshot moves under "metrics" only when events exist, so plain
        // --metrics files keep their historical shape.
        out << "{\"metrics\":" << hub.registry().snapshot_json()
            << ",\"events\":" << hub.events()->json() << "}\n";
      } else {
        out << hub.registry().snapshot_json() << "\n";
      }
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
        return 1;
      }
      std::printf("metrics             : %s\n", metrics_out.c_str());
    }
    return 0;
  };

  if (!open_loop_spec.empty()) {
    auto* ac = dynamic_cast<raid::ArrayController*>(engine.get());
    if (ac == nullptr) {
      std::fprintf(stderr,
                   "%s: --open-loop needs a block engine (not nfs)\n",
                   argv[0]);
      return 2;
    }
    load::OpenLoopConfig ocfg;
    ocfg.tenants.assign(static_cast<std::size_t>(olcli.tenants),
                        olcli.shape);
    ocfg.duration = sim::seconds(olcli.duration_s);
    ocfg.seed = seed;
    ocfg.max_in_flight = olcli.cap;
    std::unique_ptr<load::QosGate> gate;
    if (olcli.qos_mbs > 0.0) {
      load::TenantQos q;
      q.rate_mbs = olcli.qos_mbs;
      q.burst_mb = olcli.qos_burst_mb;
      q.policy = olcli.policy;
      gate = std::make_unique<load::QosGate>(
          sim, std::vector<load::TenantQos>(
                   static_cast<std::size_t>(olcli.tenants), q));
    }
    // Queued admissions hold guards on the gate's per-tenant FIFOs, and
    // the gate dies before the outer `teardown` runs.
    const Teardown gate_teardown{sim};
    std::printf("raidxsim: open-loop on %s, %d tenant(s) x %.0f ops/s (%s"
                "%s), zipf %.2f, %d sessions each%s\n",
                engine->name().c_str(), olcli.tenants, olcli.shape.rate_ops,
                olcli.shape.dist == load::ArrivalDist::kBurst ? "burst"
                                                              : "poisson",
                olcli.shape.write_fraction > 0 ? ", mixed r/w" : "",
                olcli.shape.zipf_alpha, olcli.shape.sessions,
                gate ? " [QoS gated]" : "");
    load::OpenLoopResult olr;
    try {
      olr = load::run_open_loop(*ac, ocfg, gate.get());
    } catch (const std::exception& e) {
      std::printf("run failed: %s\n", e.what());
      return 1;
    }
    std::printf("\noffered             : %8.2f MB/s (%llu requests over "
                "%.3f s)\n",
                olr.offered_mbs,
                static_cast<unsigned long long>(olr.offered),
                sim::to_seconds(olr.duration));
    std::printf("goodput             : %8.2f MB/s (%llu completed, drained "
                "at %.3f s)\n",
                olr.goodput_mbs,
                static_cast<unsigned long long>(olr.completed),
                sim::to_seconds(olr.drained_at));
    std::printf("turned away         : %llu rejected, %llu shed, %llu "
                "failed, %llu cap-dropped\n",
                static_cast<unsigned long long>(olr.rejected),
                static_cast<unsigned long long>(olr.shed),
                static_cast<unsigned long long>(olr.failed),
                static_cast<unsigned long long>(olr.cap_dropped));
    std::printf("peak in flight      : %llu concurrent requests\n",
                static_cast<unsigned long long>(olr.peak_in_flight));
    std::printf("latency             : p50 %.2f ms, p99 %.2f ms, p999 %.2f "
                "ms\n",
                olr.latency.quantile(0.50) / 1e6,
                olr.latency.quantile(0.99) / 1e6,
                olr.latency.quantile(0.999) / 1e6);
    if (verbose || olcli.tenants > 1) {
      std::printf("\nper-tenant:\n");
      for (std::size_t t = 0; t < olr.tenants.size(); ++t) {
        const load::TenantResult& tr = olr.tenants[t];
        std::printf("  T%zu: offered %7.2f MB/s, goodput %7.2f MB/s, "
                    "p99 %8.2f ms, shed %llu, rejected %llu\n",
                    t, tr.offered_mbs, tr.goodput_mbs,
                    tr.latency.quantile(0.99) / 1e6,
                    static_cast<unsigned long long>(tr.shed),
                    static_cast<unsigned long long>(tr.rejected));
      }
    }
    if (block_cache.enabled()) {
      const auto& cs = block_cache.stats();
      std::printf("cache               : %.1f%% hit, directory peak %llu "
                  "entries / %llu sharers\n",
                  100.0 * cs.hit_ratio(),
                  static_cast<unsigned long long>(cs.directory_peak_entries),
                  static_cast<unsigned long long>(cs.directory_peak_sharers));
    }
    print_ha_summary();
    const int soak_rc = print_integrity_summary();
    const int obs_rc = export_obs();
    return obs_rc != 0 ? obs_rc : soak_rc;
  }

  if (!replay_file.empty()) {
    std::ifstream in(replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replay_file.c_str());
      return 1;
    }
    std::vector<workload::TraceRecord> recs;
    try {
      recs = workload::parse_trace(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("raidxsim: replaying %zu trace records from %s on %s\n",
                recs.size(), replay_file.c_str(), engine->name().c_str());
    const auto tr = workload::replay_trace(*engine, recs);
    std::printf("\nelapsed             : %8.3f s\n",
                sim::to_seconds(tr.elapsed));
    std::printf("moved               : %8.2f MB read, %8.2f MB written\n",
                static_cast<double>(tr.bytes_read) / 1e6,
                static_cast<double>(tr.bytes_written) / 1e6);
    std::printf("aggregate bandwidth : %8.2f MB/s\n", tr.aggregate_mbs);
    std::printf("read latency        : mean %.2f ms, p95 %.2f ms\n",
                tr.read_latency.mean() / 1e6,
                sim::to_milliseconds(tr.read_latency.quantile(0.95)));
    std::printf("write latency       : mean %.2f ms, p95 %.2f ms\n",
                tr.write_latency.mean() / 1e6,
                sim::to_milliseconds(tr.write_latency.quantile(0.95)));
    print_ha_summary();
    const int soak_rc = print_integrity_summary();
    const int obs_rc = export_obs();
    return obs_rc != 0 ? obs_rc : soak_rc;
  }

  if (workload_kind == "andrew") {
    workload::AndrewConfig acfg;
    acfg.clients = clients;
    acfg.seed = seed;
    if (auto* srv = dynamic_cast<nfs::NfsEngine*>(engine.get())) {
      acfg.exclude_node = srv->server_node();
    }
    std::printf("raidxsim: Andrew benchmark on %s, %d clients\n",
                engine->name().c_str(), clients);
    workload::AndrewResult ar;
    try {
      ar = workload::run_andrew(*engine, acfg);
    } catch (const std::exception& e) {
      std::printf("run failed: %s\n", e.what());
      return 1;
    }
    std::printf("\nMakeDir             : %8.3f s\n",
                sim::to_seconds(ar.make_dir));
    std::printf("Copy                : %8.3f s\n",
                sim::to_seconds(ar.copy_files));
    std::printf("ScanDir             : %8.3f s\n",
                sim::to_seconds(ar.scan_dir));
    std::printf("ReadAll             : %8.3f s\n",
                sim::to_seconds(ar.read_all));
    std::printf("Compile             : %8.3f s\n",
                sim::to_seconds(ar.compile));
    std::printf("total               : %8.3f s\n", sim::to_seconds(ar.total()));
    print_ha_summary();
    const int soak_rc = print_integrity_summary();
    const int obs_rc = export_obs();
    return obs_rc != 0 ? obs_rc : soak_rc;
  }

  workload::ParallelIoConfig cfg;
  cfg.clients = clients;
  cfg.op = is_write ? workload::IoOp::kWrite : workload::IoOp::kRead;
  cfg.bytes_per_op = bytes;
  cfg.ops_per_client = ops;
  cfg.scattered = scattered;
  cfg.warm_passes = warm;
  cfg.seed = seed;
  if (auto* srv = dynamic_cast<nfs::NfsEngine*>(engine.get())) {
    cfg.exclude_node = srv->server_node();
  }

  std::printf("raidxsim: %s on %dx%d (%s), %d clients x %d x %.2f MB %s%s\n",
              engine->name().c_str(), nodes, disks,
              params.geometry.describe().c_str(), clients, ops,
              static_cast<double>(bytes) / 1e6,
              is_write ? "write" : "read", scattered ? " (scattered)" : "");
  if (!fails.empty()) {
    std::printf("failed disks:");
    for (int f : fails) std::printf(" D%d", f);
    std::printf("\n");
  }

  workload::ParallelIoResult r;
  try {
    r = workload::run_parallel_io(*engine, cfg);
  } catch (const std::exception& e) {
    std::printf("run failed: %s\n", e.what());
    return 1;
  }

  std::printf("\naggregate bandwidth : %8.2f MB/s (foreground)\n",
              r.aggregate_mbs);
  std::printf("sustained bandwidth : %8.2f MB/s (incl. background drain)\n",
              r.sustained_mbs);
  std::printf("elapsed             : %8.3f s\n", sim::to_seconds(r.elapsed));
  std::printf("ops                 : %llu of %llu completed\n",
              static_cast<unsigned long long>(r.ops_completed),
              static_cast<unsigned long long>(r.ops_issued));
  std::printf("op latency          : mean %.2f ms, p50 %.2f, p95 %.2f, "
              "max %.2f\n",
              r.op_latency.mean() / 1e6,
              sim::to_milliseconds(r.op_latency.quantile(0.5)),
              sim::to_milliseconds(r.op_latency.quantile(0.95)),
              sim::to_milliseconds(r.op_latency.max()));
  if (block_cache.enabled()) {
    const auto& cs = block_cache.stats();
    std::printf("cache               : %.1f MB/node %s%s, %s\n", cache_mb,
                cache_policy.c_str(), coop_cache ? " cooperative" : "",
                cache_evict.c_str());
    std::printf("cache hits          : %llu local, %llu peer, %llu misses "
                "(%.1f%% hit)\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.peer_hits),
                static_cast<unsigned long long>(cs.misses),
                100.0 * cs.hit_ratio());
    std::printf("cache traffic       : %llu fills, %llu absorbed writes, "
                "%llu invalidations, %llu flushes, %llu evictions\n",
                static_cast<unsigned long long>(cs.fills),
                static_cast<unsigned long long>(cs.writes_absorbed),
                static_cast<unsigned long long>(cs.invalidations),
                static_cast<unsigned long long>(cs.flushes),
                static_cast<unsigned long long>(cs.evictions));
  }

  if (verbose) {
    std::printf("\nper-client completion:\n");
    for (std::size_t c = 0; c < r.clients.size(); ++c) {
      std::printf("  client %2zu: %8.3f s, %6.2f MB\n", c,
                  sim::to_seconds(r.clients[c].end - r.clients[c].start),
                  static_cast<double>(r.clients[c].bytes) / 1e6);
    }
    std::printf("\nper-disk utilization (busy fraction):\n");
    for (int d = 0; d < cluster.total_disks(); ++d) {
      const auto& disk = cluster.disk(d);
      std::printf("  D%-2d: %5.1f%%  (%llu reads, %llu writes)\n", d,
                  100.0 * static_cast<double>(disk.busy_time()) /
                      static_cast<double>(sim.now()),
                  static_cast<unsigned long long>(disk.reads()),
                  static_cast<unsigned long long>(disk.writes()));
    }
    std::printf("\nCDD requests: %llu local, %llu remote\n",
                static_cast<unsigned long long>(fabric.local_requests()),
                static_cast<unsigned long long>(fabric.remote_requests()));
  }
  print_ha_summary();
  const int soak_rc = print_integrity_summary();
  const int obs_rc = export_obs();
  if (obs_rc != 0 || soak_rc != 0) return obs_rc != 0 ? obs_rc : soak_rc;
  // Ops that never completed leave nothing for the figures above to
  // measure: the run failed even though no op raised an error.
  if (r.ops_completed < r.ops_issued) {
    std::fprintf(stderr,
                 "%s: %llu of %llu ops never completed (the run ended with "
                 "requests still suspended)\n",
                 argv[0],
                 static_cast<unsigned long long>(r.ops_issued -
                                                 r.ops_completed),
                 static_cast<unsigned long long>(r.ops_issued));
    return 1;
  }
  return 0;
}
