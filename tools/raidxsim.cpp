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
//
// One pipeline: parse_args() reads argv into a RunSpec, validate() checks
// it in one pass (bad input exits 2 citing the flag or clause), then one
// of three topologies -- a single site, a sharded cluster (--shards) or a
// WAN federation (--sites) -- is built from the same per-array parameters,
// run, and reported through shared helpers.
#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

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
#include "sim/kv.hpp"
#include "sim/stats.hpp"
#include "wan/federation.hpp"
#include "workload/andrew.hpp"
#include "workload/engines.hpp"
#include "workload/parallel_io.hpp"
#include "workload/trace.hpp"

using namespace raidx;

namespace {

const char* g_argv0 = "raidxsim";

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
      "  --bytes SZ         bytes per op, K/M/G suffix ok, 1 to 1024G (default "
      "64M)\n"
      "  --ops N            ops per client (default 1)\n"
      "  --scattered        scatter ops over the client region\n"
      "  --block SZ         stripe unit, 512 to 1G (default 32K)\n"
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
      "                     (samples: 2 to 100000)\n"
      "  --metrics FILE     write the metrics-registry snapshot as JSON\n"
      "                     (with --slo the file becomes "
      "{\"metrics\":...,\"events\":[...]})\n"
      "  --verbose          per-client and per-resource detail\n"
      "Flags also accept --flag=value form.  Numbers must parse whole (no\n"
      "trailing characters) and lie in the flag's range.\n"
      "Exit status: 0 when every op completed, 1 when the run failed, 2 on\n"
      "bad input (the message cites the flag or clause).\n",
      argv0);
  std::exit(2);
}

/// Bad input: "<argv0>: <message>" on stderr and exit status 2.
[[noreturn]] __attribute__((format(printf, 1, 2))) void reject(
    const char* fmt, ...) {
  std::fprintf(stderr, "%s: ", g_argv0);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::exit(2);
}

// printf's %llu needs unsigned long long; std::uint64_t may be unsigned long.
unsigned long long ull(std::uint64_t v) { return v; }

/// Renders [lo, hi] for a range diagnostic; when only one bound is set,
/// the other (the type's limit) is dropped: ">= lo" or "<= hi".
template <typename T>
std::string range_text(T lo, T hi) {
  const bool open_lo = lo == std::numeric_limits<T>::lowest();
  const bool open_hi = hi == std::numeric_limits<T>::max();
  std::ostringstream out;
  if (open_hi && !open_lo) out << ">= " << +lo;
  else if (open_lo && !open_hi) out << "<= " << +hi;
  else out << "in [" << +lo << ", " << +hi << "]";
  return out.str();
}

/// The one number parser behind every flag and clause value: the whole
/// string must parse as a T and land in [lo, hi]; anything else cites
/// `what` (the flag, or flag and key) and exits 2.
template <typename T>
T parse_number(const std::string& what, const std::string& text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::invalid_argument || stop != end) {
    reject("%s '%s' is not a number\n", what.c_str(), text.c_str());
  }
  if (ec != std::errc() || !(v >= lo && v <= hi)) {
    reject("%s '%s' needs a number %s\n", what.c_str(), text.c_str(),
           range_text(lo, hi).c_str());
  }
  return v;
}

template <typename T>
void set_number(T& field, const std::string& what, const std::string& text) {
  field = parse_number<T>(what, text);
}

/// Per-op sizes and WAN windows past 1 TiB describe no real array.
constexpr std::uint64_t kMaxBytes = std::uint64_t{1} << 40;

/// A byte count: a number with an optional K/M/G suffix, in [lo, hi].
std::uint64_t parse_size(const std::string& what, const std::string& text,
                         std::uint64_t lo, std::uint64_t hi) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (stop == text.data()) {
    reject("%s '%s' is not a number\n", what.c_str(), text.c_str());
  }
  const std::string suffix(stop, end);
  double mult = 1;
  if (suffix == "k" || suffix == "K") mult = 1024.0;
  else if (suffix == "m" || suffix == "M") mult = 1024.0 * 1024;
  else if (suffix == "g" || suffix == "G") mult = 1024.0 * 1024 * 1024;
  else if (!suffix.empty()) {
    std::fprintf(stderr, "bad size suffix: %s\n", text.c_str());
    std::exit(2);
  }
  const double bytes = v * mult;
  if (ec != std::errc() || !(bytes >= static_cast<double>(lo) &&
                             bytes <= static_cast<double>(hi))) {
    reject("%s '%s' needs a number %s\n", what.c_str(), text.c_str(),
           range_text(lo, hi).c_str());
  }
  return static_cast<std::uint64_t>(bytes);
}

/// Comma-separated key=value clauses (the sim::for_each_kv grammar); a
/// malformed clause cites itself verbatim and exits 2.
template <typename Fn>
void for_each_clause(const char* flag, const std::string& spec, Fn&& fn) {
  sim::for_each_kv(spec, fn, [flag](const std::string& item) {
    reject("%s clause '%s' is not key=value\n", flag, item.c_str());
  });
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
  double remote = 0.0;  // cross-shard/site fraction
};

OpenLoopCli parse_open_loop_spec(const std::string& spec) {
  OpenLoopCli cli;
  load::TenantLoad& sh = cli.shape;
  for_each_clause("--open-loop", spec,
                  [&](const std::string& key, const std::string& val) {
    const std::string what = "--open-loop " + key;
    if (key == "rate") set_number(sh.rate_ops, what, val);
    else if (key == "dist") {
      if (val == "poisson") sh.dist = load::ArrivalDist::kPoisson;
      else if (val == "burst") sh.dist = load::ArrivalDist::kBurst;
      else reject("--open-loop dist=%s (poisson|burst)\n", val.c_str());
    }
    else if (key == "zipf") set_number(sh.zipf_alpha, what, val);
    else if (key == "tenants") set_number(cli.tenants, what, val);
    else if (key == "sessions") set_number(sh.sessions, what, val);
    else if (key == "duration") set_number(cli.duration_s, what, val);
    else if (key == "write") set_number(sh.write_fraction, what, val);
    else if (key == "req-blocks") set_number(sh.blocks_per_op, what, val);
    else if (key == "ws") set_number(sh.working_set_blocks, what, val);
    else if (key == "qos-mbs") set_number(cli.qos_mbs, what, val);
    else if (key == "qos-burst") set_number(cli.qos_burst_mb, what, val);
    else if (key == "qos-policy") {
      if (val == "reject") cli.policy = load::AdmitPolicy::kReject;
      else if (val == "queue") cli.policy = load::AdmitPolicy::kQueue;
      else if (val == "shed") cli.policy = load::AdmitPolicy::kShed;
      else reject("--open-loop qos-policy=%s (reject|queue|shed)\n",
                  val.c_str());
    }
    else if (key == "burst-on") set_number(sh.burst_on_s, what, val);
    else if (key == "burst-off") set_number(sh.burst_off_s, what, val);
    else if (key == "burst-mult") set_number(sh.burst_mult, what, val);
    else if (key == "cap") set_number(cli.cap, what, val);
    else if (key == "remote") set_number(cli.remote, what, val);
    else reject("--open-loop has no key '%s'\n", key.c_str());
  });
  if (cli.tenants < 1 || sh.rate_ops <= 0.0 || sh.sessions < 1 ||
      cli.duration_s <= 0.0 || sh.blocks_per_op < 1 || sh.zipf_alpha < 0.0 ||
      sh.write_fraction < 0.0 || sh.write_fraction > 1.0) {
    reject("--open-loop needs tenants/rate/sessions/duration/req-blocks > 0, "
           "zipf >= 0, write in [0,1]\n");
  }
  if (cli.remote < 0.0 || cli.remote > 1.0) {
    reject("--open-loop remote=F needs F in [0,1]\n");
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
DiskTypeCli parse_disk_type_spec(const std::string& spec) {
  DiskTypeCli cli;
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (kind == "hdd") cli.kind = DiskTypeCli::Kind::kHdd;
  else if (kind == "ssd") cli.kind = DiskTypeCli::Kind::kSsd;
  else if (kind == "hybrid") cli.kind = DiskTypeCli::Kind::kHybrid;
  else reject("--disk-type %s (hdd|ssd|hybrid)\n", kind.c_str());
  if (colon == std::string::npos) return cli;
  const std::string tail = spec.substr(colon + 1);
  if (cli.kind == DiskTypeCli::Kind::kHdd) {
    reject("--disk-type hdd takes no tuning spec ('%s' tunes the flash "
           "model; use ssd:... or hybrid:...)\n", tail.c_str());
  }
  for_each_clause("--disk-type", tail,
                  [&](const std::string& key, const std::string& val) {
    if (key == "op") {
      set_number(cli.flash.over_provision, "--disk-type op", val);
      if (cli.flash.over_provision < 0.0 || cli.flash.over_provision >= 1.0) {
        reject("--disk-type op=%s needs a fraction in [0,1)\n", val.c_str());
      }
    } else if (key == "gc") {
      if (val == "greedy") cli.flash.gc_policy = flash::GcPolicy::kGreedy;
      else if (val == "costben") {
        cli.flash.gc_policy = flash::GcPolicy::kCostBenefit;
      }
      else reject("--disk-type gc=%s (greedy|costben)\n", val.c_str());
    } else {
      reject("--disk-type has no key '%s'\n", key.c_str());
    }
  });
  return cli;
}

/// "250ms", "0.5s", "800us", or a bare number (milliseconds).
sim::Time parse_duration(const char* flag, const std::string& val) {
  char* end = nullptr;
  const double v = std::strtod(val.c_str(), &end);
  double ms = v;
  if (end != nullptr && *end != '\0') {
    if (std::strcmp(end, "ms") == 0) ms = v;
    else if (std::strcmp(end, "s") == 0) ms = v * 1e3;
    else if (std::strcmp(end, "us") == 0) ms = v / 1e3;
    else reject("%s duration '%s' (use us/ms/s)\n", flag, val.c_str());
  }
  if (ms <= 0.0) reject("%s duration '%s' must be > 0\n", flag, val.c_str());
  return sim::milliseconds(ms);
}

obs::SloConfig parse_slo_spec(const std::string& spec) {
  obs::SloConfig cfg;
  for_each_clause("--slo", spec,
                  [&](const std::string& key, const std::string& val) {
    const std::string what = "--slo " + key;
    if (key == "target") cfg.latency_target = parse_duration("--slo", val);
    else if (key == "objective") set_number(cfg.objective, what, val);
    else if (key == "window") cfg.window = parse_duration("--slo", val);
    else if (key == "burn") set_number(cfg.burn_alert, what, val);
    else reject("--slo has no key '%s'\n", key.c_str());
  });
  if (cfg.objective <= 0.0 || cfg.objective >= 1.0 || cfg.burn_alert <= 0.0) {
    reject("--slo needs objective in (0,1) and burn > 0\n");
  }
  return cfg;
}

/// The scraper keeps every sample of every series in memory.
constexpr std::size_t kMaxWatchSamples = 100'000;

struct WatchCli {
  sim::Time interval = sim::milliseconds(250);
  std::size_t samples = 240;
  std::string out;
};

WatchCli parse_watch_spec(const std::string& spec) {
  WatchCli cli;
  for_each_clause("--watch", spec,
                  [&](const std::string& key, const std::string& val) {
    const std::string what = "--watch " + key;
    if (key == "interval") cli.interval = parse_duration("--watch", val);
    else if (key == "samples") set_number(cli.samples, what, val);
    else if (key == "out") cli.out = val;
    else reject("--watch has no key '%s'\n", key.c_str());
  });
  if (cli.samples < 2) reject("--watch needs samples >= 2\n");
  if (cli.samples > kMaxWatchSamples) {
    reject("--watch needs samples <= %zu\n", kMaxWatchSamples);
  }
  return cli;
}

obs::SampleConfig parse_trace_sample_spec(const std::string& spec) {
  obs::SampleConfig cfg;
  for_each_clause("--trace-sample", spec,
                  [&](const std::string& key, const std::string& val) {
    const std::string what = "--trace-sample " + key;
    if (key == "p") set_number(cfg.probability, what, val);
    else if (key == "reservoir") set_number(cfg.reservoir, what, val);
    else if (key == "seed") set_number(cfg.seed, what, val);
    else reject("--trace-sample has no key '%s'\n", key.c_str());
  });
  if (cfg.probability < 0.0 || cfg.probability > 1.0 ||
      (cfg.probability == 0.0 && cfg.reservoir == 0)) {
    reject("--trace-sample needs p in [0,1] and at least one of p > 0 or "
           "reservoir > 0\n");
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

/// Everything the command line says, as parse_args() read it; validate()
/// then parses the clause specs into the fields below the divider and
/// loads the fault plan.  Unset optionals mean "flag not given".
struct RunSpec {
  workload::Arch arch = workload::Arch::kRaidX;
  int nodes = 16, disks = 1, clients = 8, ops = 1, window = 2;
  int shards = 1, threads = 0, sites = 1;
  std::uint64_t bytes = 64ull << 20;
  std::uint32_t block = 32'768;
  bool is_write = false, scattered = false, verbose = false;
  bool bg_mirrors = true, locks = true;
  std::uint64_t seed = 42;
  std::vector<int> fails;
  std::string replay_file, dump_trace_file, trace_out, metrics_out;
  double cache_mb = 0.0;
  std::string cache_policy = "wt", cache_evict = "lru";
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
  std::string open_loop_spec, disk_type_spec;
  std::optional<std::string> slo_spec, watch_spec, trace_sample_spec;
  std::optional<double> wan_rtt_ms, wan_bw, geo_rep_mbs;
  std::optional<std::uint64_t> wan_window;
  bool geo_rep = false;

  // ---- filled by validate()
  OpenLoopCli open_loop;
  DiskTypeCli disk_type;
  obs::SloConfig slo;
  WatchCli watch;
  obs::SampleConfig trace_sample;
  ha::FaultPlan plan;

  bool open_loop_on() const { return !open_loop_spec.empty(); }
  /// Recovery orchestration: asked for, or implied by a fault plan (chaos
  /// without recovery needs --no-ha).
  bool orchestrate() const {
    return ha_on || (!faults_spec.empty() && !no_ha);
  }
  std::uint64_t blocks_per_disk() const { return (10ull << 30) / block; }
};

RunSpec parse_args(int argc, char** argv) {
  RunSpec s;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // Accept --flag=value as well as --flag value.
    std::optional<std::string> inline_value;
    if (a.rfind("--", 0) == 0) {
      const std::size_t eq = a.find('=');
      if (eq != std::string::npos) {
        inline_value = a.substr(eq + 1);
        a = a.substr(0, eq);
      }
    }
    bool consumed_value = false;
    auto next = [&]() -> std::string {
      consumed_value = true;
      if (inline_value) return *inline_value;
      if (i + 1 >= argc) reject("missing value for %s\n", a.c_str());
      return argv[++i];
    };
    auto num = [&](auto& field) { set_number(field, a, next()); };
    if (a == "--arch") s.arch = parse_arch(next());
    else if (a == "--nodes") num(s.nodes);
    else if (a == "--shards") num(s.shards);
    else if (a == "--sites") num(s.sites);
    else if (a == "--wan-rtt") s.wan_rtt_ms = parse_number<double>(a, next());
    else if (a == "--wan-bw") s.wan_bw = parse_number<double>(a, next());
    else if (a == "--wan-window") {
      s.wan_window = parse_size(a, next(), 0, kMaxBytes);
    }
    else if (a == "--geo-rep") s.geo_rep = true;
    else if (a == "--geo-rep-mbs") {
      s.geo_rep_mbs = parse_number<double>(a, next());
    }
    else if (a == "--threads") num(s.threads);
    else if (a == "--disks") num(s.disks);
    else if (a == "--clients") num(s.clients);
    else if (a == "--op") s.is_write = (next() == "write");
    else if (a == "--bytes") s.bytes = parse_size(a, next(), 1, kMaxBytes);
    else if (a == "--ops") num(s.ops);
    else if (a == "--scattered") s.scattered = true;
    else if (a == "--block") {
      s.block = static_cast<std::uint32_t>(parse_size(a, next(), 512, 1 << 30));
    }
    else if (a == "--fail") s.fails.push_back(parse_number<int>(a, next()));
    else if (a == "--disk-type") s.disk_type_spec = next();
    else if (a == "--no-bg-mirrors") s.bg_mirrors = false;
    else if (a == "--no-locks") s.locks = false;
    else if (a == "--window") s.window = parse_number<int>(a, next(), 1);
    else if (a == "--cache-mb") {
      num(s.cache_mb);
      if (s.cache_mb < 0.0) {
        std::fprintf(stderr, "--cache-mb must be >= 0\n");
        std::exit(2);
      }
    }
    else if (a == "--cache-policy") s.cache_policy = next();
    else if (a == "--cache-evict") s.cache_evict = next();
    else if (a == "--coop-cache") s.coop_cache = true;
    else if (a == "--warm") num(s.warm);
    else if (a == "--workload") s.workload_kind = next();
    else if (a == "--faults") s.faults_spec = next();
    else if (a == "--ha") s.ha_on = true;
    else if (a == "--no-ha") s.no_ha = true;
    else if (a == "--spares") num(s.spares);
    else if (a == "--global-spares") num(s.global_spares);
    else if (a == "--rebuild-mbs") num(s.rebuild_mbs);
    else if (a == "--timeout-ms") num(s.timeout_ms);
    else if (a == "--verify-reads") s.verify_reads = true;
    else if (a == "--scrub-rate") num(s.scrub_rate);
    else if (a == "--fail-threshold") num(s.fail_threshold);
    else if (a == "--seed") num(s.seed);
    else if (a == "--open-loop") s.open_loop_spec = next();
    else if (a == "--replay") s.replay_file = next();
    else if (a == "--dump-trace") s.dump_trace_file = next();
    else if (a == "--trace") s.trace_out = next();
    else if (a == "--trace-sample") s.trace_sample_spec = next();
    else if (a == "--slo") s.slo_spec = next();
    else if (a == "--watch") s.watch_spec = next();
    else if (a == "--metrics") s.metrics_out = next();
    else if (a == "--verbose") s.verbose = true;
    else {
      std::fprintf(stderr, "%s: unknown option %s\n\n", argv[0], a.c_str());
      usage(argv[0]);
    }
    if (inline_value && !consumed_value) {
      reject("%s takes no value\n", a.c_str());
    }
  }
  return s;
}

/// The one validation pass.  Every rejected input or flag combination --
/// including ones that would silently do nothing, or fail only after a
/// long build -- cites the flag or clause at fault and exits 2 before
/// anything is built.  Checks run in a fixed order, so the same bad
/// command line always gets the same message.
void validate(RunSpec& s) {
  if (s.nodes < 2 || s.disks < 1 || s.clients < 1 || s.ops < 1) usage(g_argv0);
  const bool cache_on = s.cache_mb > 0.0 && s.cache_policy != "none";
  if (s.warm < 0) reject("--warm must be >= 0\n");
  if (s.warm > 0 && !cache_on) {
    reject("--warm only makes sense with a cache; add --cache-mb (or drop "
           "--warm)\n");
  }
  if (s.coop_cache && !cache_on) {
    reject("--coop-cache requires a cache; add --cache-mb\n");
  }
  const bool andrew = s.workload_kind == "andrew";
  if (s.workload_kind != "io" && !andrew) {
    reject("unknown workload '%s' (io|andrew)\n", s.workload_kind.c_str());
  }
  if (s.ha_on && s.no_ha) reject("--ha and --no-ha conflict\n");
  if (s.spares < 0 || s.global_spares < 0 || s.rebuild_mbs < 0 ||
      s.timeout_ms < 0) {
    reject("--spares/--global-spares/--rebuild-mbs/--timeout-ms must be "
           ">= 0\n");
  }
  if (s.scrub_rate < 0 || s.fail_threshold < 0) {
    reject("--scrub-rate/--fail-threshold must be >= 0\n");
  }
  if (andrew && !s.replay_file.empty()) {
    reject("--workload andrew and --replay conflict\n");
  }
  if (s.open_loop_on() &&
      (andrew || !s.replay_file.empty() || !s.dump_trace_file.empty())) {
    reject("--open-loop replaces the workload; it conflicts with --workload "
           "andrew, --replay, and --dump-trace\n");
  }
  if (s.open_loop_on()) s.open_loop = parse_open_loop_spec(s.open_loop_spec);
  const OpenLoopCli& ol = s.open_loop;

  // Device mix: parse first, then check the combinations the layouts can
  // actually place.
  if (!s.disk_type_spec.empty()) {
    s.disk_type = parse_disk_type_spec(s.disk_type_spec);
  }
  const DiskTypeCli::Kind kind = s.disk_type.kind;
  if (kind == DiskTypeCli::Kind::kHybrid) {
    if (s.arch != workload::Arch::kRaid1 && s.arch != workload::Arch::kRaid10 &&
        s.arch != workload::Arch::kRaidX) {
      reject("--disk-type hybrid places primaries on SSD and mirror images on "
             "HDD; it needs a mirrored layout (--arch raid1|raid10|raidx)\n");
    }
    if (s.arch != workload::Arch::kRaid1 && s.disks % 2 != 0) {
      reject("--disk-type hybrid splits each node's disk rows in half (SSD "
             "data rows over HDD image rows); --disks %d must be even\n",
             s.disks);
    }
  }
  if (kind != DiskTypeCli::Kind::kHdd && s.shards > 1) {
    reject("--disk-type %s builds a heterogeneous device map; the sharded "
           "runner is spindle-only (drop --shards)\n",
           kind == DiskTypeCli::Kind::kSsd ? "ssd" : "hybrid");
  }

  // Federations: shards and sites.
  if (s.shards < 1) reject("--shards must be >= 1 (got %d)\n", s.shards);
  if (s.threads < 0) reject("--threads must be >= 0 (got %d)\n", s.threads);
  if (s.threads > 0 && s.shards == 1) {
    reject("--threads drives the shard worker pool; it needs --shards > 1\n");
  }
  if (ol.remote > 0.0 && s.shards == 1 && s.sites == 1) {
    reject("--open-loop remote=%g sends traffic across shards or sites; it "
           "needs --shards > 1 or --sites > 1\n", ol.remote);
  }
  if (s.sites < 1) reject("--sites must be >= 1 (got %d)\n", s.sites);
  if (s.sites == 1 && (s.wan_rtt_ms || s.wan_bw || s.wan_window || s.geo_rep)) {
    reject("--wan-rtt/--wan-bw/--wan-window/--geo-rep shape the inter-site "
           "WAN; they need --sites > 1\n");
  }
  if (s.geo_rep_mbs && !s.geo_rep) {
    reject("--geo-rep-mbs throttles replication catch-up; add --geo-rep\n");
  }
  const bool single_site_features = !s.fails.empty() || s.verify_reads ||
                                    s.scrub_rate > 0 ||
                                    s.fail_threshold > 0 || s.warm > 0;
  if (s.sites > 1) {
    if (s.shards > 1) {
      reject("--sites and --shards are different federations (WAN mesh vs "
             "threaded placement groups); pick one\n");
    }
    if (!s.open_loop_on()) {
      reject("--sites %d drives each site with open-loop traffic; add "
             "--open-loop SPEC\n", s.sites);
    }
    if (s.arch == workload::Arch::kNfs) {
      reject("--sites needs a block engine per site; --arch nfs has one "
             "central server and cannot federate\n");
    }
    // Unset knobs take the (positive) wan::LinkParams defaults.
    if (s.wan_rtt_ms.value_or(1) <= 0 || s.wan_bw.value_or(1) <= 0 ||
        s.wan_window.value_or(1) == 0) {
      reject("--wan-rtt/--wan-bw/--wan-window must be > 0\n");
    }
    if (s.geo_rep_mbs.value_or(0) < 0) reject("--geo-rep-mbs must be >= 0\n");
    if (s.ha_on) {
      reject("--ha orchestration is per-site and not federated yet; WAN "
             "chaos runs raw (drop --ha)\n");
    }
    if (ol.qos_mbs > 0.0) {
      reject("--open-loop qos-mbs gates one array; the WAN federation does "
             "not gate yet (drop qos-mbs or --sites)\n");
    }
    if (single_site_features) {
      reject("--fail/--verify-reads/--scrub-rate/--fail-threshold/--warm are "
             "single-site features (use --faults for WAN chaos)\n");
    }
    if (s.watch_spec) {
      reject("--watch scrapes one cluster's resources; it does not support "
             "--sites > 1 yet\n");
    }
  }
  if (s.shards > 1) {
    if (!s.open_loop_on()) {
      reject("--shards %d partitions the open-loop engine; add --open-loop "
             "SPEC (the closed-loop workloads run single-shard)\n", s.shards);
    }
    if (s.arch == workload::Arch::kNfs) {
      reject("--shards needs a block engine per group; --arch nfs has one "
             "central server and cannot shard\n");
    }
    if (s.nodes % s.shards != 0) {
      reject("--nodes %d is not divisible by --shards %d (every placement "
             "group must be identical)\n", s.nodes, s.shards);
    }
    if (s.nodes / s.shards < 2) {
      reject("--nodes %d over --shards %d leaves %d node(s) per group; the "
             "array geometry needs >= 2\n", s.nodes, s.shards,
             s.nodes / s.shards);
    }
    if (ol.qos_mbs > 0.0) {
      reject("--open-loop qos-mbs is per-array admission; the sharded runner "
             "does not gate yet (drop qos-mbs or --shards)\n");
    }
    if (single_site_features) {
      reject("--fail/--verify-reads/--scrub-rate/--fail-threshold/--warm are "
             "single-shard features (use --faults for sharded chaos)\n");
    }
    if (!s.trace_out.empty() || s.trace_sample_spec || s.slo_spec ||
        s.watch_spec) {
      reject("--trace/--trace-sample/--slo/--watch attach to one "
             "simulation's hub; they do not support --shards > 1 yet\n");
    }
  }

  // Telemetry specs: a sampler without a trace file, or an SLO with no
  // open-loop traffic to observe, would silently do nothing.
  if (s.trace_sample_spec && s.trace_out.empty()) {
    reject("--trace-sample needs --trace FILE\n");
  }
  if (s.slo_spec && !s.open_loop_on()) {
    reject("--slo monitors open-loop traffic; add --open-loop\n");
  }
  if (s.slo_spec) s.slo = parse_slo_spec(*s.slo_spec);
  if (s.watch_spec) s.watch = parse_watch_spec(*s.watch_spec);
  if (s.trace_sample_spec) {
    s.trace_sample = parse_trace_sample_spec(*s.trace_sample_spec);
  }
  if (!s.replay_file.empty() && !s.dump_trace_file.empty()) {
    reject("--replay and --dump-trace conflict (replay consumes a trace, "
           "dump-trace only generates one)\n");
  }
  // Output paths are probed now so a bad path fails in milliseconds, not
  // after the whole simulation has run.
  for (const std::string* out : {&s.trace_out, &s.metrics_out, &s.watch.out}) {
    if (!out->empty() && !std::ofstream(*out)) {
      reject("cannot write %s\n", out->c_str());
    }
  }
  if (s.cache_policy != "none" && s.cache_policy != "wt" &&
      s.cache_policy != "wb") {
    std::fprintf(stderr, "unknown cache policy: %s\n", s.cache_policy.c_str());
    std::exit(2);
  }
  if (s.cache_evict != "lru" && s.cache_evict != "2q") {
    std::fprintf(stderr, "unknown eviction policy: %s\n",
                 s.cache_evict.c_str());
    std::exit(2);
  }

  // Chaos plan, in federation-global ids: shard s owns disks
  // [s * nodes/shards * disks, ...) and site s owns [s * nodes * disks,
  // ...).  Partition events need a CDD timeout, or any request in flight
  // across the partition waits forever.
  if (!s.faults_spec.empty()) {
    const bool wan = s.sites > 1;
    try {
      s.plan = ha::FaultPlan::parse(
          s.faults_spec, s.sites * s.nodes * s.disks, s.blocks_per_disk(),
          wan ? s.sites : 0, wan ? wan::Federation::mesh_links(s.sites) : 0);
    } catch (const std::exception& e) {
      reject("%s\n", e.what());
    }
    for (const ha::FaultEvent& ev : s.plan.events()) {
      using K = ha::FaultEvent::Kind;
      const bool node_fault =
          ev.kind == K::kPartitionNode || ev.kind == K::kJoinNode;
      const bool corrupt = ev.kind == K::kCorruptBlock;
      if (wan && node_fault) {
        reject("part:/join: node faults are single-site features; use "
               "partition:site= under --sites\n");
      }
      if (wan && corrupt) {
        reject("corrupt:/rot: faults need the integrity plane, which is "
               "single-site; use fail:/partition: chaos under --sites\n");
      }
      if (ev.kind == K::kPartitionNode && s.timeout_ms <= 0) {
        reject("part: faults need --timeout-ms, or requests at the "
               "partitioned node block forever\n");
      }
      if (node_fault && (ev.target < 0 || ev.target >= s.nodes)) {
        reject("no such node: %d\n", ev.target);
      }
      if (corrupt && s.shards > 1) {
        reject("corrupt: faults need the integrity plane, which is "
               "single-shard; use fail:/part: chaos under --shards\n");
      }
    }
  }
  for (int f : s.fails) {
    if (f < 0 || f >= s.nodes * s.disks) {
      std::fprintf(stderr, "no such disk: %d\n", f);
      std::exit(2);
    }
  }
}

/// One array's build parameters, shared by all three topologies.
struct StackParams {
  cluster::ClusterParams cluster = cluster::ClusterParams::trojans();
  raid::EngineParams engine;
  cache::CacheParams cache;
  cdd::CddParams cdd;
};

/// `nodes` is one array's node count (a shard's, under --shards).
StackParams stack_params(const RunSpec& s, int nodes) {
  StackParams p;
  auto& g = p.cluster.geometry;
  g.nodes = nodes;
  g.disks_per_node = s.disks;
  g.block_bytes = s.block;
  g.blocks_per_disk = s.blocks_per_disk();
  // Andrew builds a real file system and verifies its bytes, so the disks
  // must store data; the synthetic sweeps only measure timing.
  p.cluster.disk.store_data = s.workload_kind == "andrew";

  // Device mix: ssd makes every slot flash; hybrid puts the top disk rows
  // (data) on flash and the bottom rows (mirror images) on spindles --
  // except RAID-1, whose mirror pairs are adjacent global ids, so the map
  // splits even (primary, SSD) from odd (mirror, HDD) instead.
  const DiskTypeCli& dt = s.disk_type;
  p.cluster.flash = dt.flash;
  if (dt.kind != DiskTypeCli::Kind::kHdd) {
    const int total = nodes * s.disks;
    p.cluster.device_map.assign(static_cast<std::size_t>(total),
                                disk::DeviceClass::kHdd);
    for (int id = 0; id < total; ++id) {
      bool ssd = true;
      if (dt.kind == DiskTypeCli::Kind::kHybrid) {
        ssd = s.arch == workload::Arch::kRaid1 ? id % 2 == 0
                                               : id / nodes < s.disks / 2;
      }
      if (ssd) {
        p.cluster.device_map[static_cast<std::size_t>(id)] =
            disk::DeviceClass::kSsd;
      }
    }
  }

  if (s.timeout_ms > 0) p.cdd.request_timeout = sim::milliseconds(s.timeout_ms);
  p.engine.background_mirrors = s.bg_mirrors;
  p.engine.use_locks = s.locks;
  p.engine.read_window = s.window;
  p.engine.write_window = s.window;
  // RAID-1 pairs are already split even/odd by the device map; only the
  // row-split layouts need the hybrid placement variant.
  p.engine.hybrid_mirrors = dt.kind == DiskTypeCli::Kind::kHybrid &&
                            s.arch != workload::Arch::kRaid1;
  if (s.cache_policy == "none") {
    p.cache.capacity_blocks = 0;
  } else {
    p.cache.capacity_blocks = static_cast<std::uint64_t>(
        s.cache_mb * 1024.0 * 1024.0 / static_cast<double>(s.block));
    p.cache.write_policy = s.cache_policy == "wb"
                               ? cache::WritePolicy::kWriteBack
                               : cache::WritePolicy::kWriteThrough;
  }
  if (s.cache_evict == "2q") p.cache.eviction = cache::EvictionPolicy::k2Q;
  p.cache.cooperative = s.coop_cache;
  return p;
}

ha::HaParams ha_params(const RunSpec& s) {
  ha::HaParams hp;
  hp.spares_per_node = s.spares;
  hp.global_spares = s.global_spares;
  hp.rebuild_mbs = s.rebuild_mbs;
  return hp;
}

void print_plan(const ha::FaultPlan& plan, bool orchestrated,
                const std::string& scope) {
  std::printf("fault plan (%s%s):\n%s", orchestrated ? "orchestrated" : "raw",
              scope.c_str(), plan.describe().c_str());
}

/// Every tenant gets the spec's shape; federations offset the seed and the
/// LBA base per group.
load::OpenLoopConfig open_loop_config(const RunSpec& s) {
  load::OpenLoopConfig cfg;
  cfg.tenants.assign(static_cast<std::size_t>(s.open_loop.tenants),
                     s.open_loop.shape);
  cfg.duration = sim::seconds(s.open_loop.duration_s);
  cfg.seed = s.seed;
  cfg.max_in_flight = s.open_loop.cap;
  return cfg;
}

/// The open-loop summary.  `group` names what a federation sums over
/// ("shard" or "site"); nullptr means a single array.
void report_open_loop(const load::ShardedLoadResult& r, double window_s,
                      const char* group) {
  const bool sites = group != nullptr && std::strcmp(group, "site") == 0;
  const std::string drained =
      group != nullptr ? std::string("slowest ") + group + " drained"
                       : "drained";
  std::printf("\noffered             : %8.2f MB/s (%llu requests over %.3f "
              "s%s)\n",
              r.offered_mbs, ull(r.offered), window_s,
              sites ? ", all sites" : "");
  std::printf("goodput             : %8.2f MB/s (%llu completed, %s at %.3f "
              "s)\n",
              r.goodput_mbs, ull(r.completed), drained.c_str(),
              sim::to_seconds(r.drained_at));
  std::printf("turned away         : %llu rejected, %llu shed, %llu failed, "
              "%llu cap-dropped\n",
              ull(r.rejected), ull(r.shed), ull(r.failed), ull(r.cap_dropped));
  if (group == nullptr) {
    std::printf("peak in flight      : %llu concurrent requests\n",
                ull(r.peak_in_flight));
  } else if (!sites) {
    std::printf("cross-shard         : %llu of %llu arrivals over the spine\n",
                ull(r.remote_ops), ull(r.offered));
  }
  std::printf("latency             : p50 %.2f ms, p99 %.2f ms, p999 %.2f ms\n",
              r.latency.quantile(0.50) / 1e6, r.latency.quantile(0.99) / 1e6,
              r.latency.quantile(0.999) / 1e6);
}

/// --verbose: one line per shard or site of a federation.
void report_per_group(const RunSpec& s, const load::ShardedLoadResult& r,
                      const char* group) {
  if (!s.verbose) return;
  for (std::size_t g = 0; g < r.per_shard.size(); ++g) {
    const load::OpenLoopResult& x = r.per_shard[g];
    std::printf("  %s %2zu: offered %7.2f MB/s, goodput %7.2f MB/s, p99 "
                "%8.2f ms, %llu remote\n",
                group, g, x.offered_mbs, x.goodput_mbs,
                x.latency.quantile(0.99) / 1e6, ull(x.remote_ops));
  }
}

/// Writes `json` and a newline to `path` and names it under `label`;
/// returns the exit status (1 when the write failed).
int write_json(const char* label, const std::string& path,
               const std::string& json) {
  std::ofstream out(path);
  out << json << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("%-20s: %s\n", label, path.c_str());
  return 0;
}

/// The hub's --metrics artifact.  The ordered cluster event log rides the
/// same file; the flat snapshot moves under "metrics" only when events
/// exist, so plain --metrics files keep their historical shape.
std::string hub_metrics_json(obs::Hub& hub) {
  if (hub.events() == nullptr) return hub.registry().snapshot_json();
  return "{\"metrics\":" + hub.registry().snapshot_json() +
         ",\"events\":" + hub.events()->json() + "}";
}

/// Trace, SLO, event log, --watch table and --metrics file of a run with
/// one hub (single site or WAN federation).  Collect into the hub's
/// registry before calling.  Returns the exit status.
int export_obs(const RunSpec& s, obs::Hub& hub, sim::Simulation& sim,
               const obs::Scraper* scraper) {
  if (!s.trace_out.empty()) {
    std::string err;
    if (!hub.tracer().export_chrome(s.trace_out, sim.now(), &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    const obs::Tracer& tr = hub.tracer();
    if (tr.selective()) {
      std::printf("trace               : %llu sampled + %zu reservoir "
                  "trace(s) of %llu -> %s\n",
                  ull(tr.sampled_kept()), tr.reservoir_count(),
                  ull(tr.traces_started()), s.trace_out.c_str());
    } else {
      std::printf("trace               : %zu spans -> %s\n",
                  tr.spans().size(), s.trace_out.c_str());
    }
  }
  if (const obs::SloMonitor* slo = hub.slo()) {
    const obs::SloStats& ss = slo->stats();
    std::printf("slo                 : %llu/%llu over %.1f ms target, %llu "
                "window(s), %llu breach(es), %llu recover(ies), worst burn "
                "%.2fx\n",
                ull(ss.violations), ull(ss.requests),
                sim::to_milliseconds(slo->config().latency_target),
                ull(ss.windows), ull(ss.breaches), ull(ss.recoveries),
                ss.worst_burn);
  }
  if (hub.events() != nullptr && !hub.events()->events().empty()) {
    std::printf("events              : %zu in cluster log",
                hub.events()->events().size());
    if (const obs::ClusterEvent* b = hub.events()->first("slo.breach")) {
      std::printf("; first breach at %.3f s", sim::to_seconds(b->at));
    }
    std::printf("\n");
    if (s.verbose) {
      for (const obs::ClusterEvent& ev : hub.events()->events()) {
        std::printf("  [%12.6f s] %-20s %s\n", sim::to_seconds(ev.at),
                    ev.kind.c_str(), ev.detail.c_str());
      }
    }
  }
  if (scraper != nullptr) {
    std::printf("\nwatch (%zu samples @ %.0f ms):\n%s", scraper->samples(),
                sim::to_milliseconds(scraper->interval()),
                scraper->render().c_str());
    if (!s.watch.out.empty() &&
        write_json("watch json", s.watch.out, scraper->json()) != 0) {
      return 1;
    }
  }
  if (s.metrics_out.empty()) return 0;
  return write_json("metrics", s.metrics_out, hub_metrics_json(hub));
}

/// --watch: sim-time series scraper.  Sampling rides daemon events, which
/// never keep run() alive or shift foreground timestamps, so a watched run
/// finishes at the same simulated instant as an unwatched one.
std::unique_ptr<obs::Scraper> make_scraper(const WatchCli& w,
                                           sim::Simulation& sim,
                                           cluster::Cluster& cluster,
                                           cdd::CddFabric& fabric) {
  auto scraper = std::make_unique<obs::Scraper>(sim, w.interval, w.samples);
  scraper->add_series(
      "disk.util", [&cluster, &sim, prev = 0.0, prev_t = 0.0]() mutable {
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
      "net.tx_mbs", [&cluster, &sim, prev = 0.0, prev_t = 0.0]() mutable {
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
      "cdd.remote_ops", [&fabric, &sim, prev = 0.0, prev_t = 0.0]() mutable {
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
  return scraper;
}

void print_ha_summary(const ha::Orchestrator* orch) {
  if (orch == nullptr) return;
  const ha::HaStats& hs = orch->stats();
  std::printf("ha                  : %llu detections (%llu traffic, %llu "
              "probe), %llu failovers, %llu rebuilds, %d spares left\n",
              ull(hs.detections), ull(hs.detections_by_traffic),
              ull(hs.detections_by_probe), ull(hs.failovers),
              ull(hs.rebuilds_completed), orch->spares().total_available());
  if (!hs.mttr_ns.empty()) {
    double sum = 0;
    for (sim::Time t : hs.mttr_ns) sum += static_cast<double>(t);
    std::printf("ha mttr             : %8.3f s mean over %zu recoveries\n",
                sum / static_cast<double>(hs.mttr_ns.size()) * 1e-9,
                hs.mttr_ns.size());
  }
}

/// Returns nonzero when the scrub soak failed to converge: with the daemon
/// on, every injected error must be accounted for -- detected (and
/// repaired or explicitly listed unrecoverable), overwritten by traffic,
/// or superseded by a whole-disk recovery -- and no repair may have
/// errored out.  CI runs storms through this gate.
int print_integrity_summary(const integrity::IntegrityPlane* plane) {
  if (plane == nullptr) return 0;
  const integrity::IntegrityStats& is = plane->stats();
  std::printf("integrity           : %llu injected, %llu detected (%llu read, "
              "%llu scrub), %llu repaired, %llu unrecoverable\n",
              ull(is.injected), ull(is.detected), ull(is.detected_by_read),
              ull(is.detected_by_scrub), ull(is.repaired),
              ull(is.unrecoverable));
  if (is.overwritten > 0 || is.superseded > 0 || is.escalations > 0) {
    std::printf("integrity (other)   : %llu overwritten, %llu superseded by "
                "rebuild, %llu disks escalated\n",
                ull(is.overwritten), ull(is.superseded), ull(is.escalations));
  }
  if (plane->params().scrub) {
    std::printf("scrub               : %llu passes, %llu blocks verified (cap "
                "%.1f MB/s)\n",
                ull(is.scrub_passes), ull(is.blocks_scrubbed),
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
      std::printf(" D%d:%llu", b.disk, ull(b.offset));
    }
    std::printf("\n");
  }
  if (plane->params().scrub && is.injected > 0 &&
      (plane->undetected() > 0 || is.repairs_failed > 0)) {
    std::fprintf(stderr,
                 "integrity soak FAILED: %llu injected errors never "
                 "accounted for, %llu repairs errored\n",
                 ull(plane->undetected()), ull(is.repairs_failed));
    return 1;
  }
  return 0;
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

int dump_trace(const RunSpec& s) {
  workload::TraceGenConfig tg;
  tg.clients = s.clients;
  tg.ops_per_client = s.ops;
  tg.write_fraction = s.is_write ? 0.7 : 0.3;
  tg.seed = s.seed;
  std::ofstream out(s.dump_trace_file);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", s.dump_trace_file.c_str());
    return 1;
  }
  out << workload::format_trace(workload::generate_trace(tg));
  std::printf("wrote %d x %d trace records to %s\n", s.clients, s.ops,
              s.dump_trace_file.c_str());
  return 0;
}

/// Sharded federation: S identical placement groups advanced in parallel
/// under the conservative synchronizer, open-loop traffic per group,
/// optional ring-ordered cross-shard redirection.
int run_sharded(const RunSpec& s) {
  const StackParams p = stack_params(s, s.nodes / s.shards);
  cluster::ShardedParams sp;
  sp.shards = s.shards;
  sp.arch = s.arch;
  sp.engine = p.engine;
  sp.cache = p.cache;
  sp.cdd = p.cdd;
  const bool orch = s.orchestrate();
  cluster::ShardedCluster world(p.cluster, sp);
  if (!s.plan.empty() || orch) {
    const ha::HaParams hp = ha_params(s);
    if (!s.plan.empty()) {
      print_plan(s.plan, orch,
                 ", partitioned over " + std::to_string(s.shards) + " shards");
    }
    try {
      world.arm_faults(s.plan, orch ? &hp : nullptr);
    } catch (const std::exception& e) {
      reject("%s\n", e.what());
    }
  }

  const OpenLoopCli& ol = s.open_loop;
  const int nthreads = s.threads > 0 ? s.threads : s.shards;
  std::printf("raidxsim: sharded open-loop on %s, %d shard(s) x %d nodes, %d "
              "tenant(s) x %.0f ops/s per shard, remote %.1f%%, %d "
              "worker(s)\n",
              world.engine(0).name().c_str(), s.shards, s.nodes / s.shards,
              ol.tenants, ol.shape.rate_ops, 100.0 * ol.remote, nthreads);
  const load::ShardedLoadResult r = load::run_open_loop_sharded(
      world, open_loop_config(s), ol.remote, nthreads);
  report_open_loop(r, ol.duration_s, "shard");
  const sim::ShardGroup::Stats& gs = world.group().stats();
  std::printf("sync                : %llu windows, %llu cross-shard "
              "messages\n",
              ull(gs.windows), ull(gs.messages));
  report_per_group(s, r, "shard");
  if (orch) {
    std::uint64_t det = 0, reb = 0;
    for (int g = 0; g < s.shards; ++g) {
      const ha::HaStats& hs = world.shard(g).orchestrator->stats();
      det += hs.detections;
      reb += hs.rebuilds_completed;
    }
    std::printf("ha                  : %llu detections, %llu rebuilds across "
                "%d shards\n",
                ull(det), ull(reb), s.shards);
  }
  if (s.metrics_out.empty()) return 0;
  return write_json("metrics", s.metrics_out, world.merged_snapshot_json());
}

/// WAN federation: N identical sites (each the full --nodes x --disks
/// cluster) under one simulation, joined by a full mesh of BDP-limited
/// links, driven by per-site open-loop traffic with optional cross-site
/// redirection and geo-replicated mirrors.
int run_federation(RunSpec& s, sim::Simulation& sim, obs::Hub& hub) {
  const StackParams p = stack_params(s, s.nodes);
  wan::FederationParams fp;
  fp.sites = s.sites;
  fp.link.bandwidth_mbs = s.wan_bw.value_or(fp.link.bandwidth_mbs);
  if (s.wan_rtt_ms) fp.link.rtt = sim::milliseconds(*s.wan_rtt_ms);
  fp.link.window_bytes = s.wan_window.value_or(fp.link.window_bytes);
  fp.geo_rep = s.geo_rep;
  fp.repl.ship_mbs = s.geo_rep_mbs.value_or(0.0);
  fp.cluster = p.cluster;
  fp.arch = s.arch;
  fp.engine = p.engine;
  fp.cache = p.cache;
  fp.cdd = p.cdd;
  std::unique_ptr<wan::Federation> fed;
  try {
    fed = std::make_unique<wan::Federation>(sim, fp);
  } catch (const std::exception& e) {
    reject("%s\n", e.what());
  }

  // Per-site working sets are carved from the site's own primary region,
  // so they must fit in region_blocks, not the whole array.
  const OpenLoopCli& ol = s.open_loop;
  const std::uint64_t slots = std::max<std::uint64_t>(
      1, ol.shape.working_set_blocks / ol.shape.blocks_per_op);
  const std::uint64_t need = static_cast<std::uint64_t>(ol.tenants) *
                             slots * ol.shape.blocks_per_op;
  if (need > fed->region_blocks()) {
    reject("per-site tenant working sets need %llu blocks but each site's "
           "primary region holds %llu (shrink --open-loop ws=/tenants= or "
           "grow the array)\n",
           ull(need), ull(fed->region_blocks()));
  }
  if (!s.plan.empty()) {
    print_plan(s.plan, false, ", " + std::to_string(s.sites) + " sites");
    try {
      fed->arm_faults(s.plan);
    } catch (const std::exception& e) {
      reject("%s\n", e.what());
    }
  }

  std::printf("raidxsim: wan federation on %s, %d sites x %d nodes, %d "
              "link(s) @ %.0f MB/s, rtt %.0f ms, window %llu KB%s\n",
              fed->engine(0).name().c_str(), s.sites, s.nodes,
              fed->num_links(), fp.link.bandwidth_mbs,
              s.wan_rtt_ms.value_or(sim::to_milliseconds(fp.link.rtt)),
              ull(fp.link.window_bytes >> 10), s.geo_rep ? " [geo-rep]" : "");
  std::printf("raidxsim: open-loop per site, %d tenant(s) x %.0f ops/s, zipf "
              "%.2f, remote %.1f%%\n",
              ol.tenants, ol.shape.rate_ops, ol.shape.zipf_alpha,
              100.0 * ol.remote);
  std::vector<std::unique_ptr<load::OpenLoopDriver>> drivers;
  for (int site = 0; site < s.sites; ++site) {
    load::OpenLoopConfig cfg = open_loop_config(s);
    cfg.seed += static_cast<std::uint64_t>(site);
    cfg.base_lba = fed->region_base(site);
    if (ol.remote > 0.0) {
      cfg.remote.fraction = ol.remote;
      cfg.remote.exec = [f = fed.get(), site](std::uint64_t slot,
                                              std::uint32_t nblocks,
                                              bool write) {
        return f->remote_io(site, slot, nblocks, write);
      };
    }
    drivers.push_back(
        std::make_unique<load::OpenLoopDriver>(fed->engine(site), cfg));
  }
  const Teardown teardown{sim};
  for (auto& d : drivers) d->start();
  sim.run();

  std::vector<load::OpenLoopResult> per_site;
  for (auto& d : drivers) per_site.push_back(d->finish());
  const load::ShardedLoadResult r =
      load::accumulate_groups(std::move(per_site));
  report_open_loop(r, ol.duration_s, "site");
  report_per_group(s, r, "site");

  const wan::WanStats& ws = fed->stats();
  std::uint64_t link_bytes = 0, link_drops = 0;
  for (int l = 0; l < fed->num_links(); ++l) {
    link_bytes += fed->link_by_id(l).bytes_carried();
    link_drops += fed->link_by_id(l).drops();
  }
  std::printf("wan reads           : %llu remote (%llu site-cache hits, %llu "
              "origin, %llu mirror [%llu stale], %llu unreachable, %llu "
              "redirected)\n",
              ull(ws.remote_reads), ull(ws.cache_hits), ull(ws.origin_reads),
              ull(ws.mirror_reads), ull(ws.stale_served), ull(ws.unreachable),
              ull(ws.redirects));
  std::printf("wan writes          : %llu forwarded, %llu forward failures\n",
              ull(ws.remote_writes), ull(ws.write_forward_failures));
  if (ws.remote_reads > 0) {
    std::printf("wan read latency    : p50 %.2f ms, p99 %.2f ms\n",
                fed->remote_read_latency().quantile(0.50) / 1e6,
                fed->remote_read_latency().quantile(0.99) / 1e6);
  }
  std::printf("wan links           : %.2f MB carried, %llu drops\n",
              static_cast<double>(link_bytes) / 1e6, ull(link_drops));
  if (wan::Replicator* rep = fed->replicator()) {
    std::uint64_t appended = 0, coalesced = 0, shipped = 0, failed = 0;
    for (int a = 0; a < s.sites; ++a) {
      for (int b = 0; b < s.sites; ++b) {
        if (a == b) continue;
        const wan::StreamStats& st = rep->stream(a, b);
        appended += st.appended;
        coalesced += st.coalesced;
        shipped += st.shipped;
        failed += st.failed_ships;
      }
    }
    std::printf("geo-rep             : %llu appended (%llu coalesced), %llu "
                "shipped, %llu failed ships, backlog %llu (peak %llu)\n",
                ull(appended), ull(coalesced), ull(shipped), ull(failed),
                ull(rep->total_backlog()), ull(rep->peak_backlog()));
    if (rep->lag().count() > 0) {
      std::printf("geo-rep lag         : p50 %.2f ms, p99 %.2f ms, max %.2f "
                  "ms, %llu violation(s) of the %.1f s bound\n",
                  rep->lag().quantile(0.50) / 1e6,
                  rep->lag().quantile(0.99) / 1e6,
                  static_cast<double>(rep->max_lag()) / 1e6,
                  ull(rep->staleness_violations()),
                  sim::to_seconds(fp.repl.staleness_bound));
    }
    if (rep->total_backlog() == 0) {
      std::printf("geo-rep converged   : %8.3f s\n",
                  sim::to_seconds(rep->last_converged()));
    } else {
      std::printf("geo-rep converged   : never (a partition outlived the run; "
                  "%llu entries still queued)\n",
                  ull(rep->total_backlog()));
    }
  }
  if (!s.metrics_out.empty()) fed->collect(hub.registry());
  return export_obs(s, hub, sim, nullptr);
}

/// One site: cluster -> CDD fabric -> engine -> cache, plus --watch, HA
/// and the integrity plane, driven by one workload.
int run_single(RunSpec& s, sim::Simulation& sim, obs::Hub& hub) {
  const StackParams p = stack_params(s, s.nodes);
  cluster::Cluster cluster(sim, p.cluster);
  cdd::CddFabric fabric(cluster, p.cdd);
  auto engine = workload::make_engine(s.arch, fabric, p.engine);
  cache::CacheFabric block_cache(cluster, p.cache);
  engine->attach_cache(&block_cache);
  std::unique_ptr<obs::Scraper> scraper;
  if (s.watch_spec) scraper = make_scraper(s.watch, sim, cluster, fabric);
  for (int f : s.fails) cluster.disk(f).fail();
  std::unique_ptr<ha::Orchestrator> orch;
  if (s.orchestrate()) {
    orch = std::make_unique<ha::Orchestrator>(*engine, ha_params(s));
  }
  // Integrity plane: on when verification or scrubbing was asked for, or
  // implied by corruption in the fault plan (silent corruption with no
  // checksum plane would vanish without a trace -- the very failure mode
  // the subsystem exists to expose).
  std::unique_ptr<integrity::IntegrityPlane> plane;
  if (s.verify_reads || s.scrub_rate > 0 || s.fail_threshold > 0 ||
      s.plan.has_corruption()) {
    integrity::IntegrityParams ip;
    ip.verify_reads = s.verify_reads;
    ip.scrub = s.scrub_rate > 0;
    ip.scrub_rate_mbs = s.scrub_rate;
    ip.fail_threshold = s.fail_threshold;
    plane = std::make_unique<integrity::IntegrityPlane>(*engine, ip);
  }
  if (!s.plan.empty()) {
    print_plan(s.plan, orch != nullptr, "");
    s.plan.arm(cluster, orch.get(), plane.get());
  }
  // Queued QoS admissions hold guards on the gate's per-tenant FIFOs, so
  // the teardown must run while the gate is still alive.
  std::unique_ptr<load::QosGate> gate;
  const Teardown teardown{sim};

  std::uint64_t unfinished = 0, issued = 0;
  if (s.open_loop_on()) {
    const OpenLoopCli& ol = s.open_loop;
    if (ol.qos_mbs > 0.0) {
      load::TenantQos q;
      q.rate_mbs = ol.qos_mbs;
      q.burst_mb = ol.qos_burst_mb;
      q.policy = ol.policy;
      gate = std::make_unique<load::QosGate>(
          sim, std::vector<load::TenantQos>(
                   static_cast<std::size_t>(ol.tenants), q));
    }
    std::printf("raidxsim: open-loop on %s, %d tenant(s) x %.0f ops/s (%s%s), "
                "zipf %.2f, %d sessions each%s\n",
                engine->name().c_str(), ol.tenants, ol.shape.rate_ops,
                ol.shape.dist == load::ArrivalDist::kBurst ? "burst"
                                                           : "poisson",
                ol.shape.write_fraction > 0 ? ", mixed r/w" : "",
                ol.shape.zipf_alpha, ol.shape.sessions,
                gate ? " [QoS gated]" : "");
    std::vector<load::OpenLoopResult> runs;
    runs.push_back(
        load::run_open_loop(*engine, open_loop_config(s), gate.get()));
    const load::ShardedLoadResult r = load::accumulate_groups(std::move(runs));
    const load::OpenLoopResult& olr = r.per_shard[0];
    report_open_loop(r, sim::to_seconds(olr.duration), nullptr);
    if (s.verbose || ol.tenants > 1) {
      std::printf("\nper-tenant:\n");
      for (std::size_t t = 0; t < olr.tenants.size(); ++t) {
        const load::TenantResult& tr = olr.tenants[t];
        std::printf("  T%zu: offered %7.2f MB/s, goodput %7.2f MB/s, p99 "
                    "%8.2f ms, shed %llu, rejected %llu\n",
                    t, tr.offered_mbs, tr.goodput_mbs,
                    tr.latency.quantile(0.99) / 1e6, ull(tr.shed),
                    ull(tr.rejected));
      }
    }
    if (block_cache.enabled()) {
      const auto& cs = block_cache.stats();
      std::printf("cache               : %.1f%% hit, directory peak %llu "
                  "entries / %llu sharers\n",
                  100.0 * cs.hit_ratio(), ull(cs.directory_peak_entries),
                  ull(cs.directory_peak_sharers));
    }
  } else if (!s.replay_file.empty()) {
    std::ifstream in(s.replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", s.replay_file.c_str());
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
                recs.size(), s.replay_file.c_str(), engine->name().c_str());
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
  } else if (s.workload_kind == "andrew") {
    workload::AndrewConfig acfg;
    acfg.clients = s.clients;
    acfg.seed = s.seed;
    if (auto* srv = dynamic_cast<nfs::NfsEngine*>(engine.get())) {
      acfg.exclude_node = srv->server_node();
    }
    std::printf("raidxsim: Andrew benchmark on %s, %d clients\n",
                engine->name().c_str(), s.clients);
    const workload::AndrewResult ar = workload::run_andrew(*engine, acfg);
    const std::pair<const char*, sim::Time> phases[] = {
        {"MakeDir", ar.make_dir}, {"Copy", ar.copy_files},
        {"ScanDir", ar.scan_dir}, {"ReadAll", ar.read_all},
        {"Compile", ar.compile},  {"total", ar.total()}};
    std::printf("\n");
    for (const auto& [name, t] : phases) {
      std::printf("%-20s: %8.3f s\n", name, sim::to_seconds(t));
    }
  } else {
    workload::ParallelIoConfig cfg;
    cfg.clients = s.clients;
    cfg.op = s.is_write ? workload::IoOp::kWrite : workload::IoOp::kRead;
    cfg.bytes_per_op = s.bytes;
    cfg.ops_per_client = s.ops;
    cfg.scattered = s.scattered;
    cfg.warm_passes = s.warm;
    cfg.seed = s.seed;
    if (auto* srv = dynamic_cast<nfs::NfsEngine*>(engine.get())) {
      cfg.exclude_node = srv->server_node();
    }
    std::printf("raidxsim: %s on %dx%d (%s), %d clients x %d x %.2f MB %s%s\n",
                engine->name().c_str(), s.nodes, s.disks,
                p.cluster.geometry.describe().c_str(), s.clients, s.ops,
                static_cast<double>(s.bytes) / 1e6,
                s.is_write ? "write" : "read",
                s.scattered ? " (scattered)" : "");
    if (!s.fails.empty()) {
      std::printf("failed disks:");
      for (int f : s.fails) std::printf(" D%d", f);
      std::printf("\n");
    }
    const workload::ParallelIoResult r =
        workload::run_parallel_io(*engine, cfg);
    std::printf("\naggregate bandwidth : %8.2f MB/s (foreground)\n",
                r.aggregate_mbs);
    std::printf("sustained bandwidth : %8.2f MB/s (incl. background drain)\n",
                r.sustained_mbs);
    std::printf("elapsed             : %8.3f s\n", sim::to_seconds(r.elapsed));
    std::printf("ops                 : %llu of %llu completed\n",
                ull(r.ops_completed), ull(r.ops_issued));
    std::printf("op latency          : mean %.2f ms, p50 %.2f, p95 %.2f, max "
                "%.2f\n",
                r.op_latency.mean() / 1e6,
                sim::to_milliseconds(r.op_latency.quantile(0.5)),
                sim::to_milliseconds(r.op_latency.quantile(0.95)),
                sim::to_milliseconds(r.op_latency.max()));
    if (block_cache.enabled()) {
      const auto& cs = block_cache.stats();
      std::printf("cache               : %.1f MB/node %s%s, %s\n", s.cache_mb,
                  s.cache_policy.c_str(), s.coop_cache ? " cooperative" : "",
                  s.cache_evict.c_str());
      std::printf("cache hits          : %llu local, %llu peer, %llu misses "
                  "(%.1f%% hit)\n",
                  ull(cs.hits), ull(cs.peer_hits), ull(cs.misses),
                  100.0 * cs.hit_ratio());
      std::printf("cache traffic       : %llu fills, %llu absorbed writes, "
                  "%llu invalidations, %llu flushes, %llu evictions\n",
                  ull(cs.fills), ull(cs.writes_absorbed),
                  ull(cs.invalidations), ull(cs.flushes), ull(cs.evictions));
    }
    if (s.verbose) {
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
                    ull(disk.reads()), ull(disk.writes()));
      }
      std::printf("\nCDD requests: %llu local, %llu remote\n",
                  ull(fabric.local_requests()), ull(fabric.remote_requests()));
    }
    unfinished = r.ops_issued - r.ops_completed;
    issued = r.ops_issued;
  }

  print_ha_summary(orch.get());
  const int soak_rc = print_integrity_summary(plane.get());
  if (!s.metrics_out.empty()) {
    obs::collect_cluster(hub.registry(), cluster, &fabric, &block_cache,
                         orch.get(), plane.get());
  }
  if (export_obs(s, hub, sim, scraper.get()) != 0 || soak_rc != 0) return 1;
  // Ops that never completed leave nothing for the figures above to
  // measure: the run failed even though no op raised an error.
  if (unfinished > 0) {
    std::fprintf(stderr,
                 "%s: %llu of %llu ops never completed (the run ended with "
                 "requests still suspended)\n",
                 g_argv0, ull(unfinished), ull(issued));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_argv0 = argv[0];
  RunSpec s = parse_args(argc, argv);
  validate(s);
  if (!s.dump_trace_file.empty()) return dump_trace(s);
  try {
    if (s.shards > 1) return run_sharded(s);
    sim::Simulation sim;
    obs::Hub hub;
    if (!s.trace_out.empty() || !s.metrics_out.empty() || s.slo_spec ||
        s.watch_spec) {
      hub.tracing = !s.trace_out.empty();
      if (s.trace_sample_spec) hub.tracer().set_selective(s.trace_sample);
      // The attribution matrix rides the metrics snapshot; enabling it has
      // zero effect on simulated timestamps (pure bookkeeping at existing
      // span boundaries).
      if (!s.metrics_out.empty()) hub.enable_attribution();
      if (s.slo_spec) hub.enable_slo(s.slo);
      sim.set_hub(&hub);
    }
    return s.sites > 1 ? run_federation(s, sim, hub)
                       : run_single(s, sim, hub);
  } catch (const std::exception& e) {
    std::printf("run failed: %s\n", e.what());
    return 1;
  }
}
