// One repetition of one benchmark workload.
//
// Builds the workload's stack from the library's public API, in the order
// bench::World wires it (cluster -> CDD fabric -> cache fabric -> engine),
// runs it once, and prints one raw JSON record on stdout.  perfbench/run.py
// starts a fresh process per repetition, so setup time and peak RSS are
// those of a cold process, and turns the records into metrics.
//
// Usage:
//   perfbench_driver --workload NAME --seed N [--traced --trace-dir DIR]
//                    [--rate OPS --duration S]
//
// --traced attaches an obs::Hub with the attribution lanes and the sampled
// span tracer on, and writes the kept spans as Chrome trace JSON into DIR.
// Untraced runs attach no hub to single-simulation worlds at all (the
// sharded federation always carries one per shard).  --rate/--duration
// override the zipf-read-cache arrival rate and window (the knee ladder).
//
// The record holds what the run measured: workload totals, the attribution
// matrix (traced runs), the registry snapshot obs::collect_cluster takes,
// engine counters, host-clock spans around each public call, and the
// calibration slices timed around the measured phase (see "host speed"
// below).  Host times are integer nanoseconds; doubles print with 17
// significant digits.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_fabric.hpp"
#include "cdd/cdd.hpp"
#include "cluster/cluster.hpp"
#include "cluster/sharded.hpp"
#include "load/open_loop.hpp"
#include "obs/collect.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "workload/engines.hpp"
#include "workload/parallel_io.hpp"

namespace {

using namespace raidx;
using Clock = std::chrono::steady_clock;

// Read during static initialisation, before main(): the "process start"
// that setup time counts from.
const Clock::time_point kProcessStart = Clock::now();

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

std::int64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

// --- host speed -------------------------------------------------------
// The shared VMs this benchmark runs on change speed from one second to
// the next and by up to 2.5x from one hour to the next.  So every process
// also times a fixed piece of host work in slices, right before and right
// after the measured phase, on the same thread, and run.py divides host
// times by the median slice time (extract.speed_factor).  The work is the
// benchmark's own and calls no simulator code, so a faster simulator
// leaves it alone.  A slice has three parts, which together slow down
// about as much as the simulator does when the host does:
//   - an event loop shaped like the simulator's inner loop: a binary heap
//     of pending events, each event reading and writing a record of a
//     1 MB table and making one small heap allocation (40% of a slice);
//   - a chain of dependent multiplies, which only a slower core slows
//     (20%);
//   - a chain of dependent loads through a 16 MB table, which waits on
//     memory, as the simulator's cache misses do (40%).
// Each part alone, or the first two without the third, tracked the
// simulator worse; perfbench/README.md has the numbers.
constexpr std::size_t kCalibrationRecords = 1u << 14;  // 64 B each: 1 MB
constexpr std::size_t kCalibrationPending = 4096;
constexpr int kCalibrationEvents = 40'000;
constexpr int kCalibrationMultiplies = 3'000'000;
constexpr std::size_t kCalibrationLinks = 1u << 22;  // 4 B each: 16 MB
constexpr int kCalibrationLoads = 50'000;
constexpr int kCalibrationSlices = 5;  // before the measured phase, and after

struct CalibrationRecord {
  std::uint64_t v[8];
};

// Keeps the calibration work observable, so the compiler cannot drop it.
volatile std::uint64_t g_calibration_sink = 0;

/// The calibration's tables, mapped for one calibrate() call and unmapped
/// after it, so that no allocator keeps their pages resident.
class CalibrationTables {
 public:
  CalibrationTables() {
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("calibration: mmap failed");
    base_ = p;
  }
  ~CalibrationTables() { munmap(base_, kBytes); }
  CalibrationTables(const CalibrationTables&) = delete;
  CalibrationTables& operator=(const CalibrationTables&) = delete;

  CalibrationRecord* records() {
    return static_cast<CalibrationRecord*>(base_);
  }
  std::uint32_t* links() {
    return reinterpret_cast<std::uint32_t*>(records() + kCalibrationRecords);
  }

 private:
  static constexpr std::size_t kBytes =
      kCalibrationRecords * sizeof(CalibrationRecord) +
      kCalibrationLinks * sizeof(std::uint32_t);
  void* base_;
};

/// Runs kCalibrationSlices slices of the fixed work and appends each
/// slice's host time (ns) to `out`.
void calibrate(std::vector<std::int64_t>& out) {
  CalibrationTables tables;
  CalibrationRecord* const table = tables.records();
  std::uint32_t* const links = tables.links();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::size_t i = 0; i < kCalibrationRecords; ++i) {
    for (std::uint64_t& v : table[i].v) v = next();
  }
  // i -> a*i + c mod 2^22, with a = 1 mod 4 and c odd, is one cycle
  // through every link (Hull-Dobell), in an order no prefetcher follows.
  for (std::size_t i = 0; i < kCalibrationLinks; ++i) {
    links[i] = static_cast<std::uint32_t>(
        (i * 6364136223846793005ull + 1442695040888963407ull) &
        (kCalibrationLinks - 1));
  }
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, record)
  std::uint32_t link = 0;
  for (int slice = 0; slice < kCalibrationSlices; ++slice) {
    const Clock::time_point t0 = Clock::now();
    std::priority_queue<Event, std::vector<Event>, std::greater<>> pending;
    for (std::size_t i = 0; i < kCalibrationPending; ++i) {
      pending.emplace(next() % 1000, next() % kCalibrationRecords);
    }
    std::uint64_t sink = 0;
    for (int step = 0; step < kCalibrationEvents; ++step) {
      const auto [t, slot] = pending.top();
      pending.pop();
      CalibrationRecord& r = table[slot];
      const auto box = std::make_unique<std::uint64_t[]>(4);
      box[0] = t;
      box[1] = r.v[t & 7];
      r.v[(t >> 3) & 7] += box[1] ^ slot;
      sink += box[0] + box[1];
      pending.emplace(t + 1 + next() % 1000,
                      static_cast<std::uint32_t>(next() % kCalibrationRecords));
    }
    for (int i = 0; i < kCalibrationMultiplies; ++i) {
      sink = sink * 6364136223846793005ull + 1442695040888963407ull;
    }
    for (int i = 0; i < kCalibrationLoads; ++i) link = links[link];
    g_calibration_sink = g_calibration_sink + sink + link;
    out.push_back(ns_between(t0, Clock::now()));
  }
}

std::int64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Runs calibrate() without its pages counting toward the peak RSS the
/// record reports: keeps the peak so far in `peak_kb`, then resets the
/// kernel's high-water mark to the current RSS once the tables are gone.
/// Returns the host time all this took.
std::int64_t calibrate_aside(std::vector<std::int64_t>& out,
                             std::int64_t& peak_kb) {
  const Clock::time_point begin = Clock::now();
  peak_kb = std::max(peak_kb, peak_rss_kb());
  calibrate(out);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) {
    throw std::runtime_error(
        "cannot reset the peak RSS (/proc/self/clear_refs)");
  }
  return ns_between(begin, Clock::now());
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Every workload stripes 8 GB of 32 KB blocks: 32x the zipf-read-cache
// workload's total cache, and the same footprint on every cluster size.
constexpr std::uint64_t kWorkingSetBlocks = 262'144;
// Head-sampling probability of the span tracer in traced runs.  Kept
// traces are written out; everything else only feeds the reservoir.
constexpr double kSampleProbability = 0.01;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::string trace_dir;
  double rate = 0.0;      // 0 = the workload's own rate
  double duration = 0.0;  // 0 = the workload's own window, seconds
};

/// Host-clock spans the benchmark records around the public calls it
/// makes, in call order.
class HostSpans {
 public:
  /// Runs f() and returns its host time in nanoseconds.
  template <typename F>
  std::int64_t time(const char* name, F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    const std::int64_t ns = ns_between(t0, Clock::now());
    spans_.emplace_back(name, ns);
    return ns;
  }
  std::string json() const {
    sim::JsonWriter w;
    for (const auto& [name, ns] : spans_) w.add(name, ns);
    return w.str();
  }

 private:
  std::vector<std::pair<std::string, std::int64_t>> spans_;
};

/// One single-simulation world.  Member order matches bench::World, so
/// destruction runs engine -> cache -> fabric -> cluster -> simulation.
struct Stack {
  sim::Simulation sim;
  obs::Hub hub;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<cdd::CddFabric> fabric;
  std::unique_ptr<cache::CacheFabric> cache;
  std::unique_ptr<raid::ArrayController> engine;
};

/// What one run leaves behind for the record, filled by the workloads.
struct Run {
  sim::JsonWriter result;
  std::string registry;
  std::string registry_before;  // after the warm pass, when there is one
  obs::Attribution::TypeTotals attr[2];
  std::size_t attr_live = 0;
  // Engine counters of the measured phase: totals minus the values
  // mark_start() saw when it began (after any warm pass).
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t frames = 0;
  std::vector<std::uint64_t> events_at_start;  // per simulation
  std::vector<std::uint64_t> shard_events;
  std::uint64_t windows = 0;
  std::uint64_t cross_msgs = 0;
  std::uint64_t remote_sent = 0;
  std::uint64_t remote_failed = 0;
  std::uint64_t lock_records = 0;
  std::vector<std::string> trace_files;
  std::int64_t setup_ns = 0;
  // Warm-up time taken before setup, which setup_ns leaves out.
  std::int64_t warm_up_ns = 0;
  std::vector<std::int64_t> calibration_ns;  // per slice, around `driver`
  std::int64_t peak_rss_kb = 0;  // before the last calibrate_aside()
  std::int64_t driver_ns = 0;
  std::int64_t driver_cpu_ns = 0;
  std::int64_t teardown_ns = 0;
  HostSpans spans;
};

raid::EngineParams paper_engine() {
  raid::EngineParams p;
  p.verify_parity_on_read = true;  // as bench::paper_engine(); RAID-5 only
  return p;
}

cluster::ClusterParams pure_timing(int nodes, int disks_per_node) {
  auto p = cluster::ClusterParams::trojans();
  p.geometry.nodes = nodes;
  p.geometry.disks_per_node = disks_per_node;
  p.disk.store_data = false;
  return p;
}

std::unique_ptr<Stack> build(const cluster::ClusterParams& params,
                             const cache::CacheParams& cache_params,
                             HostSpans& spans) {
  auto s = std::make_unique<Stack>();
  spans.time("construct.cluster", [&] {
    s->cluster = std::make_unique<cluster::Cluster>(s->sim, params);
  });
  spans.time("construct.cdd", [&] {
    s->fabric = std::make_unique<cdd::CddFabric>(*s->cluster);
  });
  spans.time("construct.cache", [&] {
    s->cache = std::make_unique<cache::CacheFabric>(*s->cluster, cache_params);
  });
  spans.time("construct.engine", [&] {
    s->engine = workload::make_engine(workload::Arch::kRaidX, *s->fabric,
                                      paper_engine());
    s->engine->attach_cache(s->cache.get());
  });
  return s;
}

/// Attribution lanes plus the sampled span tracer, on `hub`.
void enable_tracing(obs::Hub& hub, std::size_t reservoir, std::uint64_t seed) {
  hub.tracing = true;
  hub.tracer().set_selective({kSampleProbability, reservoir, seed});
  hub.enable_attribution();
}

void add_attribution(Run& run, const obs::Hub& hub) {
  const obs::Attribution* a = hub.attribution();
  if (a == nullptr) return;
  const obs::Attribution::TypeTotals* src[2] = {&a->reads(), &a->writes()};
  for (int t = 0; t < 2; ++t) {
    for (std::size_t l = 0; l < obs::kNumLanes; ++l) {
      run.attr[t].lane_ns[l] += src[t]->lane_ns[l];
    }
    run.attr[t].count += src[t]->count;
    run.attr[t].total_ns += src[t]->total_ns;
    run.attr[t].aborted += src[t]->aborted;
    run.attr[t].aborted_ns += src[t]->aborted_ns;
  }
  run.attr_live += a->live_slots();
}

void export_trace(Run& run, const Options& opt, const obs::Hub& hub,
                  const sim::Simulation& sim, const std::string& name) {
  if (!opt.traced) return;
  const std::string path = opt.trace_dir + "/" + name + ".json";
  std::string err;
  if (!hub.tracer().export_chrome(path, sim.now(), &err)) {
    throw std::runtime_error(err);
  }
  run.trace_files.push_back(path);
}

// Call for each simulation, in order, right before the measured phase,
// and add_engine_counters() for each, in the same order, after it.
void mark_start(Run& run, const sim::Simulation& sim) {
  run.events_at_start.push_back(sim.events_processed());
  run.frames -= sim.frame_pool_stats().allocations;
}

void add_engine_counters(Run& run, const sim::Simulation& sim) {
  const std::uint64_t events =
      sim.events_processed() - run.events_at_start[run.shard_events.size()];
  run.events += events;
  run.shard_events.push_back(events);
  run.peak_pending =
      std::max(run.peak_pending, sim.queue_stats().peak_pending);
  run.frames += sim.frame_pool_stats().allocations;
}

std::uint64_t lock_records(cdd::CddFabric& fabric) {
  std::uint64_t n = 0;
  for (int i = 0; i < fabric.cluster().num_nodes(); ++i) {
    n += fabric.service(i).lock_table().records();
  }
  return n;
}

std::string collect(Stack& s) {
  obs::Registry reg;
  obs::collect_cluster(reg, *s.cluster, s.fabric.get(), s.cache.get());
  return reg.snapshot_json();
}

/// Ends setup and runs `drive`, the measured phase, under the "driver"
/// span, with the host CPU time it takes, between calibration slices.
template <typename F>
void measure(Run& run, F&& drive) {
  run.setup_ns = ns_between(kProcessStart, Clock::now()) - run.warm_up_ns;
  calibrate_aside(run.calibration_ns, run.peak_rss_kb);
  const std::int64_t cpu0 = cpu_ns();
  run.driver_ns = run.spans.time("driver", std::forward<F>(drive));
  run.driver_cpu_ns = cpu_ns() - cpu0;
  calibrate_aside(run.calibration_ns, run.peak_rss_kb);
}

/// Totals of an open-loop result (load::OpenLoopResult or
/// load::ShardedLoadResult) whose arrival window opened at `start`.
template <typename Result>
void add_open_loop_totals(sim::JsonWriter& w, const Result& r,
                          sim::Time start, sim::Time window, sim::Time end) {
  w.add("offered", r.offered);
  w.add("completed", r.completed);
  w.add("failed", r.failed);
  w.add("rejected", r.rejected);
  w.add("shed", r.shed);
  w.add("cap_dropped", r.cap_dropped);
  w.add("bytes_completed", r.bytes_completed);
  w.add("peak_in_flight", r.peak_in_flight);
  w.add("remote_ops", r.remote_ops);
  w.add("start_ns", start);
  w.add("window_ns", window);
  // Foreground: up to the last completion; sustained: up to the end of
  // deferred background work (RAID-x image flushes), as in Fig. 5.
  w.add("foreground_end_ns", start + r.drained_at);
  w.add("drain_end_ns", end);
  w.add("lat_count", r.latency.count());
  w.add("lat_sum_ns", r.latency.sum());
  w.add_raw("lat_p50_ns", num(r.latency.quantile(0.50)));
  w.add_raw("lat_p99_ns", num(r.latency.quantile(0.99)));
  w.add_raw("lat_p999_ns", num(r.latency.quantile(0.999)));
}

/// Everything a single-simulation world leaves for the record once its
/// measured phase has drained.
void finish_single(const Options& opt, Run& run, Stack& s) {
  run.spans.time("collect", [&] { run.registry = collect(s); });
  add_engine_counters(run, s.sim);
  run.lock_records = lock_records(*s.fabric);
  add_attribution(run, s.hub);
  export_trace(run, opt, s.hub, s.sim, opt.workload);
}

// --- paper16-large-write: Fig. 5(c)'s RAID-x endpoint. ---
void paper16_large_write(const Options& opt, Run& run,
                         std::unique_ptr<Stack>& s) {
  s = build(pure_timing(16, 1), {}, run.spans);
  if (opt.traced) {
    // One 64 MB write is ~10^5 spans; keep the slowest one whole.
    enable_tracing(s->hub, 1, opt.seed);
    s->sim.set_hub(&s->hub);
  }
  workload::ParallelIoConfig cfg;
  cfg.clients = 16;
  cfg.op = workload::IoOp::kWrite;
  cfg.bytes_per_op = 64ull << 20;
  cfg.ops_per_client = 1;
  cfg.seed = opt.seed;  // sequential writes draw nothing from it

  workload::ParallelIoResult r;
  mark_start(run, s->sim);
  measure(run, [&] { r = workload::run_parallel_io(*s->engine, cfg); });

  sim::Time first = r.clients.front().start, last = 0;
  std::uint64_t bytes = 0;
  for (const auto& c : r.clients) {
    first = std::min(first, c.start);
    last = std::max(last, c.end);
    bytes += c.bytes;
  }
  sim::JsonWriter& w = run.result;
  w.add("offered",
        static_cast<std::uint64_t>(cfg.clients * cfg.ops_per_client));
  w.add("completed", static_cast<std::uint64_t>(r.op_latency.count()));
  w.add("bytes_completed", bytes);
  w.add("bytes_expected", static_cast<std::uint64_t>(cfg.clients) *
                              static_cast<std::uint64_t>(cfg.ops_per_client) *
                              cfg.bytes_per_op);
  w.add("start_ns", first);
  w.add("foreground_end_ns", last);
  w.add("drain_end_ns", s->sim.now());
  w.add("lat_count", static_cast<std::uint64_t>(r.op_latency.count()));
  w.add("lat_sum_ns", r.op_latency.total());
  finish_single(opt, run, *s);
}

// --- The two single-simulation open-loop workloads. ---
struct OpenLoopSpec {
  int nodes = 16;
  int disks_per_node = 4;
  cache::CacheParams cache;
  double rate = 0.0;
  double zipf = 0.0;
  double write_fraction = 0.0;
  double duration_s = 0.0;
  double warm_s = 0.0;  // unmeasured warm pass on a derived seed; 0 = none
};

load::TenantLoad tenant(double rate, double zipf, double write_fraction) {
  load::TenantLoad t;
  t.rate_ops = rate;
  t.zipf_alpha = zipf;
  t.write_fraction = write_fraction;
  t.working_set_blocks = kWorkingSetBlocks;
  return t;
}

void open_loop(const Options& opt, const OpenLoopSpec& spec, Run& run,
               std::unique_ptr<Stack>& s) {
  s = build(pure_timing(spec.nodes, spec.disks_per_node), spec.cache,
            run.spans);
  const load::TenantLoad t =
      tenant(spec.rate, spec.zipf, spec.write_fraction);
  if (spec.warm_s > 0.0) {
    load::OpenLoopConfig warm;
    warm.tenants = {t};
    warm.duration = sim::seconds(spec.warm_s);
    warm.seed = opt.seed ^ 0x9e3779b97f4a7c15ull;
    run.spans.time("warm", [&] { load::run_open_loop(*s->engine, warm); });
    run.registry_before = collect(*s);
  }
  if (opt.traced) {
    enable_tracing(s->hub, 16, opt.seed);
    s->sim.set_hub(&s->hub);
  }

  load::OpenLoopConfig cfg;
  cfg.tenants = {t};
  cfg.duration = sim::seconds(spec.duration_s);
  cfg.seed = opt.seed;
  const sim::Time start = s->sim.now();
  std::unique_ptr<load::OpenLoopDriver> driver;
  run.spans.time("construct.load", [&] {
    driver = std::make_unique<load::OpenLoopDriver>(*s->engine, cfg);
    driver->start();
  });
  load::OpenLoopResult r;
  mark_start(run, s->sim);
  measure(run, [&] {
    s->sim.run();
    r = driver->finish();
  });
  add_open_loop_totals(run.result, r, start, r.duration, s->sim.now());
  finish_single(opt, run, *s);
}

// --- sharded-256: four 64-node placement groups under the synchronizer. ---
// One worker thread drives all four shards.  With two, wall time is
// bimodal on a 4-core host (the workers either spin or park at each
// window barrier): 3.0 s or 4.5 s for the same run, which no bound on
// host_us_per_req could hold.
constexpr int kShardWorkers = 1;

void sharded_256(const Options& opt, Run& run,
                 std::unique_ptr<cluster::ShardedCluster>& world) {
  cluster::ShardedParams sp;
  sp.shards = 4;
  sp.arch = workload::Arch::kRaidX;
  sp.engine = paper_engine();
  run.spans.time("construct.cluster", [&] {
    world = std::make_unique<cluster::ShardedCluster>(pure_timing(64, 4), sp);
  });
  if (opt.traced) {
    for (int i = 0; i < world->shards(); ++i) {
      enable_tracing(world->shard(i).hub, 16,
                     opt.seed + static_cast<std::uint64_t>(i));
    }
  }
  load::OpenLoopConfig cfg;
  cfg.tenants = {tenant(640.0, 0.0, 0.3)};
  cfg.duration = sim::seconds(12.0);
  cfg.seed = opt.seed;

  load::ShardedLoadResult r;
  for (int i = 0; i < world->shards(); ++i) mark_start(run, world->sim(i));
  measure(run, [&] {
    r = load::run_open_loop_sharded(*world, cfg, 0.1, kShardWorkers);
  });
  sim::Time end = 0;
  for (int i = 0; i < world->shards(); ++i) {
    end = std::max(end, world->sim(i).now());
  }
  add_open_loop_totals(run.result, r, 0, cfg.duration, end);
  run.spans.time("collect",
                 [&] { run.registry = world->merged_snapshot_json(); });
  for (int i = 0; i < world->shards(); ++i) {
    cluster::ShardedCluster::Shard& sh = world->shard(i);
    add_engine_counters(run, world->sim(i));
    run.lock_records += lock_records(*sh.fabric);
    run.remote_sent += sh.remote_sent;
    run.remote_failed += sh.remote_failed;
    add_attribution(run, sh.hub);
    export_trace(run, opt, sh.hub, world->sim(i),
                 opt.workload + "-shard" + std::to_string(i));
  }
  run.windows = world->group().stats().windows;
  run.cross_msgs = world->group().stats().messages;
}

template <typename T, typename F>
std::string json_list(const std::vector<T>& items, F render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += render(items[i]);
  }
  out += ']';
  return out;
}

std::string attribution_json(const Run& run) {
  sim::JsonWriter w;
  const char* types[2] = {"read", "write"};
  for (int t = 0; t < 2; ++t) {
    const obs::Attribution::TypeTotals& a = run.attr[t];
    sim::JsonWriter lanes;
    for (std::size_t l = 0; l < obs::kNumLanes; ++l) {
      lanes.add(obs::lane_name(static_cast<obs::Lane>(l)), a.lane_ns[l]);
    }
    sim::JsonWriter tw;
    tw.add_raw("lane_ns", lanes.str());
    tw.add("count", a.count);
    tw.add("total_ns", a.total_ns);
    tw.add("aborted", a.aborted);
    tw.add("aborted_ns", a.aborted_ns);
    w.add_raw(types[t], tw.str());
  }
  w.add("live_slots", static_cast<std::uint64_t>(run.attr_live));
  return w.str();
}

std::string record_json(const Options& opt, const Run& run,
                        std::int64_t peak_rss_kb) {
  sim::JsonWriter w;
  w.add("workload", opt.workload);
  w.add("seed", opt.seed);
  w.add("traced", opt.traced);
  w.add_raw("result", run.result.str());
  if (opt.traced) w.add_raw("attribution", attribution_json(run));
  sim::JsonWriter engine;
  engine.add("events", run.events);
  engine.add("peak_pending", run.peak_pending);
  engine.add("frames", run.frames);
  engine.add_raw("shard_events",
                 json_list(run.shard_events,
                           [](std::uint64_t n) { return std::to_string(n); }));
  engine.add("windows", run.windows);
  engine.add("cross_msgs", run.cross_msgs);
  engine.add("remote_sent", run.remote_sent);
  engine.add("remote_failed", run.remote_failed);
  engine.add("lock_records", run.lock_records);
  w.add_raw("engine", engine.str());
  w.add_raw("registry", run.registry);
  if (!run.registry_before.empty()) {
    w.add_raw("registry_before", run.registry_before);
  }
  sim::JsonWriter host;
  host.add("setup_ns", run.setup_ns);
  host.add("driver_ns", run.driver_ns);
  host.add("driver_cpu_ns", run.driver_cpu_ns);
  host.add("teardown_ns", run.teardown_ns);
  host.add("peak_rss_kb", peak_rss_kb);
  host.add_raw("calibration_ns",
               json_list(run.calibration_ns, [](std::int64_t ns) {
                 return std::to_string(ns);
               }));
  host.add_raw("spans", run.spans.json());
  w.add_raw("host", host.str());
  w.add_raw("trace_files",
            json_list(run.trace_files,
                      [](const std::string& f) { return "\"" + f + "\""; }));
  return w.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N "
               "[--traced --trace-dir DIR] [--rate OPS --duration S]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--traced") {
        opt.traced = true;
      } else if (a == "--trace-dir") {
        opt.trace_dir = value();
      } else if (a == "--rate") {
        opt.rate = std::stod(value());
      } else if (a == "--duration") {
        opt.duration = std::stod(value());
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (opt.traced && opt.trace_dir.empty()) usage("--traced needs --trace-dir");
  if (opt.rate < 0.0 || opt.duration < 0.0) {
    usage("negative --rate/--duration");
  }
  if ((opt.rate > 0.0 || opt.duration > 0.0) &&
      opt.workload != "zipf-read-cache") {
    usage("--rate/--duration apply to zipf-read-cache only");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    Run run;
    // A fresh process runs the same work up to 3x slower for its first
    // few hundred ms.  These slices only warm the host up and are dropped.
    std::vector<std::int64_t> warm_up;
    run.warm_up_ns = calibrate_aside(warm_up, run.peak_rss_kb);
    std::unique_ptr<Stack> stack;
    std::unique_ptr<cluster::ShardedCluster> sharded;
    if (opt.workload == "paper16-large-write") {
      paper16_large_write(opt, run, stack);
    } else if (opt.workload == "zipf-read-cache") {
      OpenLoopSpec spec;
      spec.cache.capacity_blocks = (16ull << 20) / 32'768;  // 16 MB per node
      spec.cache.cooperative = true;
      spec.rate = opt.rate > 0.0 ? opt.rate : 3000.0;
      spec.zipf = 0.9;
      spec.write_fraction = 0.05;
      spec.duration_s = opt.duration > 0.0 ? opt.duration : 20.0;
      spec.warm_s = 10.0;
      open_loop(opt, spec, run, stack);
    } else if (opt.workload == "mixed-256") {
      OpenLoopSpec spec;
      spec.nodes = 256;
      spec.rate = 2560.0;
      spec.write_fraction = 0.3;
      spec.duration_s = 3.0;
      open_loop(opt, spec, run, stack);
    } else if (opt.workload == "sharded-256") {
      sharded_256(opt, run, sharded);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
    const Clock::time_point t0 = Clock::now();
    stack.reset();
    sharded.reset();
    run.teardown_ns = ns_between(t0, Clock::now());
    std::printf("%s\n",
                record_json(opt, run,
                            std::max(run.peak_rss_kb, peak_rss_kb()))
                    .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
