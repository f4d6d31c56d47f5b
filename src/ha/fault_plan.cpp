#include "ha/fault_plan.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "ha/ha.hpp"
#include "integrity/integrity.hpp"
#include "obs/obs.hpp"
#include "sim/kv.hpp"
#include "sim/random.hpp"

namespace raidx::ha {

namespace {

/// Diagnostics cite the offending CLAUSE (one ';'-separated event), not
/// the whole spec: a long chaos recipe with one typo points straight at
/// it, and `raidxsim --faults` prints exactly this message before exit 2.
[[noreturn]] void bad_clause(const std::string& clause,
                             const std::string& why) {
  throw std::invalid_argument("bad fault clause '" + clause + "': " + why);
}

/// "2.5s" / "150ms" / "40us" / "7ns" -> nanoseconds.
sim::Time parse_time(const std::string& s, const std::string& clause) {
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    bad_clause(clause, "unparseable time '" + s + "'");
  }
  const std::string unit = s.substr(pos);
  if (unit == "s") return sim::seconds(v);
  if (unit == "ms") return sim::milliseconds(v);
  if (unit == "us") return sim::microseconds(v);
  if (unit == "ns") return static_cast<sim::Time>(v);
  bad_clause(clause, "unknown time unit '" + unit + "' (use s|ms|us|ns)");
}

/// Split "a=1,b=2s" into key/value pairs.  Every item is checked before
/// any key is interpreted, so a malformed item is cited first.
std::vector<std::pair<std::string, std::string>> parse_kv(
    const std::string& body, const std::string& clause) {
  std::vector<std::pair<std::string, std::string>> out;
  sim::for_each_kv(
      body,
      [&](std::string key, std::string value) {
        out.emplace_back(std::move(key), std::move(value));
      },
      [&](const std::string& item) {
        bad_clause(clause, "expected key=value in '" + item + "'");
      });
  return out;
}

std::uint64_t parse_u64(const std::string& s, const std::string& what,
                        const std::string& clause) {
  try {
    return std::stoull(s);
  } catch (const std::exception&) {
    bad_clause(clause, "unparseable " + what + " '" + s + "'");
  }
}

double parse_double(const std::string& s, const std::string& what,
                    const std::string& clause) {
  try {
    return std::stod(s);
  } catch (const std::exception&) {
    bad_clause(clause, "unparseable " + what + " '" + s + "'");
  }
}

/// WAN site/link events are only meaningful against a federation; the
/// caller signals one by passing its site/link counts.
void require_federation(int sites, const std::string& clause) {
  if (sites <= 0) {
    bad_clause(clause,
               "site/link clauses need a WAN federation (--sites > 1)");
  }
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec, int total_disks,
                           std::uint64_t blocks_per_disk, int sites,
                           int links) {
  FaultPlan plan;
  // Site partition/heal pairing is validated over the *time-sorted*
  // sequence (clauses may be written in any order): re-partitioning a
  // site still down, or healing one that is up, is a recipe typo.
  struct SiteToggle {
    sim::Time at = 0;
    bool partition = false;
    int site = 0;
    std::string clause;
  };
  std::vector<SiteToggle> toggles;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;

    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      bad_clause(item, "missing ':'");
    }
    const std::string verb = item.substr(0, colon);
    std::string body = item.substr(colon + 1);

    if (verb == "rand") {
      std::uint64_t seed = 1;
      int faults = 1;
      sim::Time window = sim::seconds(1);
      sim::Time heal = 0;
      for (const auto& [k, v] : parse_kv(body, item)) {
        if (k == "seed") {
          seed = parse_u64(v, "seed", item);
        } else if (k == "faults") {
          faults = static_cast<int>(parse_u64(v, "fault count", item));
        } else if (k == "window") {
          window = parse_time(v, item);
        } else if (k == "heal") {
          heal = parse_time(v, item);
        } else {
          bad_clause(item, "unknown rand key '" + k + "'");
        }
      }
      FaultPlan r = random_plan(seed, total_disks, faults, window, heal);
      for (const FaultEvent& ev : r.events_) plan.events_.push_back(ev);
      continue;
    }

    if (verb == "rot") {
      if (blocks_per_disk == 0) {
        bad_clause(item, "corruption needs a disk geometry to draw from");
      }
      std::uint64_t seed = 1;
      int errors = 1;
      sim::Time window = sim::seconds(1);
      for (const auto& [k, v] : parse_kv(body, item)) {
        if (k == "seed") {
          seed = parse_u64(v, "seed", item);
        } else if (k == "errors") {
          errors = static_cast<int>(parse_u64(v, "error count", item));
        } else if (k == "window") {
          window = parse_time(v, item);
        } else {
          bad_clause(item, "unknown rot key '" + k + "'");
        }
      }
      FaultPlan r =
          random_rot(seed, total_disks, blocks_per_disk, errors, window);
      for (const FaultEvent& ev : r.events_) plan.events_.push_back(ev);
      continue;
    }

    if (verb == "corrupt") {
      if (blocks_per_disk == 0) {
        bad_clause(item, "corruption needs a disk geometry to draw from");
      }
      const std::size_t at = body.find('@');
      if (at == std::string::npos) bad_clause(item, "missing '@time'");
      FaultEvent ev;
      ev.kind = FaultEvent::Kind::kCorruptBlock;
      ev.at = parse_time(body.substr(at + 1), item);
      bool have_disk = false;
      bool have_block = false;
      for (const auto& [k, v] : parse_kv(body.substr(0, at), item)) {
        if (k == "disk") {
          ev.target = static_cast<int>(parse_u64(v, "disk", item));
          have_disk = true;
        } else if (k == "block") {
          ev.block = parse_u64(v, "block", item);
          have_block = true;
        } else {
          bad_clause(item, "unknown corrupt key '" + k + "'");
        }
      }
      if (!have_disk || !have_block) {
        bad_clause(item, "corrupt needs disk=D,block=B");
      }
      if (ev.target < 0 || ev.target >= total_disks) {
        bad_clause(item, "disk " + std::to_string(ev.target) +
                             " out of range");
      }
      if (ev.block >= blocks_per_disk) {
        bad_clause(item, "block " + std::to_string(ev.block) +
                             " out of range (disk has " +
                             std::to_string(blocks_per_disk) + " blocks)");
      }
      plan.events_.push_back(ev);
      continue;
    }

    if (verb == "brownout") {
      require_federation(sites, item);
      const std::size_t at = body.find('@');
      if (at == std::string::npos) bad_clause(item, "missing '@time'");
      FaultEvent ev;
      ev.kind = FaultEvent::Kind::kBrownoutLink;
      ev.at = parse_time(body.substr(at + 1), item);
      bool have_link = false;
      bool have_bw = false;
      for (const auto& [k, v] : parse_kv(body.substr(0, at), item)) {
        if (k == "link") {
          ev.target = static_cast<int>(parse_u64(v, "link", item));
          have_link = true;
        } else if (k == "bw") {
          ev.mbs = parse_double(v, "bandwidth", item);
          have_bw = true;
        } else {
          bad_clause(item, "unknown brownout key '" + k + "'");
        }
      }
      if (!have_link || !have_bw) {
        bad_clause(item, "brownout needs link=L,bw=MBS");
      }
      if (ev.target < 0 || ev.target >= links) {
        bad_clause(item, "link " + std::to_string(ev.target) +
                             " out of range (federation has " +
                             std::to_string(links) + " links)");
      }
      if (ev.mbs <= 0.0) bad_clause(item, "bw must be positive");
      plan.events_.push_back(ev);
      continue;
    }

    // verb:target@time
    const std::size_t at = body.find('@');
    if (at == std::string::npos) bad_clause(item, "missing '@time'");
    const sim::Time when = parse_time(body.substr(at + 1), item);
    body = body.substr(0, at);
    const std::size_t eq = body.find('=');
    if (eq == std::string::npos) {
      bad_clause(item, "expected disk=N or node=N");
    }
    const std::string kind = body.substr(0, eq);
    int target = 0;
    try {
      target = std::stoi(body.substr(eq + 1));
    } catch (const std::exception&) {
      bad_clause(item, "unparseable target");
    }

    FaultEvent ev;
    ev.target = target;
    ev.at = when;
    if (verb == "fail" && kind == "disk") {
      ev.kind = FaultEvent::Kind::kFailDisk;
      if (target < 0 || target >= total_disks) {
        bad_clause(item, "disk " + std::to_string(target) + " out of range");
      }
    } else if (verb == "heal" && kind == "disk") {
      ev.kind = FaultEvent::Kind::kHealDisk;
      if (target < 0 || target >= total_disks) {
        bad_clause(item, "disk " + std::to_string(target) + " out of range");
      }
    } else if (verb == "part" && kind == "node") {
      ev.kind = FaultEvent::Kind::kPartitionNode;
    } else if (verb == "join" && kind == "node") {
      ev.kind = FaultEvent::Kind::kJoinNode;
    } else if (verb == "partition" && kind == "site") {
      require_federation(sites, item);
      ev.kind = FaultEvent::Kind::kPartitionSite;
      if (target < 0 || target >= sites) {
        bad_clause(item, "site " + std::to_string(target) +
                             " out of range (federation has " +
                             std::to_string(sites) + " sites)");
      }
      toggles.push_back(SiteToggle{when, true, target, item});
    } else if (verb == "heal" && kind == "site") {
      require_federation(sites, item);
      ev.kind = FaultEvent::Kind::kHealSite;
      if (target < 0 || target >= sites) {
        bad_clause(item, "site " + std::to_string(target) +
                             " out of range (federation has " +
                             std::to_string(sites) + " sites)");
      }
      toggles.push_back(SiteToggle{when, false, target, item});
    } else if (verb == "heal" && kind == "link") {
      require_federation(sites, item);
      ev.kind = FaultEvent::Kind::kHealLink;
      if (target < 0 || target >= links) {
        bad_clause(item, "link " + std::to_string(target) +
                             " out of range (federation has " +
                             std::to_string(links) + " links)");
      }
    } else {
      bad_clause(item, "unknown event '" + verb + ":" + kind + "'");
    }
    plan.events_.push_back(ev);
  }

  std::stable_sort(toggles.begin(), toggles.end(),
                   [](const SiteToggle& a, const SiteToggle& b) {
                     return a.at < b.at;
                   });
  std::vector<char> down(static_cast<std::size_t>(sites > 0 ? sites : 0), 0);
  for (const SiteToggle& t : toggles) {
    char& d = down[static_cast<std::size_t>(t.site)];
    if (t.partition && d) {
      bad_clause(t.clause, "site " + std::to_string(t.site) +
                               " is already partitioned");
    }
    if (!t.partition && !d) {
      bad_clause(t.clause,
                 "site " + std::to_string(t.site) + " is not partitioned");
    }
    d = t.partition ? 1 : 0;
  }
  return plan;
}

FaultPlan FaultPlan::random_plan(std::uint64_t seed, int targets, int faults,
                                 sim::Time window, sim::Time heal_after) {
  FaultPlan plan;
  if (targets <= 0 || faults <= 0 || window <= 0) return plan;
  sim::Rng rng(seed);

  // Distinct uniform instants in [window/10, window], sorted: the leading
  // tenth is kept quiet so every run has a clean warm-up.
  std::vector<sim::Time> when;
  when.reserve(static_cast<std::size_t>(faults));
  for (int i = 0; i < faults; ++i) {
    when.push_back(rng.uniform(window / 10, window));
  }
  std::sort(when.begin(), when.end());

  // A disk still down (failed, not yet healed) is never re-failed: the
  // plan exercises single-failure tolerance, not data loss.
  std::vector<sim::Time> down_until(static_cast<std::size_t>(targets), 0);
  for (int i = 0; i < faults; ++i) {
    const sim::Time t = when[static_cast<std::size_t>(i)];
    int disk = -1;
    for (int tries = 0; tries < 8 * targets; ++tries) {
      const int cand = static_cast<int>(rng.uniform(0, targets - 1));
      const sim::Time until = down_until[static_cast<std::size_t>(cand)];
      if (until == 0 || (heal_after > 0 && until <= t)) {
        disk = cand;
        break;
      }
    }
    if (disk < 0) continue;  // everything still down; drop this fault
    plan.events_.push_back(FaultEvent{
        .kind = FaultEvent::Kind::kFailDisk, .target = disk, .at = t});
    if (heal_after > 0) {
      plan.events_.push_back(FaultEvent{.kind = FaultEvent::Kind::kHealDisk,
                                        .target = disk,
                                        .at = t + heal_after});
      down_until[static_cast<std::size_t>(disk)] = t + heal_after;
    } else {
      down_until[static_cast<std::size_t>(disk)] =
          std::numeric_limits<sim::Time>::max();
    }
  }
  return plan;
}

FaultPlan FaultPlan::random_rot(std::uint64_t seed, int targets,
                                std::uint64_t blocks_per_disk, int errors,
                                sim::Time window) {
  FaultPlan plan;
  if (targets <= 0 || blocks_per_disk == 0 || errors <= 0 || window <= 0) {
    return plan;
  }
  sim::Rng rng(seed);

  // Distinct (disk, block) victims: the storm measures detection and
  // repair coverage, and a block rotting twice would make "repaired ==
  // injected" unreachable bookkeeping rather than a real miss.
  std::vector<std::pair<int, std::uint64_t>> victims;
  victims.reserve(static_cast<std::size_t>(errors));
  const std::uint64_t capacity =
      static_cast<std::uint64_t>(targets) * blocks_per_disk;
  for (int i = 0; i < errors; ++i) {
    for (int tries = 0; tries < 64; ++tries) {
      const int disk = static_cast<int>(rng.uniform(0, targets - 1));
      const std::uint64_t block = rng.uniform_u64(0, blocks_per_disk - 1);
      const auto hit = std::make_pair(disk, block);
      if (std::find(victims.begin(), victims.end(), hit) == victims.end()) {
        victims.push_back(hit);
        break;
      }
      if (victims.size() >= capacity) break;  // array smaller than storm
    }
  }
  for (const auto& [disk, block] : victims) {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::kCorruptBlock;
    ev.target = disk;
    ev.block = block;
    ev.at = rng.uniform(window / 10, window);
    plan.events_.push_back(ev);
  }
  return plan;
}

bool FaultPlan::has_corruption() const {
  return std::any_of(events_.begin(), events_.end(),
                     [](const FaultEvent& ev) {
                       return ev.kind == FaultEvent::Kind::kCorruptBlock;
                     });
}

bool FaultPlan::has_wan() const {
  return std::any_of(events_.begin(), events_.end(),
                     [](const FaultEvent& ev) {
                       return ev.kind == FaultEvent::Kind::kPartitionSite ||
                              ev.kind == FaultEvent::Kind::kHealSite ||
                              ev.kind == FaultEvent::Kind::kBrownoutLink ||
                              ev.kind == FaultEvent::Kind::kHealLink;
                     });
}

void FaultPlan::arm(cluster::Cluster& cluster, Orchestrator* orch,
                    integrity::IntegrityPlane* plane) {
  if (events_.empty()) return;
  if (has_wan()) {
    throw std::invalid_argument(
        "fault plan has WAN site/link events: arm it against a "
        "wan::Federation, not a bare cluster");
  }
  // Stable sort: same-instant events apply in spec order.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  cluster.sim().spawn(driver(cluster, orch, plane));
}

sim::Task<> FaultPlan::driver(cluster::Cluster& cluster, Orchestrator* orch,
                              integrity::IntegrityPlane* plane) {
  char detail[64];
  for (const FaultEvent& ev : events_) {
    const sim::Time now = cluster.sim().now();
    if (ev.at > now) co_await cluster.sim().delay(ev.at - now);
    switch (ev.kind) {
      case FaultEvent::Kind::kFailDisk:
        cluster.disk(ev.target).fail();
        std::snprintf(detail, sizeof(detail), "disk=%d", ev.target);
        obs::log_event(cluster.sim(), "fault.disk_failed", detail);
        if (orch) orch->note_fault_injected(ev.target);
        break;
      case FaultEvent::Kind::kHealDisk:
        std::snprintf(detail, sizeof(detail), "disk=%d", ev.target);
        obs::log_event(cluster.sim(), "fault.disk_serviced", detail);
        if (orch) {
          orch->note_disk_serviced(ev.target);
        } else if (cluster.disk(ev.target).failed()) {
          // No orchestrator: bare swap, caller rebuilds manually.
          cluster.disk(ev.target).replace();
        }
        break;
      case FaultEvent::Kind::kPartitionNode:
        cluster.network().set_node_up(ev.target, false);
        std::snprintf(detail, sizeof(detail), "node=%d", ev.target);
        obs::log_event(cluster.sim(), "fault.node_partitioned", detail);
        if (orch) orch->note_node_partitioned(ev.target);
        break;
      case FaultEvent::Kind::kJoinNode:
        cluster.network().set_node_up(ev.target, true);
        std::snprintf(detail, sizeof(detail), "node=%d", ev.target);
        obs::log_event(cluster.sim(), "fault.node_joined", detail);
        if (orch) orch->note_node_joined(ev.target);
        break;
      case FaultEvent::Kind::kPartitionSite:
      case FaultEvent::Kind::kHealSite:
      case FaultEvent::Kind::kBrownoutLink:
      case FaultEvent::Kind::kHealLink:
        break;  // unreachable: arm() rejects WAN plans above
      case FaultEvent::Kind::kCorruptBlock:
        // Silent by construction: the media decays, the disk's status
        // stays clean, and nothing downstream is told -- except the
        // integrity plane's bookkeeping, which timestamps the injection
        // so MTTD is measured from the true decay instant.  The event log
        // is the omniscient observer, not a detector, so recording the
        // injection there does not break the "silent" contract.
        cluster.disk(ev.target).corrupt(ev.block);
        std::snprintf(detail, sizeof(detail), "disk=%d block=%llu",
                      ev.target, static_cast<unsigned long long>(ev.block));
        obs::log_event(cluster.sim(), "fault.block_corrupted", detail);
        if (plane) plane->note_corruption_injected(ev.target, ev.block);
        break;
    }
  }
}

std::string FaultPlan::describe() const {
  std::string out;
  char buf[96];
  for (const FaultEvent& ev : events_) {
    if (ev.kind == FaultEvent::Kind::kCorruptBlock) {
      std::snprintf(buf, sizeof(buf),
                    "corrupt disk %d block %llu @ %.3fs\n", ev.target,
                    static_cast<unsigned long long>(ev.block),
                    sim::to_seconds(ev.at));
      out += buf;
      continue;
    }
    if (ev.kind == FaultEvent::Kind::kBrownoutLink) {
      std::snprintf(buf, sizeof(buf), "brownout link %d to %.1f MB/s @ %.3fs\n",
                    ev.target, ev.mbs, sim::to_seconds(ev.at));
      out += buf;
      continue;
    }
    const char* what = "";
    const char* unit = "disk";
    switch (ev.kind) {
      case FaultEvent::Kind::kFailDisk: what = "fail"; break;
      case FaultEvent::Kind::kHealDisk: what = "heal"; break;
      case FaultEvent::Kind::kPartitionNode:
        what = "part";
        unit = "node";
        break;
      case FaultEvent::Kind::kJoinNode:
        what = "join";
        unit = "node";
        break;
      case FaultEvent::Kind::kPartitionSite:
        what = "partition";
        unit = "site";
        break;
      case FaultEvent::Kind::kHealSite:
        what = "heal";
        unit = "site";
        break;
      case FaultEvent::Kind::kHealLink:
        what = "heal";
        unit = "link";
        break;
      case FaultEvent::Kind::kCorruptBlock:
      case FaultEvent::Kind::kBrownoutLink:
        break;  // handled above
    }
    std::snprintf(buf, sizeof(buf), "%s %s %d @ %.3fs\n", what, unit,
                  ev.target, sim::to_seconds(ev.at));
    out += buf;
  }
  return out;
}

}  // namespace raidx::ha
