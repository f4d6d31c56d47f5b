// The one "key=value,key=value" splitter behind every clause grammar:
// raidxsim's spec flags (--open-loop, --disk-type tails, --slo, --watch,
// --trace-sample) and the bodies of ha::FaultPlan clauses.  It only finds
// the items; each caller keeps its own diagnostics.
#pragma once

#include <string>

namespace raidx::sim {

/// Calls on_pair(key, value) for each comma-separated item of `spec`, in
/// order, skipping empty items.  An item without '=' goes to
/// on_bad(item) instead, which is expected to throw or exit.
template <typename OnPair, typename OnBad>
void for_each_kv(const std::string& spec, OnPair&& on_pair, OnBad&& on_bad) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      on_bad(item);
    } else {
      on_pair(item.substr(0, eq), item.substr(eq + 1));
    }
  }
}

}  // namespace raidx::sim
