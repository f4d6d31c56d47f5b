// Admission control at the array-controller entry point.
//
// An AdmissionGate sits in front of ArrayController::read()/write(): when
// one is attached, every logical request first awaits admit(), which may
// pass immediately, delay the request (queue policies), or throw
// AdmissionError (reject/shed policies).  The gate is how the open-loop
// traffic tier (src/load) enforces per-tenant token-bucket QoS without the
// block API growing a tenant parameter: the gate keeps its own
// client-node -> tenant binding.
//
// No gate attached (the default) means the entry paths are untouched and
// every pre-existing run stays bit-identical.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "sim/task.hpp"

namespace raidx::raid {

class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A request turned away by admission control (reject or shed policy).
/// Derives IoError so existing error handling treats it as a failed
/// request; load generators catch it specifically to count turned-away
/// traffic separately from real I/O failures.
class AdmissionError : public IoError {
 public:
  using IoError::IoError;
};

/// How a request ended, as its sender counts it.  Paths that hand a
/// request to another party and get back only a verdict (the cross-shard
/// and cross-site gateways) report this instead of rethrowing, so a
/// turn-away by the far end's gate stays apart from a real I/O failure.
enum class IoOutcome { kServed, kFailed, kRejected };

class AdmissionGate {
 public:
  virtual ~AdmissionGate() = default;

  /// Called at the top of every ArrayController::read()/write() before any
  /// locks are taken or disk work is issued.  Completes when the request
  /// is admitted -- possibly after a queueing delay -- and throws
  /// AdmissionError when it is rejected or shed.
  virtual sim::Task<> admit(int client, bool is_write, std::uint64_t bytes,
                            obs::TraceContext ctx = {}) = 0;
};

}  // namespace raidx::raid
