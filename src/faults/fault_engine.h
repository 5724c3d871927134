// Fault-plan evaluation: which rule fires for one request.
//
// A FaultPlanSlot holds the installed plan; the sim Network and every
// origin shard's HttpServer read one. Each transport keeps one
// HostFaultState per host, mutated only where that host's requests are
// serialized (the sim's per-host lock, the shard's loop thread), so
// schedule cursors and probability draws advance exactly once per request
// to the host, in the host's own order, never perturbed by how other
// hosts' traffic interleaves. That keeps a faulty fleet run byte-identical
// across worker counts. What a fired rule does is net/transport.h's part.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "faults/fault_plan.h"
#include "util/rng.h"

namespace cookiepicker::faults {

// One host's schedule cursors, advanced only by FaultPlanSlot::evaluate.
struct HostFaultState {
  std::uint64_t generation = ~0ull;  // of the plan the cursors count for
  // Logical (first-attempt) request counts, per scope; slot 0 (Any) counts
  // every kind.
  std::array<std::uint64_t, kScopeCount> logicalIndex{};
  // Physical matched-request counts, one per plan rule.
  std::vector<std::uint64_t> flapCursor;
};

// The rule that fired for one request. It holds the plan the rule belongs
// to, so installing another plan meanwhile cannot free it.
struct FiredRule {
  std::shared_ptr<const FaultPlan> plan;
  const FaultRule* rule = nullptr;

  explicit operator bool() const { return rule != nullptr; }
  const FaultRule* operator->() const { return rule; }
};

// The installed fault plan and its generation. Each install bumps the
// generation, which the per-host states notice to reset their cursors.
class FaultPlanSlot {
 public:
  explicit FaultPlanSlot(std::shared_ptr<const FaultPlan> plan = nullptr) {
    install(std::move(plan));
  }

  // Thread-safe; applies to requests evaluated after the swap. nullptr (or
  // an empty plan) disables injection.
  void install(std::shared_ptr<const FaultPlan> plan);

  // The first rule that fires for one request to `host`, or an empty
  // result. Advances the host's `state`: its logical index counters only on
  // first attempts (retries share the original's index), its flap cursors
  // per attempt; probability gates draw from `rng`. The caller serializes
  // calls per host.
  FiredRule evaluate(HostFaultState& state, std::string_view host,
                     Scope kind, bool firstAttempt, util::Pcg32& rng) const;

 private:
  // A plain mutex: the critical section copies a shared pointer and a
  // counter, far cheaper than the handler work it precedes.
  mutable std::mutex mutex_;
  std::shared_ptr<const FaultPlan> plan_;
  std::uint64_t generation_ = 0;
};

}  // namespace cookiepicker::faults
