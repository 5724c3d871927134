#include "faults/fault_engine.h"

namespace cookiepicker::faults {

void FaultPlanSlot::install(std::shared_ptr<const FaultPlan> plan) {
  std::lock_guard lock(mutex_);
  plan_ = std::move(plan);
  ++generation_;
}

FiredRule FaultPlanSlot::evaluate(HostFaultState& state, std::string_view host,
                                  Scope kind, bool firstAttempt,
                                  util::Pcg32& rng) const {
  FiredRule fired;
  std::uint64_t generation = 0;
  {
    std::lock_guard lock(mutex_);
    fired.plan = plan_;
    generation = generation_;
  }
  if (fired.plan == nullptr || fired.plan->empty()) return fired;
  const FaultPlan& plan = *fired.plan;
  // A new generation restarts the host's schedule from scratch.
  if (state.generation != generation) {
    state.generation = generation;
    state.logicalIndex.fill(0);
    state.flapCursor.assign(plan.rules.size(), 0);
  }

  // The logical index of this request, per scope: first attempts claim the
  // next index; retries reuse the index their first attempt claimed.
  const auto scopeSlot = [](Scope scope) {
    return static_cast<std::size_t>(scope);
  };
  std::array<std::uint64_t, kScopeCount> index{};
  for (const std::size_t slot : {scopeSlot(Scope::Any), scopeSlot(kind)}) {
    std::uint64_t& counter = state.logicalIndex[slot];
    if (firstAttempt) {
      index[slot] = counter++;
    } else {
      index[slot] = counter == 0 ? 0 : counter - 1;
    }
  }

  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    const FaultRule& rule = plan.rules[i];
    if (rule.host != "*" && rule.host != host) continue;
    if (rule.scope != Scope::Any && rule.scope != kind) continue;
    const std::uint64_t logical = index[scopeSlot(rule.scope)];
    if (logical < rule.firstIndex || logical > rule.lastIndex) continue;
    // The rule matched this physical attempt: its flap cursor advances
    // whether or not it ends up firing, so fail/recover phases tick per
    // attempt and a retry can land in the recovered phase.
    const std::uint64_t position = state.flapCursor[i]++;
    if (rule.failCount > 0) {
      const std::uint64_t period = rule.failCount + rule.recoverCount;
      if (position % period >= rule.failCount) continue;  // recovered phase
    }
    // Deterministic rules (p == 1) consume no draws, so adding or removing
    // them never shifts the host's latency stream.
    if (rule.probability < 1.0 && !rng.chance(rule.probability)) continue;
    fired.rule = &rule;
    return fired;
  }
  return fired;
}

}  // namespace cookiepicker::faults
