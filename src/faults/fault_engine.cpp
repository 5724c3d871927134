#include "faults/fault_engine.h"

namespace cookiepicker::faults {

const FaultRule* HostFaultState::evaluate(const FaultPlan& plan,
                                          std::uint64_t generation,
                                          std::string_view host, Scope kind,
                                          bool firstAttempt,
                                          util::Pcg32& rng) {
  if (generation_ != generation) {
    generation_ = generation;
    logicalIndex_.fill(0);
    flapCursor_.assign(plan.rules.size(), 0);
  }

  // The logical index of this request, per scope: first attempts claim the
  // next index; retries reuse the index their first attempt claimed.
  const auto scopeSlot = [](Scope scope) {
    return static_cast<std::size_t>(scope);
  };
  std::array<std::uint64_t, kScopeCount> index{};
  for (const std::size_t slot : {scopeSlot(Scope::Any), scopeSlot(kind)}) {
    std::uint64_t& counter = logicalIndex_[slot];
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
    const std::uint64_t position = flapCursor_[i]++;
    if (rule.failCount > 0) {
      const std::uint64_t period = rule.failCount + rule.recoverCount;
      if (position % period >= rule.failCount) continue;  // recovered phase
    }
    // Deterministic rules (p == 1) consume no draws, so adding or removing
    // them never shifts the host's latency stream.
    if (rule.probability < 1.0 && !rng.chance(rule.probability)) continue;
    return &rule;
  }
  return nullptr;
}

std::string corruptHeaderValue(std::string_view value, util::Pcg32& rng) {
  if (value.empty()) return std::string(1, '\x01');
  std::string out(value);
  const std::uint32_t mutations =
      1 + rng.uniform(0, static_cast<std::uint32_t>(out.size() > 4 ? 3 : 1));
  for (std::uint32_t m = 0; m < mutations; ++m) {
    const std::uint32_t pos =
        rng.uniform(0, static_cast<std::uint32_t>(out.size() - 1));
    // Arbitrary printable byte — may corrupt the name, the value, an '='
    // or a ';', so downstream parsers see every flavour of garbage.
    out[pos] = static_cast<char>(rng.uniform(33, 126));
  }
  return out;
}

}  // namespace cookiepicker::faults
