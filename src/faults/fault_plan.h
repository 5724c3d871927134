// Deterministic fault-injection plans.
//
// A FaultPlan is a typed, serializable schedule of network faults: which
// hosts, which request kinds, which request indices, and what goes wrong —
// synthetic 5xx, dropped connections, virtual-clock timeouts, truncated
// bodies, corrupted Set-Cookie headers, slow-drip responses, and flapping
// (fail K requests, recover for R, repeat). Both transports, the sim
// Network and the socket origin tier, evaluate the plan per host through a
// FaultPlanSlot (fault_engine.h), drawing every probabilistic gate from the
// host's forked RNG stream, so a faulty run is exactly as reproducible as a
// healthy one and fleet results stay byte-identical for any worker count.
//
// This library deliberately depends only on cp_util: the transports
// consume it, not the other way around. Request kinds are expressed as the
// Scope enum here; net::faultScope maps RequestKind onto it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cookiepicker::faults {

// Which class of request a rule applies to. Any matches all three kinds.
enum class Scope : std::uint8_t {
  Any = 0,
  Container,    // container-page (and redirect) requests
  Subresource,  // object requests (img/script/css/iframe)
  Hidden,       // FORCUM hidden refetches (incl. consistency re-probes)
};
inline constexpr std::size_t kScopeCount = 4;

enum class Action : std::uint8_t {
  ServerError,      // synthetic 5xx with an error body
  ConnectionDrop,   // no response at all (status 0, empty body)
  Timeout,          // status 0 after extraLatencyMs of virtual waiting
  TruncateBody,     // body cut at truncateAtBytes; Content-Length keeps the
                    // original size so consumers can detect the cut
  CorruptSetCookie, // Set-Cookie header values deterministically garbled
  SlowDrip,         // response intact but extraLatencyMs slower
};

const char* scopeName(Scope scope);
const char* actionName(Action action);
std::optional<Scope> parseScope(std::string_view text);
std::optional<Action> parseAction(std::string_view text);

// Sentinel for an unbounded index window ("last=max" in the text format).
inline constexpr std::uint64_t kAllRequests = ~0ull;

// One schedule entry. Rules are evaluated in plan order; the first rule
// whose gates all pass fires, so specific rules should precede wildcards.
struct FaultRule {
  // Exact lowercase host, or "*" for every registered host.
  std::string host = "*";
  Scope scope = Scope::Any;
  // Inclusive window of *logical* request indices, counted per host and per
  // scope. Retries of the same logical request (attempt > 0) share the
  // original attempt's index, so index-scoped plans compose with the
  // browser's retry layer instead of shifting under it.
  std::uint64_t firstIndex = 0;
  std::uint64_t lastIndex = kAllRequests;
  // Flapping: fire for failCount matching requests, pass for recoverCount,
  // repeat. The flap cursor advances per *physical* attempt, so a retry can
  // land in the recovered phase. failCount == 0 disables flapping (the rule
  // fires for every request in its window).
  std::uint32_t failCount = 0;
  std::uint32_t recoverCount = 0;
  // Bernoulli gate, drawn from the host's RNG stream only when every other
  // gate already passed (and only when < 1, so deterministic rules consume
  // no draws).
  double probability = 1.0;

  Action action = Action::ServerError;
  int status = 503;                      // ServerError
  std::uint64_t truncateAtBytes = 256;   // TruncateBody
  double extraLatencyMs = 30000.0;       // Timeout / SlowDrip

  bool operator==(const FaultRule&) const = default;
};

// An ordered rule list with a canonical line-oriented text form:
//
//   # comment
//   rule host=* scope=hidden action=server-error status=503
//        truncate-at=256 extra-ms=30000 first=0 last=max fail=0 recover=0
//        p=0.25                                   (one rule per line)
//
// serialize() emits every key in that fixed order (doubles in shortest
// round-trip form), parse() accepts keys in any order with defaults for the
// omitted ones — so parse(serialize(plan)) == plan for every plan.
struct FaultPlan {
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }
  std::string serialize() const;
  // Nullopt on any malformed line: unknown key/action/scope, bad number,
  // duplicate key, probability outside [0,1], or status outside [100,599].
  static std::optional<FaultPlan> parse(std::string_view text);

  // One wildcard rule that 503s any request to a known host with the given
  // probability: one chance(p) draw per dispatch.
  static std::shared_ptr<const FaultPlan> uniformFailure(double probability);

  bool operator==(const FaultPlan&) const = default;
};

}  // namespace cookiepicker::faults
