#include "core/forcum.h"

#include <algorithm>
#include <charconv>
#include <unordered_map>
#include <unordered_set>

#include "core/explain.h"
#include "obs/recorder.h"
#include "util/clock.h"
#include "util/strings.h"
#include "util/log.h"

namespace cookiepicker::core {

using cookies::CookieKey;
using cookies::CookieRecord;

namespace {

// Parses a non-negative decimal counter; false on garbage, overflow, or
// trailing junk (std::stoi would have accepted "12abc" and thrown on
// overflow — from_chars reports both without exceptions).
bool parseCount(std::string_view text, int& value) {
  int parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc() || ptr != text.data() + text.size() || parsed < 0) {
    return false;
  }
  value = parsed;
  return true;
}

// The audit-trail rendering of a cookie key; matches the serialized-state
// escaping (util::escapeStateField) so group entries in the two formats
// compare equal.
std::string renderCookieKey(const CookieKey& key) {
  std::string out;
  util::appendEscapedStateField(out, key.name);
  out += '|';
  util::appendEscapedStateField(out, key.domain);
  out += '|';
  util::appendEscapedStateField(out, key.path);
  return out;
}

// One serialized site-state line (no trailing newline):
//   host \t active \t totalViews \t hiddenRequests \t quietViews \t
//   name|domain|path ; name|domain|path ; ...
// Shared by serializeState() and the durability emitter, so a line replayed
// from the WAL is byte-identical to the same site's line in a state blob.
void appendSiteLine(std::string& out, const std::string& host,
                    const ForcumEngine::SiteState& state) {
  util::appendParts(out, {host, "\t", state.trainingActive ? "1" : "0", "\t",
                          std::to_string(state.totalViews), "\t",
                          std::to_string(state.hiddenRequests), "\t",
                          std::to_string(state.consecutiveQuietViews), "\t"});
  bool first = true;
  for (const CookieKey& key : state.knownPersistent) {
    if (!first) out += ';';
    util::appendEscapedStateField(out, key.name);
    out += '|';
    util::appendEscapedStateField(out, key.domain);
    out += '|';
    util::appendEscapedStateField(out, key.path);
    first = false;
  }
  // Attribution-confirmed marks ride an optional trailing field so
  // attribution-off lines keep their pre-tier bytes (the Off-mode
  // differential pin compares serialized state verbatim).
  if (!state.attributedUseful.empty()) {
    out += '\t';
    first = true;
    for (const CookieKey& key : state.attributedUseful) {
      if (!first) out += ';';
      util::appendEscapedStateField(out, key.name);
      out += '|';
      util::appendEscapedStateField(out, key.domain);
      out += '|';
      util::appendEscapedStateField(out, key.path);
      first = false;
    }
  }
}

// Human-readable cause of a failed hidden fetch for skip reasons.
std::string failureLabel(const browser::HiddenFetchResult& result) {
  if (!result.degradedReason.empty()) return result.degradedReason;
  return "http-" + std::to_string(result.status);
}

// Structural identity of one snapshot row for the attribution multiset
// diff: symbol, depth, predicate flags and text hash — the same properties
// the detection kernels compare. Taint stamps are deliberately excluded
// (the two copies assign label bits independently, so identical content
// with different stamps must still match).
std::uint64_t rowFingerprint(const dom::TreeSnapshot& snapshot,
                             std::uint32_t i) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t value) {
    h ^= value;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  };
  mix(snapshot.symbol(i));
  mix(static_cast<std::uint32_t>(snapshot.level(i)));
  mix(snapshot.rawFlags(i));
  mix(snapshot.textHash(i));
  return h;
}

// OR of the taint stamps on `a`'s difference rows — the rows whose
// fingerprint occurs more often in `a` than in `b`. When a fingerprint has
// surplus copies, the taint of *every* instance is unioned (which copy is
// "extra" is unknowable), over-approximating toward ambiguity; the confirm
// strips downstream make over-approximation safe and under-approximation is
// the only failure mode that could mis-attribute.
provenance::LabelSet diffTaint(const dom::TreeSnapshot& a,
                               const dom::TreeSnapshot& b) {
  std::unordered_map<std::uint64_t, int> counts;
  counts.reserve(b.nodeCount());
  for (std::uint32_t i = 0; i < b.nodeCount(); ++i) {
    ++counts[rowFingerprint(b, i)];
  }
  std::vector<std::uint64_t> fingerprints(a.nodeCount());
  std::unordered_set<std::uint64_t> surplus;
  for (std::uint32_t i = 0; i < a.nodeCount(); ++i) {
    fingerprints[i] = rowFingerprint(a, i);
    if (--counts[fingerprints[i]] < 0) surplus.insert(fingerprints[i]);
  }
  provenance::LabelSet taint = 0;
  for (std::uint32_t i = 0; i < a.nodeCount(); ++i) {
    if (surplus.contains(fingerprints[i])) taint |= a.taintSet(i);
  }
  return taint;
}

// Resolves label bits to cookie names through the map's own name table.
// Names, not bits, are the cross-copy currency: the regular and hidden
// renders intern labels independently, so bit i can name different cookies
// in the two maps.
void collectLabelNames(provenance::LabelSet set,
                       const provenance::ProvenanceMap& map, bool& overflow,
                       std::set<std::string>& names) {
  if ((set & provenance::kOverflowLabel) != 0) overflow = true;
  const std::vector<std::string>& table = map.labelNames();
  const std::size_t limit =
      std::min(table.size(),
               static_cast<std::size_t>(provenance::kMaxLabels));
  for (std::size_t bit = 0; bit < limit; ++bit) {
    if ((set >> bit) & 1u) names.insert(table[bit]);
  }
}

}  // namespace

const char* decisionModeName(DecisionMode mode) {
  switch (mode) {
    case DecisionMode::Both:
      return "both";
    case DecisionMode::TreeOnly:
      return "tree-only";
    case DecisionMode::TextOnly:
      return "text-only";
    case DecisionMode::Either:
      return "either";
  }
  return "both";
}

ForcumEngine::ForcumEngine(browser::Browser& browser, ForcumConfig config)
    : browser_(browser), config_(std::move(config)) {}

ForcumEngine::SiteState& ForcumEngine::stateFor(const std::string& host) {
  return sites_[host];
}

const ForcumEngine::SiteState* ForcumEngine::siteState(
    const std::string& host) const {
  const auto it = sites_.find(host);
  return it == sites_.end() ? nullptr : &it->second;
}

bool ForcumEngine::isTrainingActive(const std::string& host) const {
  const SiteState* state = siteState(host);
  return state == nullptr ? true : state->trainingActive;
}

bool ForcumEngine::mayCompare(const std::string& host) const {
  return isTrainingActive(host) &&
         !browser_.jar().persistentCookiesForHost(host).empty();
}

std::vector<std::string> ForcumEngine::knownHosts() const {
  std::vector<std::string> hosts;
  hosts.reserve(sites_.size());
  for (const auto& [host, state] : sites_) hosts.push_back(host);
  return hosts;
}

void ForcumEngine::importSharedSite(
    const std::string& host, int totalViews, int hiddenRequests,
    int quietViews, const std::set<CookieKey>& knownPersistent,
    const std::set<CookieKey>& attributed) {
  SiteState& state = stateFor(host);
  state.trainingActive = false;
  state.totalViews = std::max(state.totalViews, totalViews);
  state.hiddenRequests = std::max(state.hiddenRequests, hiddenRequests);
  state.consecutiveQuietViews =
      std::max(state.consecutiveQuietViews, quietViews);
  state.knownPersistent.insert(knownPersistent.begin(), knownPersistent.end());
  state.attributedUseful.insert(attributed.begin(), attributed.end());
  emitSiteState(host, state);
}

void ForcumEngine::resumeTraining(const std::string& host) {
  SiteState& state = stateFor(host);
  state.trainingActive = true;
  state.consecutiveQuietViews = 0;
  emitSiteState(host, state);
}

ForcumStepReport ForcumEngine::onPageView(const browser::PageView& view) {
  const std::string& host = view.url.host();
  SiteState& state = stateFor(host);
  ++state.totalViews;
  pendingAudit_.reset();

  // Detect newly appeared persistent cookies; they restart training
  // automatically ("it will be turned on automatically if CookiePicker
  // finds new cookies appeared in the HTTP responses").
  bool sawNewCookie = false;
  for (const CookieRecord* record :
       browser_.jar().persistentCookiesForHost(host)) {
    if (state.knownPersistent.insert(record->key).second) {
      sawNewCookie = true;
    }
  }
  if (sawNewCookie && !state.trainingActive) {
    CP_LOG_INFO << "FORCUM resumed for " << host << " (new cookies)";
    state.trainingActive = true;
    state.consecutiveQuietViews = 0;
  }

  if (!state.trainingActive) {
    ForcumStepReport report;
    report.trainingActive = false;
    // The view still advanced totalViews (and possibly knownPersistent):
    // a crash here must not replay the host into a younger state.
    emitSiteState(host, state);
    return report;
  }

  ForcumStepReport report = runStep(view, state);
  report.trainingActive = true;

  if (sawNewCookie || !report.newlyMarked.empty()) {
    state.consecutiveQuietViews = 0;
  } else if (!report.skipped) {
    // Skipped (degraded) steps are quiet-neutral: a flaky host must not
    // ride its own outages into the "stable" state.
    ++state.consecutiveQuietViews;
  }
  if (state.consecutiveQuietViews >= config_.stableViewThreshold) {
    state.trainingActive = false;
    CP_LOG_INFO << "FORCUM stable for " << host << " after "
                << state.totalViews << " views";
  }
  if (pendingAudit_.has_value()) {
    // The counter transitions above are the last two fields of the record;
    // only now can it be sealed and appended.
    pendingAudit_->quietAfter = state.consecutiveQuietViews;
    pendingAudit_->trainingActiveAfter = state.trainingActive;
    if (obs::AuditTrail* audit = obs::activeAudit()) {
      audit->append(*pendingAudit_);
    }
    pendingAudit_.reset();
  }
  // One durable counter transition per page view, carrying the site's full
  // post-step state (absolute, so replay is idempotent).
  emitSiteState(host, state);
  return report;
}

std::string ForcumEngine::serializeState() const {
  std::string out;
  for (const auto& [host, state] : sites_) {
    appendSiteLine(out, host, state);
    out += '\n';
  }
  return out;
}

void ForcumEngine::emitSiteState(const std::string& host,
                                 const SiteState& state) {
  if (sink_ == nullptr) return;
  std::string line;
  appendSiteLine(line, host, state);
  sink_->append(store::RecordType::CounterTransition, line);
}

void ForcumEngine::restoreState(const std::string& text) {
  sites_.clear();
  for (const std::string& line : util::split(text, '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = util::split(line, '\t');
    if (fields.size() != 6 && fields.size() != 7) continue;
    SiteState state;
    state.trainingActive = fields[1] == "1";
    if (!parseCount(fields[2], state.totalViews) ||
        !parseCount(fields[3], state.hiddenRequests) ||
        !parseCount(fields[4], state.consecutiveQuietViews)) {
      continue;
    }
    for (const std::string& keyText : util::split(fields[5], ';')) {
      if (keyText.empty()) continue;
      const std::vector<std::string> parts = util::split(keyText, '|');
      if (parts.size() != 3) continue;
      state.knownPersistent.insert({util::unescapeStateField(parts[0]),
                                    util::unescapeStateField(parts[1]),
                                    util::unescapeStateField(parts[2])});
    }
    // Optional trailing field: attribution-confirmed marks (lines from
    // attribution-off sessions simply lack it).
    if (fields.size() == 7) {
      for (const std::string& keyText : util::split(fields[6], ';')) {
        if (keyText.empty()) continue;
        const std::vector<std::string> parts = util::split(keyText, '|');
        if (parts.size() != 3) continue;
        state.attributedUseful.insert({util::unescapeStateField(parts[0]),
                                       util::unescapeStateField(parts[1]),
                                       util::unescapeStateField(parts[2])});
      }
    }
    sites_[fields[0]] = std::move(state);
  }
}

std::set<CookieKey> ForcumEngine::selectGroup(
    const std::string& host,
    const std::vector<const CookieRecord*>& candidates) {
  std::set<CookieKey> group;
  switch (config_.groupMode) {
    case CookieGroupMode::AllPersistent:
      for (const CookieRecord* record : candidates) {
        group.insert(record->key);
      }
      break;
    case CookieGroupMode::PerCookie: {
      // One unmarked cookie per view, round-robin.
      std::vector<const CookieRecord*> unmarked;
      for (const CookieRecord* record : candidates) {
        if (!record->useful) unmarked.push_back(record);
      }
      if (unmarked.empty()) break;
      std::size_t& cursor = perCookieCursor_[host];
      group.insert(unmarked[cursor % unmarked.size()]->key);
      ++cursor;
      break;
    }
    case CookieGroupMode::Bisection: {
      std::set<CookieKey> unmarkedKeys;
      for (const CookieRecord* record : candidates) {
        if (!record->useful) unmarkedKeys.insert(record->key);
      }
      if (unmarkedKeys.empty()) break;
      auto& queue = bisectionQueue_[host];
      // Pop pending groups until one intersects the cookies this page view
      // actually carries (path-scoped cookies may not apply everywhere).
      while (!queue.empty()) {
        std::vector<CookieKey> pending = std::move(queue.front());
        queue.pop_front();
        for (const CookieKey& key : pending) {
          if (unmarkedKeys.contains(key)) group.insert(key);
        }
        if (!group.empty()) return group;
      }
      // Queue exhausted: start a fresh round over everything unmarked.
      group = unmarkedKeys;
      break;
    }
  }
  return group;
}

void ForcumEngine::onBisectionOutcome(
    const std::string& host, const std::vector<CookieKey>& group,
    bool causedByCookies) {
  if (!causedByCookies || group.size() <= 1) return;
  // The difference lives somewhere inside this group: test the halves next
  // (depth-first, so the culprit is isolated in O(log n) further views).
  auto& queue = bisectionQueue_[host];
  const std::size_t half = group.size() / 2;
  queue.emplace_front(group.begin() + static_cast<std::ptrdiff_t>(half),
                      group.end());
  queue.emplace_front(group.begin(),
                      group.begin() + static_cast<std::ptrdiff_t>(half));
}

void ForcumEngine::runAttribution(const browser::PageView& view,
                                  const dom::TreeSnapshot& regular,
                                  const browser::HiddenFetchResult& hidden,
                                  SiteState& state,
                                  ForcumStepReport& report) {
  report.attributionRan = true;
  obs::count(obs::Counter::AttributionSteps);

  // Attribution needs both provenance maps' name tables. Provenance-unaware
  // origins land here and fall back to marking nothing — the honest group
  // semantics resume on the next step if the operator turns attribution
  // off.
  if (view.provenance == nullptr || hidden.provenance == nullptr) {
    report.attributionFallback = "no-provenance";
    obs::count(obs::Counter::AttributionFallbacks);
    return;
  }

  // Taint on the difference, unioned over *both* copies: a region the
  // cookie's presence adds taints regular-only rows, while a region its
  // absence adds (a sign-up wall, a set-your-preferences banner) taints
  // hidden-only rows — branch-read taint labels both branches.
  const provenance::LabelSet regularTaint = diffTaint(regular, *hidden.snapshot);
  const provenance::LabelSet hiddenTaint = diffTaint(*hidden.snapshot, regular);

  bool overflow = false;
  std::set<std::string> implicated;
  collectLabelNames(regularTaint, *view.provenance, overflow, implicated);
  collectLabelNames(hiddenTaint, *hidden.provenance, overflow, implicated);
  if (overflow) {
    // A hostile site exceeded the label universe; the overflow label means
    // "some cookie beyond the first 31" — not attributable, never guessed.
    report.attributionFallback = "label-overflow";
    obs::count(obs::Counter::AttributionFallbacks);
    return;
  }

  // Only tested candidates can be nominated: a marked cookie's taint may
  // legitimately sit inside the difference region when features interleave,
  // and noise regions carry no candidate taint at all.
  std::vector<CookieKey> nominated;
  for (const CookieKey& key : report.testedGroup) {
    if (implicated.contains(key.name)) nominated.push_back(key);
  }
  if (nominated.empty()) {
    report.attributionFallback = "no-taint";
    obs::count(obs::Counter::AttributionFallbacks);
    return;
  }
  if (nominated.size() == 1) {
    report.attributedCookie = nominated.front().name;
    obs::count(obs::Counter::AttributionNominated);
  } else {
    report.attributionAmbiguous = true;
    obs::count(obs::Counter::AttributionAmbiguous);
  }

  // A singleton tested group needs no extra round: the hidden copy already
  // differs with exactly the nominated cookie stripped.
  if (report.testedGroup.size() == 1 && nominated.size() == 1) {
    const CookieKey& key = nominated.front();
    const CookieRecord* record = browser_.jar().find(key);
    if (record != nullptr && !record->useful) {
      browser_.jar().markUseful(key);
      report.newlyMarked.push_back(key);
      state.attributedUseful.insert(key);
    }
    report.attributionConfirmed = true;
    obs::count(obs::Counter::AttributionConfirmed);
    return;
  }

  // One targeted strip per nominated cookie (one total in the unambiguous
  // common case). Marking without the confirm would trust taint alone;
  // confirming keeps the verdict grounded in the paper's regular-vs-hidden
  // comparison, so a taint bug can cost rounds but never mis-mark.
  for (const CookieKey& key : nominated) {
    browser::HiddenFetchResult confirm = browser_.hiddenFetch(
        view,
        [&key](const CookieRecord& record) { return record.key == key; });
    ++report.attributionConfirmStrips;
    obs::count(obs::Counter::AttributionConfirmStrips);
    report.hiddenLatencyMs += confirm.latencyMs;
    report.hiddenAttempts += confirm.attempts;
    if (!confirm.usable()) {
      // Degraded confirm: this nomination marks nothing. Training stays
      // active, so an honest retry happens on a later view.
      report.attributionFallback = "confirm-degraded:" + failureLabel(confirm);
      continue;
    }
    ++state.hiddenRequests;
    const DecisionResult verdict = decideCookieUsefulness(
        regular, *confirm.snapshot, scratch_, config_.decision);
    if (!verdict.causedByCookies) continue;
    const CookieRecord* record = browser_.jar().find(key);
    if (record != nullptr && !record->useful) {
      browser_.jar().markUseful(key);
      report.newlyMarked.push_back(key);
      state.attributedUseful.insert(key);
    }
    report.attributionConfirmed = true;
    obs::count(obs::Counter::AttributionConfirmed);
    if (report.attributedCookie.empty()) {
      // Ambiguous nomination resolved by the confirms: record the first
      // cookie that actually reproduced the difference.
      report.attributedCookie = key.name;
    }
  }
}

ForcumStepReport ForcumEngine::runStep(const browser::PageView& view,
                                       SiteState& state) {
  obs::ScopedTimer stepSpan(obs::Timer::ForcumStep);
  // Captured before the step so the audit record can show the transition
  // (onPageView rewrites the counter after runStep returns).
  const int quietBefore = state.consecutiveQuietViews;
  ForcumStepReport report;

  // Only real container documents are trained on: an error page (5xx/4xx
  // from a transient failure) compared against a healthy hidden copy would
  // mark every cookie in sight. Degrade to a counter-neutral skip.
  if (view.status != 200) {
    report.skipped = true;
    report.skipReason = "container-error";
    obs::count(obs::Counter::ForcumStepsSkipped);
    return report;
  }

  // Which persistent cookies did the *regular* request actually carry? The
  // saved container request header is authoritative — cookies set by this
  // very response exist in the jar but were not part of the page the user
  // is looking at, so they cannot be tested on this view.
  std::set<std::string_view> sentNames;
  for (const auto& [name, value] :
       net::parseCookieHeader(view.containerRequest.cookieHeader())) {
    sentNames.insert(name);
  }
  std::vector<const CookieRecord*> candidates;
  for (const CookieRecord* record :
       browser_.jar().cookiesFor(view.url, browser_.clock().nowMs())) {
    if (record->persistent && sentNames.contains(record->key.name)) {
      candidates.push_back(record);
    }
  }
  if (candidates.empty()) {
    return report;  // nothing to test on this page
  }

  // Select the tested group. Attribution strips every unmarked candidate
  // at once: one hidden round answers whether *any* of them matters, and
  // the taint on the difference answers which — group scheduling (round
  // robin, bisection splits) exists precisely to answer "which" without
  // taint, so it is bypassed wholesale.
  std::set<CookieKey> group;
  if (config_.attribution == AttributionMode::Provenance) {
    for (const CookieRecord* record : candidates) {
      if (!record->useful) group.insert(record->key);
    }
  } else {
    group = selectGroup(view.url.host(), candidates);
  }
  if (group.empty()) return report;

  const util::StopWatch hostWatch;
  browser::HiddenFetchResult hidden = browser_.hiddenFetch(
      view, [&group](const CookieRecord& record) {
        return group.contains(record.key);
      });
  report.hiddenRequestSent = true;
  report.hiddenLatencyMs = hidden.latencyMs;
  report.hiddenAttempts = hidden.attempts;
  report.testedGroup.assign(group.begin(), group.end());

  if (!hidden.usable()) {
    // The hidden copy never usably arrived (retries exhausted, error
    // status, truncated body): no decision this round. The state counters
    // stay untouched — only usable hidden rounds count — and the skip
    // leaves an audit record explaining itself.
    report.skipped = true;
    report.skipReason = "hidden-degraded:" + failureLabel(hidden);
    obs::count(obs::Counter::ForcumStepsSkipped);
    if (obs::activeAudit() != nullptr) {
      pendingAudit_.emplace();
      obs::AuditRecord& record = *pendingAudit_;
      record.host = view.url.host();
      record.url = view.url.toString();
      record.view = state.totalViews;
      for (const CookieKey& key : report.testedGroup) {
        record.testedGroup.push_back(renderCookieKey(key));
      }
      record.treeThreshold = config_.decision.treeThreshold;
      record.textThreshold = config_.decision.textThreshold;
      record.level = config_.decision.maxLevel;
      record.mode = decisionModeName(config_.decision.mode);
      record.branch = "skipped";
      record.skippedReason = report.skipReason;
      record.hiddenLatencyMs = report.hiddenLatencyMs;
      record.hiddenAttempts = report.hiddenAttempts;
      record.viewsTotal = state.totalViews;
      record.hiddenRequests = state.hiddenRequests;
      record.quietBefore = quietBefore;
    }
    report.durationMs = hidden.latencyMs + hostWatch.elapsedMs();
    return report;
  }
  ++state.hiddenRequests;

  // The decision runs over the two snapshots with this engine's reusable
  // scratch. The regular copy's snapshot was built at visit time when the
  // visit expected a comparison (mayCompare); otherwise (training resumed
  // on this view, a redirect to another host) it is built now, once, and
  // every comparison below reads the same one.
  const std::shared_ptr<const dom::TreeSnapshot> regular =
      browser_.snapshotOf(view);
  report.decision = decideCookieUsefulness(*regular, *hidden.snapshot,
                                           scratch_, config_.decision);
  // The raw Figure-5 verdict, before any veto overwrites it — the audit
  // trail records this (its rederivation invariant depends on it).
  const bool rawVerdict = report.decision.causedByCookies;
  if (report.decision.causedByCookies && config_.consistencyReprobe) {
    // Second hidden copy, identical stripped group. If the two hidden
    // copies differ from *each other*, the regular-vs-hidden difference
    // cannot be attributed to the cookies.
    browser::HiddenFetchResult reprobe = browser_.hiddenFetch(
        view, [&group](const CookieRecord& record) {
          return group.contains(record.key);
        });
    report.hiddenLatencyMs += reprobe.latencyMs;
    report.hiddenAttempts += reprobe.attempts;
    if (!reprobe.usable()) {
      // The confirming copy never arrived. Marking on an unconfirmed
      // verdict would defeat the re-probe's purpose, so the marking is
      // vetoed and the step degrades (the audit record keeps the real
      // branch and raw verdict, plus the skip reason).
      report.skipped = true;
      report.skipReason = "reprobe-degraded:" + failureLabel(reprobe);
      report.decision.causedByCookies = false;
      obs::count(obs::Counter::ForcumStepsSkipped);
    } else {
      ++state.hiddenRequests;
      // The agreement check is deliberately *stricter* than detection:
      // either metric disagreeing is suspicious, and the s term is
      // disabled — a cloaker that reuses one defacement skeleton with
      // fresh text would otherwise pass as "same-context replacement".
      DecisionConfig agreementConfig = config_.decision;
      agreementConfig.mode = DecisionMode::Either;
      agreementConfig.sameContextCredit = false;
      const DecisionResult agreement = decideCookieUsefulness(
          *hidden.snapshot, *reprobe.snapshot, scratch_, agreementConfig);
      report.reprobeRan = true;
      report.reprobeAgreement = agreement;
      if (agreement.causedByCookies) {
        // The copies disagree although nothing changed between them.
        report.inconsistentHiddenCopies = true;
        report.decision.causedByCookies = false;
        obs::count(obs::Counter::VerdictVetoed);
        CP_LOG_WARN << "inconsistent hidden copies from " << view.url.host()
                    << " — suspected cloaking or page dynamics";
      }
    }
  }
  if (config_.attribution == AttributionMode::Provenance) {
    if (report.decision.causedByCookies) {
      runAttribution(view, *regular, hidden, state, report);
    }
  } else if (config_.groupMode == CookieGroupMode::Bisection) {
    onBisectionOutcome(view.url.host(), report.testedGroup,
                       report.decision.causedByCookies);
    // Only singleton groups mark: the difference is pinned on one cookie.
    if (report.decision.causedByCookies && report.testedGroup.size() == 1) {
      const CookieKey& key = report.testedGroup.front();
      const CookieRecord* record = browser_.jar().find(key);
      if (record != nullptr && !record->useful) {
        browser_.jar().markUseful(key);
        report.newlyMarked.push_back(key);
      }
    }
  } else if (report.decision.causedByCookies) {
    for (const CookieKey& key : report.testedGroup) {
      const CookieRecord* record = browser_.jar().find(key);
      if (record != nullptr && !record->useful) {
        browser_.jar().markUseful(key);
        report.newlyMarked.push_back(key);
      }
    }
  }

  if (!report.newlyMarked.empty()) {
    obs::count(obs::Counter::CookiesMarkedUseful,
               static_cast<std::int64_t>(report.newlyMarked.size()));
  }

  if (sink_ != nullptr) {
    // Informational verdict record: the jar/mark records above already
    // carry the state, but fsck and post-mortems want the decision story.
    std::string body = view.url.host();
    util::appendParts(
        body, {"\t", std::to_string(state.totalViews), "\t",
               report.decision.causedByCookies ? "cookie-caused"
                                               : "no-difference",
               "\t", std::to_string(report.newlyMarked.size())});
    sink_->append(store::RecordType::VerdictApplied, body);
  }

  if (obs::activeAudit() != nullptr) {
    // One audit record per Figure-5 decision. causedByCookies is the *raw*
    // verdict (re-derivable from the recorded similarities via
    // figure5Verdict); vetoes are recorded separately, so the effective
    // outcome is causedByCookies && !reprobeVetoed && skippedReason empty.
    pendingAudit_.emplace();
    obs::AuditRecord& record = *pendingAudit_;
    record.host = view.url.host();
    record.url = view.url.toString();
    record.view = state.totalViews;
    for (const CookieKey& key : report.testedGroup) {
      record.testedGroup.push_back(renderCookieKey(key));
    }
    record.treeSim = report.decision.treeSim;
    record.textSim = report.decision.textSim;
    record.treeThreshold = config_.decision.treeThreshold;
    record.textThreshold = config_.decision.textThreshold;
    record.level = config_.decision.maxLevel;
    record.mode = decisionModeName(config_.decision.mode);
    const bool treeDiffers =
        report.decision.treeSim <= config_.decision.treeThreshold;
    const bool textDiffers =
        report.decision.textSim <= config_.decision.textThreshold;
    record.branch = obs::figure5Branch(treeDiffers, textDiffers);
    record.skippedReason = report.skipReason;
    record.causedByCookies = rawVerdict;
    record.reprobeRan = report.reprobeRan;
    record.reprobeVetoed = report.inconsistentHiddenCopies;
    if (report.reprobeRan) {
      record.reprobeTreeSim = report.reprobeAgreement.treeSim;
      record.reprobeTextSim = report.reprobeAgreement.textSim;
    }
    record.hiddenLatencyMs = report.hiddenLatencyMs;
    record.hiddenAttempts = report.hiddenAttempts;
    record.viewsTotal = state.totalViews;
    record.hiddenRequests = state.hiddenRequests;
    record.quietBefore = quietBefore;
    for (const CookieKey& key : report.newlyMarked) {
      record.marked.push_back(renderCookieKey(key));
    }
    if (report.attributionRan) {
      // Serialized only for steps the attribution tier actually touched, so
      // attribution-off trails stay byte-identical to pre-tier builds.
      record.hasAttribution = true;
      record.attributedCookie = report.attributedCookie;
      record.attributionConfirmed = report.attributionConfirmed;
      record.attributionConfirmStrips = report.attributionConfirmStrips;
    }
    if (report.decision.causedByCookies) {
      // Evidence is gathered only for the verdicts a user would ask about —
      // the ones that marked (or would have marked) cookies. It reads the
      // two snapshots the decision compared and the retained HTML; no node
      // tree.
      obs::ScopedTimer evidenceSpan(obs::Timer::AuditEvidence);
      ExplainOptions explainOptions;
      explainOptions.decision = config_.decision;
      DifferenceExplanation evidence;
      evidence.decision = report.decision;
      collectDifferenceEvidence({*regular, view.containerHtml},
                                {*hidden.snapshot, hidden.html},
                                explainOptions, evidenceScratch_, evidence);
      record.evidenceStructureRegular =
          std::move(evidence.structureOnlyInRegular);
      record.evidenceStructureHidden =
          std::move(evidence.structureOnlyInHidden);
      record.evidenceTextRegular = std::move(evidence.textOnlyInRegular);
      record.evidenceTextHidden = std::move(evidence.textOnlyInHidden);
    }
  }

  // Duration = simulated hidden round trip + host-time cost of DOM build
  // and detection (the paper's Table 1 "CookiePicker Duration" column).
  report.durationMs = hidden.latencyMs + hostWatch.elapsedMs();
  state.detectionTimesMs.add(report.decision.detectionTimeMs);
  state.durationsMs.add(report.durationMs);
  return report;
}

}  // namespace cookiepicker::core
