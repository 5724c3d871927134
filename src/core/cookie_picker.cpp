#include "core/cookie_picker.h"

#include "obs/recorder.h"
#include "util/log.h"
#include "util/strings.h"

namespace cookiepicker::core {

CookiePicker::CookiePicker(browser::Browser& browser,
                           CookiePickerConfig config)
    : browser_(browser),
      config_(std::move(config)),
      forcum_(browser, config_.forcum),
      recovery_(browser.jar()),
      enforcedHosts_(std::make_shared<std::set<std::string, std::less<>>>()) {
  installSendFilter();
  if (config_.forcum.attribution == AttributionMode::Provenance) {
    // Attribution needs taint data on every container and hidden fetch;
    // with the mode off the browser's wire traffic stays untouched.
    browser_.setWantProvenance(true);
  }
}

void CookiePicker::installSendFilter() {
  // Persistent cookies of enforced hosts that never earned the useful mark
  // are withheld from every outgoing request.
  auto enforced = enforcedHosts_;
  browser_.setPersistentSendFilter(
      [enforced](const cookies::CookieRecord& record) {
        if (record.useful) return false;
        return enforced->contains(record.key.domain) ||
               enforced->contains(net::registrableDomain(record.key.domain));
      });
}

ForcumStepReport CookiePicker::browse(const std::string& url) {
  const auto parsed = net::Url::parse(url);
  if (!parsed.has_value()) {
    CP_LOG_WARN << "CookiePicker::browse: unparseable URL " << url;
    return ForcumStepReport{};
  }
  return browse(*parsed);
}

ForcumStepReport CookiePicker::browse(const net::Url& url) {
  std::lock_guard lock(mutex_);
  // A view no comparison will read skips its snapshot; FORCUM builds it
  // later if training resumes on this very view.
  const browser::PageView view =
      browser_.visit(url, forcum_.mayCompare(url.host()));
  ForcumStepReport report = onPageLoadedLocked(view);
  browser_.think();
  return report;
}

ForcumStepReport CookiePicker::onPageLoaded(const browser::PageView& view) {
  std::lock_guard lock(mutex_);
  return onPageLoadedLocked(view);
}

ForcumStepReport CookiePicker::onPageLoadedLocked(
    const browser::PageView& view) {
  if (config_.sharedKnowledge != nullptr) {
    // Consult (or keep warming) the crowd knowledge BEFORE the FORCUM step,
    // so a warm site's training is already off when onPageView runs and no
    // hidden request is ever sent for it.
    consultKnowledgeLocked(view.url.host());
    applyKnowledgeMarksLocked(view.url.host());
  }
  ForcumStepReport report = forcum_.onPageView(view);
  if (config_.autoEnforce && !report.trainingActive) {
    enforceForHostLocked(view.url.host());
  }
  return report;
}

void CookiePicker::consultKnowledgeLocked(const std::string& host) {
  if (knowledgeOutcomes_.contains(host)) return;  // one-shot per session
  // What this session has actually observed so far. Before any persistent
  // cookie lands there is nothing to compare the entry against — wait for
  // the next view rather than warm a host we know nothing about.
  std::set<cookies::CookieKey> observed;
  for (const cookies::CookieRecord* record :
       browser_.jar().persistentCookiesForHost(host)) {
    observed.insert(record->key);
  }
  if (observed.empty()) return;

  const std::optional<knowledge::SiteKnowledge> entry =
      config_.sharedKnowledge->lookup(host);
  if (!entry.has_value()) {
    knowledgeOutcomes_[host] = KnowledgeOutcome::Cold;
    knowledgeEpochs_[host] = 0;
    obs::count(obs::Counter::KnowledgeMisses);
    return;
  }
  knowledgeEpochs_[host] = entry->epoch;
  // Novel cookies invalidate the entry: the crowd's knowledge describes a
  // site that no longer matches what this session observes, so re-probate
  // it (epoch bump) and train honestly. Partial observation the other way
  // (entry knows MORE keys than the first views carried) is expected and
  // fine — pages set their cookies over time.
  bool novel = false;
  for (const cookies::CookieKey& key : observed) {
    if (!entry->cookies.contains(key)) {
      novel = true;
      break;
    }
  }
  if (novel) {
    knowledgeEpochs_[host] = config_.sharedKnowledge->demote(host, observed);
    knowledgeOutcomes_[host] = KnowledgeOutcome::Demoted;
    obs::count(obs::Counter::KnowledgeDemotions);
    obs::count(obs::Counter::KnowledgeMisses);
    return;
  }
  if (!entry->stable) {
    knowledgeOutcomes_[host] = KnowledgeOutcome::Cold;
    obs::count(obs::Counter::KnowledgeMisses);
    return;
  }

  // Warm: adopt the crowd verdict. Remember the useful keys (marks can only
  // be applied once their cookies exist in the jar — applyKnowledgeMarks
  // catches the late arrivals), seed FORCUM with the entry's counters and
  // full key set so training stays off unless a truly novel cookie appears,
  // and go straight to enforcement.
  std::set<cookies::CookieKey> usefulKeys;
  std::set<cookies::CookieKey> allKeys;
  for (const auto& [key, useful] : entry->cookies) {
    allKeys.insert(key);
    if (useful) usefulKeys.insert(key);
  }
  knowledgeUsefulKeys_[host] = std::move(usefulKeys);
  knowledgeOutcomes_[host] = KnowledgeOutcome::Warm;
  obs::count(obs::Counter::KnowledgeHits);
  applyKnowledgeMarksLocked(host);
  forcum_.importSharedSite(host, entry->totalViews, entry->hiddenRequests,
                           entry->quietViews, allKeys, entry->attributed);
  enforceForHostLocked(host);
}

void CookiePicker::applyKnowledgeMarksLocked(const std::string& host) {
  const auto it = knowledgeUsefulKeys_.find(host);
  if (it == knowledgeUsefulKeys_.end()) return;
  for (const cookies::CookieKey& key : it->second) {
    const cookies::CookieRecord* record = browser_.jar().find(key);
    if (record != nullptr && !record->useful) {
      browser_.jar().markUseful(key);
      obs::count(obs::Counter::KnowledgeMarksImported);
    }
  }
}

KnowledgeOutcome CookiePicker::knowledgeOutcome(const std::string& host) const {
  std::lock_guard lock(mutex_);
  const auto it = knowledgeOutcomes_.find(host);
  return it == knowledgeOutcomes_.end() ? KnowledgeOutcome::Unconsulted
                                        : it->second;
}

knowledge::SiteKnowledge CookiePicker::exportKnowledgeLocked(
    const std::string& host) const {
  knowledge::SiteKnowledge entry;
  const auto epochIt = knowledgeEpochs_.find(host);
  if (epochIt != knowledgeEpochs_.end()) entry.epoch = epochIt->second;
  if (const ForcumEngine::SiteState* state = forcum_.siteState(host)) {
    entry.stable = !state->trainingActive;
    entry.totalViews = state->totalViews;
    entry.hiddenRequests = state->hiddenRequests;
    entry.quietViews = state->consecutiveQuietViews;
    for (const cookies::CookieKey& key : state->knownPersistent) {
      entry.cookies[key] = false;
    }
    // Attribution-confirmed marks travel with the verdict: a warm consumer
    // learns not just *that* these cookies are useful but that a targeted
    // provenance strip proved it.
    entry.attributed = state->attributedUseful;
  }
  // Jar marks win over the knownPersistent default; a purged (enforced)
  // cookie simply keeps its unmarked entry — blocked is knowledge too.
  for (const cookies::CookieRecord* record :
       browser_.jar().persistentCookiesForHost(host)) {
    entry.cookies[record->key] = record->useful;
  }
  return entry;
}

knowledge::SiteKnowledge CookiePicker::exportKnowledge(
    const std::string& host) const {
  std::lock_guard lock(mutex_);
  return exportKnowledgeLocked(host);
}

std::size_t CookiePicker::publishKnowledge() {
  std::lock_guard lock(mutex_);
  if (config_.sharedKnowledge == nullptr) return 0;
  std::size_t published = 0;
  for (const std::string& host : forcum_.knownHosts()) {
    config_.sharedKnowledge->mergeSite(host, exportKnowledgeLocked(host));
    ++published;
  }
  return published;
}

void CookiePicker::enforceForHost(const std::string& host) {
  std::lock_guard lock(mutex_);
  enforceForHostLocked(host);
}

void CookiePicker::enforceForHostLocked(const std::string& host) {
  if (enforcedHosts_->insert(host).second) {
    obs::count(obs::Counter::HostsEnforced);
    if (sink_ != nullptr) {
      sink_->append(store::RecordType::HostEnforced, host);
    }
  }
  browser_.jar().removeIf([&host](const cookies::CookieRecord& record) {
    if (!record.persistent || record.useful) return false;
    return record.hostOnly ? record.key.domain == host
                           : net::hostMatchesDomain(host, record.key.domain);
  });
}

void CookiePicker::enforceStableHosts() {
  // Walk every host FORCUM has seen; stable ones get enforced.
  // (Host list comes from the jar plus training states.)
  std::lock_guard lock(mutex_);
  std::set<std::string> hosts;
  for (const cookies::CookieRecord* record : browser_.jar().all()) {
    hosts.insert(record->key.domain);
  }
  for (const std::string& host : hosts) {
    const ForcumEngine::SiteState* state = forcum_.siteState(host);
    if (state != nullptr && !state->trainingActive) {
      enforceForHostLocked(host);
    }
  }
}

bool CookiePicker::isEnforced(const std::string& host) const {
  std::lock_guard lock(mutex_);
  return enforcedHosts_->contains(host);
}

std::vector<cookies::CookieKey> CookiePicker::pressRecoveryButton(
    const net::Url& url) {
  std::lock_guard lock(mutex_);
  // Recovery must see blocked cookies too, so lift enforcement for the host
  // while re-marking.
  const bool wasEnforced = enforcedHosts_->erase(url.host()) > 0;
  std::vector<cookies::CookieKey> changed =
      recovery_.recoverPage(url, browser_.clock().nowMs());
  if (wasEnforced) enforcedHosts_->insert(url.host());
  forcum_.resumeTraining(url.host());
  return changed;
}

namespace {
constexpr char kJarMarker[] = "== jar ==";
constexpr char kForcumMarker[] = "== forcum ==";
constexpr char kEnforcedMarker[] = "== enforced ==";
}  // namespace

std::string CookiePicker::saveState() const {
  std::lock_guard lock(mutex_);
  std::string out;
  util::appendParts(out, {kJarMarker, "\n", browser_.jar().serialize()});
  util::appendParts(out, {kForcumMarker, "\n", forcum_.serializeState()});
  util::appendParts(out, {kEnforcedMarker, "\n"});
  for (const std::string& host : *enforcedHosts_) {
    util::appendParts(out, {host, "\n"});
  }
  return out;
}

bool CookiePicker::loadState(const std::string& text, std::string* error) {
  std::lock_guard lock(mutex_);
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  // Parse into locals first; the live state is only replaced once the blob
  // has proven structurally sound — a truncated or spliced state file must
  // not half-apply.
  enum class Section { None, Jar, Forcum, Enforced };
  const std::vector<std::string> lines = util::split(text, '\n');
  // Presence and multiplicity first, so an erased marker reports as
  // "missing" rather than making its successor look out of order.
  int jarMarkers = 0;
  int forcumMarkers = 0;
  int enforcedMarkers = 0;
  for (const std::string& line : lines) {
    if (line == kJarMarker) ++jarMarkers;
    if (line == kForcumMarker) ++forcumMarkers;
    if (line == kEnforcedMarker) ++enforcedMarkers;
  }
  if (jarMarkers == 0) {
    return fail("loadState: missing '== jar ==' section marker");
  }
  if (forcumMarkers == 0) {
    return fail("loadState: missing '== forcum ==' section marker");
  }
  if (enforcedMarkers == 0) {
    return fail("loadState: missing '== enforced ==' section marker");
  }
  if (jarMarkers > 1) {
    return fail("loadState: duplicated '== jar ==' section marker");
  }
  if (forcumMarkers > 1) {
    return fail("loadState: duplicated '== forcum ==' section marker");
  }
  if (enforcedMarkers > 1) {
    return fail("loadState: duplicated '== enforced ==' section marker");
  }
  std::string jarText;
  std::string forcumText;
  std::set<std::string, std::less<>> enforced;
  Section section = Section::None;
  for (const std::string& line : lines) {
    if (line == kJarMarker) {
      if (section != Section::None) {
        return fail("loadState: '== jar ==' section marker out of order");
      }
      section = Section::Jar;
      continue;
    }
    if (line == kForcumMarker) {
      if (section != Section::Jar) {
        return fail(
            "loadState: '== forcum ==' section marker out of order "
            "(expected after '== jar ==')");
      }
      section = Section::Forcum;
      continue;
    }
    if (line == kEnforcedMarker) {
      if (section != Section::Forcum) {
        return fail(
            "loadState: '== enforced ==' section marker out of order "
            "(expected after '== forcum ==')");
      }
      section = Section::Enforced;
      continue;
    }
    switch (section) {
      case Section::Jar:
        util::appendParts(jarText, {line, "\n"});
        break;
      case Section::Forcum:
        util::appendParts(forcumText, {line, "\n"});
        break;
      case Section::Enforced:
        if (!line.empty()) enforced.insert(line);
        break;
      case Section::None:
        break;  // preamble: ignored
    }
  }
  browser_.jar() = cookies::CookieJar::deserialize(jarText);
  forcum_.restoreState(forcumText);
  *enforcedHosts_ = std::move(enforced);
  return true;
}

void CookiePicker::attachStateSink(store::StateSink* sink) {
  std::lock_guard lock(mutex_);
  sink_ = sink;
  browser_.jar().setStateSink(sink);
  forcum_.setStateSink(sink);
}

HostReport CookiePicker::report(const std::string& host) const {
  std::lock_guard lock(mutex_);
  HostReport hostReport;
  hostReport.host = host;
  for (const cookies::CookieRecord* record :
       browser_.jar().persistentCookiesForHost(host)) {
    ++hostReport.persistentCookies;
    if (record->useful) ++hostReport.markedUseful;
  }
  if (const ForcumEngine::SiteState* state = forcum_.siteState(host)) {
    hostReport.pageViews = state->totalViews;
    hostReport.hiddenRequests = state->hiddenRequests;
    hostReport.averageDetectionMs = state->detectionTimesMs.mean();
    hostReport.averageDurationMs = state->durationsMs.mean();
    hostReport.trainingActive = state->trainingActive;
  }
  hostReport.enforced = enforcedHosts_->contains(host);
  return hostReport;
}

}  // namespace cookiepicker::core
