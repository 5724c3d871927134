// The CookiePicker extension facade — the public API a downstream user
// programs against.
//
// Wires together the browser hooks, the FORCUM training engine, the
// backward-error-recovery button, and enforcement: once a site's cookie set
// is stable, still-unmarked persistent cookies stop being transmitted and
// are removed from the jar.
//
// Typical use:
//   net::Network network;  util::SimClock clock;
//   browser::Browser browser(network, clock);
//   core::CookiePicker picker(browser);
//   auto view = picker.browse("http://shop.example.com/");   // visit + train
//   ...
//   picker.enforceStableHosts();   // block + purge useless cookies
// Thread safety: every public method acquires an internal mutex, so one
// CookiePicker (and the Browser/jar it wraps) may be driven from several
// threads — concurrent browse/enforce/recover interleavings serialize
// instead of racing. Distinct CookiePicker instances over distinct Browsers
// share nothing but the Network, which synchronizes itself; that is the
// fleet's parallelism model. Callers that reach past the facade (e.g.
// calling browser().visit() directly) are outside this lock and must be
// single-threaded with respect to that Browser.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "browser/browser.h"
#include "core/forcum.h"
#include "core/recovery.h"
#include "knowledge/knowledge_base.h"
#include "store/state_sink.h"

namespace cookiepicker::core {

struct CookiePickerConfig {
  ForcumConfig forcum;
  // Automatically enforce a host as soon as its training turns stable.
  bool autoEnforce = false;
  // Crowd-shared site knowledge (not owned; null = the per-user paper
  // path only). When set, each host is consulted once per session, as soon
  // as the session has observed at least one of its persistent cookies: a
  // warm (stable, covering) entry imports the crowd's marks and skips
  // straight to enforce — ~0 hidden requests; anything else (cold, still
  // in probation, or demoted because this session saw a cookie the entry
  // does not know) falls back to honest FORCUM training.
  knowledge::KnowledgeBase* sharedKnowledge = nullptr;
};

// How a session's one-shot shared-knowledge consult for a host resolved.
enum class KnowledgeOutcome {
  Unconsulted,  // no shared base, or no persistent cookies observed yet
  Warm,         // stable entry imported; session skipped to enforce
  Cold,         // entry absent or still in probation; trained honestly
  Demoted,      // novel cookie observed: entry re-probated (epoch bump)
};

// Per-host summary used by experiments and the privacy-audit example.
struct HostReport {
  std::string host;
  int persistentCookies = 0;
  int markedUseful = 0;
  int pageViews = 0;
  int hiddenRequests = 0;
  double averageDetectionMs = 0.0;
  double averageDurationMs = 0.0;
  bool trainingActive = true;
  bool enforced = false;
};

class CookiePicker {
 public:
  explicit CookiePicker(browser::Browser& browser,
                        CookiePickerConfig config = {});

  // Visit a page, run the FORCUM step for it (during think time), then
  // simulate the user's think pause. Returns the step report.
  ForcumStepReport browse(const std::string& url);
  ForcumStepReport browse(const net::Url& url);

  // Lower-level hook if the caller drives the browser itself.
  ForcumStepReport onPageLoaded(const browser::PageView& view);

  // Enforcement: stop transmitting unmarked persistent cookies of `host`
  // and delete them from the jar ("those disabled useless cookies will be
  // removed from the Web browser's cookie jar"). Idempotent.
  void enforceForHost(const std::string& host);
  // Enforces every host whose training has turned stable.
  void enforceStableHosts();
  bool isEnforced(const std::string& host) const;

  // The backward-error-recovery button for the page the user is looking at.
  // Re-marks the page's blocked cookies useful and resumes training.
  std::vector<cookies::CookieKey> pressRecoveryButton(const net::Url& url);

  HostReport report(const std::string& host) const;

  // --- shared knowledge ----------------------------------------------------
  // How this session's consult for `host` resolved (Unconsulted when no
  // shared base is configured or the host was never consulted).
  KnowledgeOutcome knowledgeOutcome(const std::string& host) const;
  // This session's knowledge contribution for `host`: epoch = the consult
  // epoch (0 if never consulted), stable = training finished, counters from
  // the FORCUM site state, cookies = the known-persistent keys with their
  // current jar marks (a key whose cookie enforcement purged stays,
  // unmarked — union-merging keeps knowledge of blocked cookies alive).
  knowledge::SiteKnowledge exportKnowledge(const std::string& host) const;
  // Exports every trained host into the shared base (no-op without one).
  // Returns the number of sites published.
  std::size_t publishKnowledge();

  // Full extension state — cookie jar (with useful marks), FORCUM training
  // state, enforced hosts — as one text blob, so a browser restart can pick
  // up exactly where training left off.
  std::string saveState() const;
  // Replaces the extension state from a saveState() blob. The blob must
  // carry each of the three section markers ("== jar ==", "== forcum ==",
  // "== enforced ==") exactly once, in that order; on any violation the
  // call returns false with a diagnostic in `error` and the live state is
  // left untouched. (Anything before the jar marker is tolerated preamble.)
  bool loadState(const std::string& text, std::string* error = nullptr);

  // Wires the durable state store into every mutating component: the jar,
  // the FORCUM engine, and this facade's enforcement bookkeeping all emit
  // through `sink` from here on. Null detaches. When resuming from
  // recovered state, call loadState first, then attach — the sink's mirror
  // already holds the recovered records, so replaying the load itself
  // would only write duplicates.
  void attachStateSink(store::StateSink* sink);

  browser::Browser& browser() { return browser_; }
  ForcumEngine& forcum() { return forcum_; }
  const ForcumEngine& forcum() const { return forcum_; }
  RecoveryManager& recovery() { return recovery_; }
  const CookiePickerConfig& config() const { return config_; }

 private:
  void installSendFilter();
  // Unlocked bodies shared by the public, locking entry points.
  ForcumStepReport onPageLoadedLocked(const browser::PageView& view);
  void enforceForHostLocked(const std::string& host);
  // One-shot shared-knowledge consult for the host (no-op once resolved);
  // runs before the FORCUM step so a warm site never sends a hidden request.
  void consultKnowledgeLocked(const std::string& host);
  // Re-applies a warm host's imported useful marks to cookies that appeared
  // after the consult (marks only exist on jar records, and later pages may
  // set crowd-known cookies the first view did not carry).
  void applyKnowledgeMarksLocked(const std::string& host);
  knowledge::SiteKnowledge exportKnowledgeLocked(const std::string& host)
      const;

  // Serializes all public operations; recursive calls go through the
  // *Locked helpers instead of re-entering.
  mutable std::mutex mutex_;
  browser::Browser& browser_;
  CookiePickerConfig config_;
  ForcumEngine forcum_;
  RecoveryManager recovery_;
  // Hosts under enforcement; shared with the browser's send filter.
  // Transparent, so the filter looks registrable domains up as views.
  std::shared_ptr<std::set<std::string, std::less<>>> enforcedHosts_;
  // Durable-state sink for enforcement transitions (jar/FORCUM hold their
  // own pointers); guarded by mutex_ like everything else here.
  store::StateSink* sink_ = nullptr;
  // Shared-knowledge consult state, all guarded by mutex_: how each host
  // resolved, the epoch it was consulted at (exports stamp it so merges
  // discard contributions trained against a demoted epoch), and the useful
  // keys a warm import still needs to mark as their cookies appear.
  std::map<std::string, KnowledgeOutcome> knowledgeOutcomes_;
  std::map<std::string, std::uint64_t> knowledgeEpochs_;
  std::map<std::string, std::set<cookies::CookieKey>> knowledgeUsefulKeys_;
};

}  // namespace cookiepicker::core
