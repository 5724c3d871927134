// FORward Cookie Usefulness Marking — the FORCUM training process
// (Definition 1, Section 3.2).
//
// For each page view during training, the engine: (1) takes the saved
// container request, (2) sends the hidden request with the tested cookie
// group stripped, (3) builds the hidden DOM tree with the shared parser,
// (4) runs the decision algorithms, and (5) marks the stripped cookies
// useful when the difference is attributed to them. Per-site training state
// tracks when the useful marks are "relatively stable", after which the
// process turns itself off; it resumes automatically when new cookies
// appear.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "cookies/record.h"
#include "core/decision.h"
#include "core/explain.h"
#include "obs/audit.h"
#include "store/state_sink.h"
#include "util/stats.h"

namespace cookiepicker::core {

enum class CookieGroupMode {
  // The paper's experiments: the hidden request strips *every* persistent
  // cookie the regular request carried, and a detected difference marks the
  // whole group (which over-marks co-sent trackers — P5/P6 in Table 2).
  AllPersistent,
  // Extension (Section 7 future work): strip one unmarked persistent cookie
  // per view, round-robin, so each cookie is judged individually. Slower to
  // train, immune to co-marking.
  PerCookie,
  // Extension: group testing by binary search. Start from the full unmarked
  // set; when a tested group causes a difference, split it and test the
  // halves on subsequent views. Isolates each useful cookie in O(log n)
  // extra views instead of PerCookie's O(n), still without co-marking
  // (groups of size one are the only ones that mark).
  Bisection,
};

// How a detected difference is pinned on an individual cookie.
enum class AttributionMode {
  // Pre-existing behavior, byte-identical to builds that predate the tier:
  // group semantics alone decide what marks (AllPersistent over-marks,
  // Bisection isolates in O(log n) extra hidden rounds).
  Off,
  // Taint-assisted O(1) attribution. Every view strips *all* unmarked
  // persistent candidates at once; when the decision detects a difference,
  // the taint stamps on the difference rows (from the origin's provenance
  // map, requested out of band) nominate the responsible cookie directly,
  // and a single targeted strip of just that cookie confirms the nomination
  // before anything marks. Ambiguous taint (several candidate labels on the
  // difference) degrades to one confirm strip per implicated candidate —
  // never a blind group mark — and absent or overflowed taint marks
  // nothing. Requires a provenance-aware origin and the browser's
  // want-provenance opt-in; without them every step falls back harmlessly.
  Provenance,
};

struct ForcumConfig {
  DecisionConfig decision;
  CookieGroupMode groupMode = CookieGroupMode::AllPersistent;
  AttributionMode attribution = AttributionMode::Off;
  // Training turns off after this many consecutive page views with no new
  // cookies and no new useful marks.
  int stableViewThreshold = 10;
  // Extension (countering the Section 5.3 evasion): before acting on a
  // detected difference, fetch a *second* hidden copy with the same cookie
  // group stripped and require the two hidden copies to agree. A server
  // that cloaks probe responses — or a page whose dynamics caused the
  // difference — fails the consistency check and no marking happens.
  // Off by default for paper fidelity.
  bool consistencyReprobe = false;
};

struct ForcumStepReport {
  bool trainingActive = false;
  bool hiddenRequestSent = false;
  DecisionResult decision;
  std::vector<cookies::CookieKey> testedGroup;
  std::vector<cookies::CookieKey> newlyMarked;
  // Set when the consistency re-probe vetoed a marking: the two hidden
  // copies disagreed with each other (server cloaking or page dynamics).
  bool inconsistentHiddenCopies = false;
  // Whether the re-probe ran, and how the two hidden copies compared.
  bool reprobeRan = false;
  DecisionResult reprobeAgreement;
  double hiddenLatencyMs = 0.0;
  // The paper's "CookiePicker Duration": hidden round trip + DOM build +
  // difference detection, i.e. everything from issuing the hidden request
  // to the usefulness decision.
  double durationMs = 0.0;
  // Graceful degradation: the step could not produce a trustworthy
  // regular/hidden pair (error container page, hidden fetch exhausted its
  // retries, or the consistency re-probe did). A skipped step marks
  // nothing, advances no FORCUM counters, and leaves the quiet streak
  // untouched — faults must not train a host toward "stable".
  bool skipped = false;
  std::string skipReason;  // "container-error", "hidden-degraded:...", ...
  // Hidden-fetch network attempts this step spent, retries included.
  int hiddenAttempts = 0;

  // --- attribution tier (AttributionMode::Provenance only) -----------------
  // The step entered the attribution path (a difference was detected with
  // attribution on).
  bool attributionRan = false;
  // Cookie name the taint intersection nominated; empty when taint was
  // ambiguous (several candidates) or unusable (no map, no tainted
  // difference rows, label overflow).
  std::string attributedCookie;
  // A targeted confirm strip upheld a nomination and marked its cookie.
  bool attributionConfirmed = false;
  // Targeted single-cookie confirm fetches issued this step.
  int attributionConfirmStrips = 0;
  // Taint implicated more than one tested candidate.
  bool attributionAmbiguous = false;
  // Why attribution could not nominate ("no-provenance", "no-taint",
  // "label-overflow", "confirm-degraded:..."), empty otherwise.
  std::string attributionFallback;
};

class ForcumEngine {
 public:
  explicit ForcumEngine(browser::Browser& browser, ForcumConfig config = {});

  // The extension's page-load hook. Runs one FORCUM step for the page's
  // host (during user think time, so the user never waits on it).
  ForcumStepReport onPageView(const browser::PageView& view);

  bool isTrainingActive(const std::string& host) const;
  // Whether a view of `host` loaded now may reach a regular-vs-hidden
  // comparison: training is active and the jar already holds a persistent
  // cookie for the host, so the container request can carry one (a first
  // view carries none, and a warm knowledge import turns training off
  // before the step). A guess made before the visit: a view it misses gets
  // its snapshot built when the comparison needs it (Browser::snapshotOf).
  bool mayCompare(const std::string& host) const;
  // Manual restart ("turned on ... manually by a user if she wants to
  // continue the training process").
  void resumeTraining(const std::string& host);

  struct SiteState {
    bool trainingActive = true;
    int totalViews = 0;
    int hiddenRequests = 0;
    int consecutiveQuietViews = 0;
    std::set<cookies::CookieKey> knownPersistent;
    // Keys whose useful mark came from a confirmed provenance attribution
    // (or was imported as such from shared knowledge). Serialized as an
    // optional trailing field — present only when non-empty, so
    // attribution-off state blobs keep their pre-tier bytes.
    std::set<cookies::CookieKey> attributedUseful;
    util::SampleSet detectionTimesMs;
    util::SampleSet durationsMs;
  };
  // Null if the host has never been visited.
  const SiteState* siteState(const std::string& host) const;
  // Every host with training state, in map (sorted) order.
  std::vector<std::string> knownHosts() const;

  // --- shared-knowledge seam -----------------------------------------------
  // Adopts a crowd verdict for `host`: training turns off with the merged
  // counters (max-joined into whatever this session already saw) and the
  // shared cookie keys become the known-persistent baseline — so a cookie
  // the crowd already knows does NOT resume training when it appears on a
  // later page, while a genuinely novel one still does (the honest paper
  // path stays the fallback). Emits the site line to the state sink like
  // every other transition.
  // `attributed` carries the crowd's attribution-confirmed marks (empty for
  // entries from attribution-off contributors); the import keeps them so a
  // warm site re-exports the higher-confidence evidence it arrived with.
  void importSharedSite(const std::string& host, int totalViews,
                        int hiddenRequests, int quietViews,
                        const std::set<cookies::CookieKey>& knownPersistent,
                        const std::set<cookies::CookieKey>& attributed = {});

  const ForcumConfig& config() const { return config_; }
  browser::Browser& browser() { return browser_; }

  // --- persistence ---------------------------------------------------------
  // Serializes per-site training state (activity flag, view counters, known
  // cookie keys) to a line-oriented text format; timing samples are not
  // persisted (they are experiment instrumentation, not training state).
  std::string serializeState() const;
  // Replaces all per-site state with the serialized form. Malformed lines
  // are skipped.
  void restoreState(const std::string& text);

  // --- durability ----------------------------------------------------------
  // Installs the sink training transitions are described to: one
  // CounterTransition per page view / training resume (the site's full
  // serialized line — absolute state, idempotent replay) plus an
  // informational VerdictApplied per Figure-5 decision. Null (the default)
  // emits nothing.
  void setStateSink(store::StateSink* sink) { sink_ = sink; }

 private:
  SiteState& stateFor(const std::string& host);
  ForcumStepReport runStep(const browser::PageView& view, SiteState& state);
  // Emits the site's serialized line to the state sink (no-op when null).
  void emitSiteState(const std::string& host, const SiteState& state);

  // Chooses the cookie group the hidden request strips on this view.
  std::set<cookies::CookieKey> selectGroup(
      const std::string& host,
      const std::vector<const cookies::CookieRecord*>& candidates);
  // Bisection bookkeeping after a decision.
  void onBisectionOutcome(const std::string& host,
                          const std::vector<cookies::CookieKey>& group,
                          bool causedByCookies);
  // Provenance attribution: taint-nominate the responsible cookie(s) from
  // the difference rows, confirm each nomination with a targeted
  // single-cookie strip, and mark only what confirms. `regular` is the
  // view's snapshot the decision read. Fills the report's attribution
  // fields and report.newlyMarked.
  void runAttribution(const browser::PageView& view,
                      const dom::TreeSnapshot& regular,
                      const browser::HiddenFetchResult& hidden,
                      SiteState& state, ForcumStepReport& report);

  browser::Browser& browser_;
  ForcumConfig config_;
  // Reused by every detection step this engine runs (steps are serialized
  // by the CookiePicker facade lock; fleet workers own distinct engines).
  DetectionScratch scratch_;
  // Reused by the audit evidence of cookie-caused steps, under the same
  // serialization. Separate from scratch_, which a re-probe's agreement
  // decision overwrites before the evidence runs.
  EvidenceScratch evidenceScratch_;
  std::map<std::string, SiteState> sites_;
  // Round-robin cursor for PerCookie mode, per host.
  std::map<std::string, std::size_t> perCookieCursor_;
  // Pending candidate groups for Bisection mode, per host (front = next).
  std::map<std::string, std::deque<std::vector<cookies::CookieKey>>>
      bisectionQueue_;
  // Audit record built by runStep; the post-step counter transitions
  // (quietAfter, trainingActiveAfter) only exist back in onPageView, which
  // finalizes and appends it. Engines are serialized per session, so one
  // pending slot suffices.
  std::optional<obs::AuditRecord> pendingAudit_;
  // Durable-state sink; engines are serialized by the CookiePicker facade
  // lock, so plain pointer access is safe.
  store::StateSink* sink_ = nullptr;
};

// The audit-trail rendering of a DecisionMode ("both", "tree-only",
// "text-only", "either") — the inverse of what figure5Verdict consumes.
const char* decisionModeName(DecisionMode mode);

}  // namespace cookiepicker::core
