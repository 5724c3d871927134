// One host's training session — the paper's unit of work: FORCUM runs over
// the host's page views until its useful marks are stable, then
// CookiePicker blocks and purges the persistent cookies it left unmarked.
// The session owns its SimClock, a Browser (jar included) on the
// recommended policy seeded with `seed ^ fnv1a64(host)`, and a CookiePicker
// wired to the shared knowledge, so its bytes are a pure function of (seed,
// host, views, pages) whatever transport or thread runs it. The fleet and
// the verdict service both run their sessions through it.
#pragma once

#include <cstdint>
#include <string>

#include "browser/browser.h"
#include "core/cookie_picker.h"
#include "knowledge/knowledge_base.h"
#include "net/transport.h"
#include "util/clock.h"

namespace cookiepicker::core {

// What every session runner configures; FleetConfig and
// VerdictServiceConfig extend it.
struct SessionConfig {
  std::uint64_t seed = 2007;
  CookiePickerConfig picker;
  // Crowd-shared site knowledge (optional, not owned); replaces
  // picker.sharedKnowledge. The session consults it (a warm site skips
  // straight to enforce) and publishes its export back at the end.
  knowledge::KnowledgeBase* knowledge = nullptr;
};

class Session {
 public:
  Session(net::Transport& transport, std::string host,
          const SessionConfig& config);

  // Page view `view` of the host's cycle: /page<view % max(1, pages)>.
  ForcumStepReport browse(int view, int pages);
  // Views 0..views-1, then every stable host enforced and the knowledge
  // published (a no-op without a shared base).
  void run(int views, int pages);

  const std::string& host() const { return host_; }
  browser::Browser& browser() { return browser_; }
  CookiePicker& picker() { return picker_; }

 private:
  std::string host_;
  util::SimClock clock_;
  browser::Browser browser_;
  CookiePicker picker_;
};

}  // namespace cookiepicker::core
