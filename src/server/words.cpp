#include "server/words.h"

#include <array>
#include <string_view>

namespace cookiepicker::server {

namespace {

constexpr std::array<std::string_view, 96> kWords = {
    "market",  "vendor",   "catalog",  "review",   "digital", "archive",
    "journal", "network",  "forum",    "gallery",  "studio",  "academy",
    "library", "garden",   "kitchen",  "travel",   "finance", "health",
    "science", "culture",  "history",  "nature",   "music",   "cinema",
    "sports",  "weather",  "recipe",   "project",  "design",  "report",
    "update",  "feature",  "story",    "article",  "column",  "editor",
    "reader",  "member",   "account",  "profile",  "setting", "option",
    "search",  "result",   "product",  "service",  "support", "contact",
    "about",   "policy",   "partner",  "channel",  "stream",  "signal",
    "record",  "ticket",   "basket",   "order",    "invoice", "payment",
    "deliver", "express",  "premium",  "classic",  "modern",  "global",
    "local",   "daily",    "weekly",   "monthly",  "annual",  "special",
    "general", "advanced", "basic",    "complete", "popular", "trusted",
    "quality", "expert",   "friendly", "reliable", "dynamic", "creative",
    "eastern", "western",  "northern", "southern", "central", "coastal",
    "urban",   "rural",    "national", "regional", "public",  "private"};

// Generated text is emitted into HTML unescaped, and capitalized by ASCII
// arithmetic: every word is lower-case ASCII letters.
static_assert([] {
  for (const std::string_view word : kWords) {
    for (const char ch : word) {
      if (ch < 'a' || ch > 'z') return false;
    }
  }
  return true;
}());

std::string_view pickWord(util::Pcg32& rng) {
  return kWords[rng.uniform(0, static_cast<std::uint32_t>(kWords.size() - 1))];
}

void capitalizeAt(std::string& out, std::size_t index) {
  out[index] = static_cast<char>(out[index] - 'a' + 'A');
}

}  // namespace

void appendWord(std::string& out, util::Pcg32& rng) { out += pickWord(rng); }

void appendPhrase(std::string& out, util::Pcg32& rng, int count,
                  bool sentence) {
  const std::size_t start = out.size();
  for (int i = 0; i < count; ++i) {
    if (i > 0) out += ' ';
    out += pickWord(rng);
  }
  if (count > 0) capitalizeAt(out, start);
  if (sentence) out += '.';
}

void appendParagraph(std::string& out, util::Pcg32& rng, int sentences) {
  for (int i = 0; i < sentences; ++i) {
    if (i > 0) out += ' ';
    appendPhrase(out, rng, static_cast<int>(rng.uniform(6, 14)),
                 /*sentence=*/true);
  }
}

void appendTitle(std::string& out, util::Pcg32& rng) {
  const int count = static_cast<int>(rng.uniform(2, 5));
  for (int i = 0; i < count; ++i) {
    if (i > 0) out += ' ';
    const std::size_t start = out.size();
    out += pickWord(rng);
    capitalizeAt(out, start);
  }
}

void appendAdCopy(std::string& out, util::Pcg32& rng) {
  const int percent = static_cast<int>(rng.uniform(5, 70));
  // The second word is drawn first, the order in which GCC evaluated the
  // single concatenation expression that generated the committed pages.
  const std::string_view second = pickWord(rng);
  const std::string_view first = pickWord(rng);
  out += "SAVE ";
  out += std::to_string(percent);
  out += "% on ";
  out += first;
  out += ' ';
  out += second;
  out += " today";
}

}  // namespace cookiepicker::server
