#include "dom/interner.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

namespace cookiepicker::dom {

SymbolId SymbolInterner::intern(std::string_view name) {
  {
    std::shared_lock lock(mutex_);
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::string SymbolInterner::name(SymbolId id) const {
  std::shared_lock lock(mutex_);
  return id < names_.size() ? names_[id] : std::string();
}

std::size_t SymbolInterner::size() const {
  std::shared_lock lock(mutex_);
  return names_.size();
}

namespace {

// Packs (parent, seeded, tag) into the interner key. Seeded paths have no
// parent; extensions carry theirs. Context populations are tiny (one entry
// per distinct DOM path prefix), so 31 bits of parent is never a limit in
// practice — guard anyway rather than silently aliasing.
std::uint64_t packContextKey(ContextId parent, bool seeded, SymbolId tag) {
  if (parent >= (1U << 31)) {
    throw std::length_error("ContextInterner: parent id overflow");
  }
  const std::uint64_t high = (static_cast<std::uint64_t>(parent) << 1) |
                             (seeded ? 1U : 0U);
  return (high << 32) | tag;
}

}  // namespace

ContextId ContextInterner::seed(SymbolId tag) {
  return internKey(packContextKey(kEmpty, /*seeded=*/true, tag));
}

ContextId ContextInterner::extend(ContextId parent, SymbolId tag) {
  return internKey(packContextKey(parent, /*seeded=*/false, tag));
}

ContextId ContextInterner::internKey(std::uint64_t key) {
  {
    std::shared_lock lock(mutex_);
    const auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  const auto [it, inserted] =
      ids_.emplace(key, static_cast<ContextId>(keys_.size()));
  if (inserted) keys_.push_back(key);
  return it->second;
}

bool ContextInterner::tags(ContextId id, std::vector<SymbolId>& tags) const {
  tags.clear();
  std::shared_lock lock(mutex_);
  if (id >= keys_.size()) return false;
  bool seeded = false;
  while (id != kEmpty) {
    const std::uint64_t key = keys_[id];
    tags.push_back(static_cast<SymbolId>(key));
    seeded = ((key >> 32) & 1U) != 0;
    id = static_cast<ContextId>(key >> 33);
  }
  std::reverse(tags.begin(), tags.end());
  return seeded;
}

std::size_t ContextInterner::size() const {
  std::shared_lock lock(mutex_);
  return ids_.size();
}

SymbolInterner& globalSymbolInterner() {
  static SymbolInterner interner;
  return interner;
}

ContextInterner& globalContextInterner() {
  static ContextInterner interner;
  return interner;
}

void warmGlobalInterners() {
  static constexpr const char* kCommonNames[] = {
      "#document", "#text",  "#comment", "html",   "head",  "body",
      "title",     "meta",   "link",     "base",   "style", "script",
      "noscript",  "div",    "span",     "p",      "a",     "img",
      "ul",        "ol",     "li",       "table",  "tr",    "td",
      "th",        "thead",  "tbody",    "form",   "input", "select",
      "option",    "button", "h1",       "h2",     "h3",    "h4",
      "b",         "i",      "em",       "strong", "br",    "hr",
      "iframe",    "embed",  "label",    "textarea"};
  SymbolInterner& symbols = globalSymbolInterner();
  for (const char* name : kCommonNames) symbols.intern(name);
}

}  // namespace cookiepicker::dom
