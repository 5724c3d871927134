// Global string interners for the detection hot path.
//
// RSTM compares node symbols and CVCE buckets text by its element-name
// context path; doing either with std::string comparisons allocates and
// chases pointers in the innermost loops. The interners map each distinct
// tag name (SymbolInterner) and each distinct context path
// (ContextInterner) to a small dense integer exactly once, so the hot path
// works in integer compares. Both are process-global and thread-safe —
// fleet workers build snapshots concurrently — with a shared-lock fast path
// for the overwhelmingly common "already interned" case.
//
// Interned IDs are an in-memory identity only: they depend on first-touch
// order across threads and must never be serialized. All detection results
// derived from them are ID-order-independent (integer counts), which is why
// the fleet's byte-identical determinism invariant is unaffected.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cookiepicker::dom {

using SymbolId = std::uint32_t;
using ContextId = std::uint32_t;

class SymbolInterner {
 public:
  // Returns the stable ID for `name`, creating one on first sight.
  // Two names receive the same ID iff they are byte-identical.
  SymbolId intern(std::string_view name);

  // Reverse lookup (diagnostics only; takes the lock).
  std::string name(SymbolId id) const;

  std::size_t size() const;

 private:
  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, SymbolId, TransparentHash, std::equal_to<>>
      ids_;
  std::vector<std::string> names_;
};

// Interns element-name context paths structurally: a path is either the
// seeded root "tag" (comparison root is an element) or an extension
// "parent:tag". Distinct paths get distinct IDs; the empty path "" (used
// when the comparison root is not an element) is kEmpty. Mirrors the
// reference CVCE context strings one-to-one as long as tag names contain no
// ':' — true for everything the HTML tokenizer emits lowercase, and the
// differential test pins the equivalence.
class ContextInterner {
 public:
  static constexpr ContextId kEmpty = 0;

  // The single-component path "tag" (no leading separator).
  ContextId seed(SymbolId tag);
  // The path `parent` extended with ":tag". `parent` may be kEmpty, which
  // yields the reference path ":tag" — distinct from seed(tag)'s "tag".
  ContextId extend(ContextId parent, SymbolId tag);

  // Reverse lookup: the tag chain of `id`, root first, into `tags`
  // (cleared first). Returns true when the chain starts with a seed, false
  // when it hangs off kEmpty (kEmpty itself and unknown IDs give an empty
  // chain). Takes the lock once, so a deep chain costs one walk.
  bool tags(ContextId id, std::vector<SymbolId>& tags) const;

  std::size_t size() const;

 private:
  ContextId internKey(std::uint64_t key);

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::uint64_t, ContextId> ids_;
  std::vector<std::uint64_t> keys_{0};  // keys_[id]: id's packed key
};

SymbolInterner& globalSymbolInterner();
ContextInterner& globalContextInterner();

// Interns the common HTML tag names up front. The fleet calls this before
// spawning workers so the first pages of N concurrent sessions do not all
// serialize on the interner's write lock.
void warmGlobalInterners();

}  // namespace cookiepicker::dom
