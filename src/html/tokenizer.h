// HTML tokenizer.
//
// A lenient, single-pass tokenizer in the spirit of the WHATWG algorithm but
// much smaller: it produces the token stream both tree producers consume —
// the streaming snapshot builder (stream_snapshot.h) and the reference tree
// builder of the test oracle (tests/oracle/). Robust against malformed
// markup — unterminated tags, bare '<', stray '>', bogus comments —
// because the paper's pipeline depends on both page versions being
// tokenized by the *same* forgiving code path.
//
// Tokens are views. A token's name, text and attribute names/values are
// std::string_views into the input whenever the bytes are used as written.
// Bytes that must change — uppercase tag and attribute names, text and
// attribute values carrying character references — are written to scratch
// owned by the tokenizer. Every view is valid until the next call to
// next(); a consumer copies what it keeps. Source-slice text (flagged by
// Token::textInInput) additionally lives as long as the input does.
// Inner loops (text runs, tag/attribute names, attribute values) advance via
// the memchr/SWAR scanners in util/scan.h instead of byte-at-a-time walks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "html/tags.h"

namespace cookiepicker::html {

enum class TokenType { Doctype, StartTag, EndTag, Text, Comment, EndOfFile };

struct TokenAttribute {
  std::string_view name;   // lowercase
  std::string_view value;  // entity-decoded
};

struct Token {
  TokenType type = TokenType::EndOfFile;
  std::string_view name;  // tag or doctype name (lowercase)
  std::string_view text;  // text/comment data (entity-decoded)
  // Start tags only; the first occurrence of a repeated name wins.
  std::vector<TokenAttribute> attributes;
  bool selfClosing = false;  // "<br/>"
  // `text` is a slice of the input, not tokenizer scratch: no character
  // reference was decoded, so it stays valid as long as the input does.
  bool textInInput = false;
  // Byte offset of the token's first source byte (the '<' of markup, the
  // first character of a text run). Lets a consumer holding an out-of-band
  // byte-range map — the provenance tier — look up per-token metadata
  // without a second scan.
  std::size_t sourceStart = 0;
};

class Tokenizer {
 public:
  explicit Tokenizer(std::string_view input = {}) { reset(input); }

  // Restarts on a new input, keeping the scratch capacity.
  void reset(std::string_view input);

  // Refills `out` with the next token, reusing its attribute capacity.
  // Returns false (and sets type to EndOfFile) once exhausted. The views in
  // `out` are valid until the next call.
  bool next(Token& out);

  // Advances to the next start tag that referenceKind() classifies as
  // carrying a reference, fills `out` with it as next() would (attributes
  // lowered and decoded), and returns its kind; ReferenceKind::None once
  // the input is exhausted. Everything in between is skipped by the
  // positions next() would reach — text runs, raw-text content, end tags,
  // comments, doctypes and other start tags — with no entity decoding, no
  // token fill, and attributes walked only to find where a tag ends.
  ReferenceKind nextReferenceTag(Token& out);

 private:
  void textToken(std::size_t start, std::size_t end, Token& out);
  void scanMarkup(Token& out);        // called at '<'
  void scanComment(Token& out);       // called after "<!--"
  void scanBogusComment(Token& out);  // "<!foo", "<?xml" etc.
  void scanDoctype(Token& out);       // after "<!DOCTYPE"
  void scanTag(bool isEndTag, Token& out);
  // Past the tag name: the attributes (kept in `token` when `keep`), the
  // closing '>', the self-closing mark and the raw-text switch.
  void finishTag(bool isEndTag, bool keepAttributes, Token& token);
  void scanAttributes(Token& token, bool keep);
  void rawText(Token& out);
  // Where the current raw-text content ends: the '<' of its end tag, or
  // the end of the input.
  std::size_t rawTextEnd() const;
  // `raw` lowercased: the input slice itself when it has no uppercase
  // byte, else a copy in nameScratch_.
  std::string_view lowered(std::string_view raw);
  // `raw` entity-decoded into textScratch_ when it holds an '&'.
  void setDecodedText(std::string_view raw, Token& out);
  // Whether `slice` (a slice of the input at or after every earlier probe)
  // holds an '&'.
  bool hasAmpersand(std::string_view slice);

  std::string_view input_;
  std::size_t position_ = 0;
  // When a <script>/<style>/<textarea>/<title> start tag is emitted, the
  // tokenizer switches to raw-text mode until the matching end tag. Points
  // at a string literal, never at scratch.
  std::string_view rawTextEndTag_;
  // First '&' at or after the last hasAmpersand probe (input size if none):
  // a page with few character references pays one memchr for all of its
  // text runs and attribute values.
  std::size_t nextAmpersand_ = 0;

  // Scratch for transformed bytes, one buffer per token field so a view
  // into one is never moved by a write to another.
  std::string nameScratch_;
  std::string textScratch_;
  // Lowered names and decoded values of one tag's attributes. Filled only
  // after the whole tag is scanned, then viewed, so its addresses stay put
  // for the rest of the tag.
  std::string attributeScratch_;
  struct AttributeFixup {
    std::uint32_t index = 0;
    bool lowerName = false;
    bool decodeValue = false;
    // Where the transformed bytes landed in attributeScratch_.
    std::size_t nameAt = 0;
    std::size_t valueAt = 0;
    std::size_t valueSize = 0;
  };
  std::vector<AttributeFixup> fixups_;
};

// Tags whose content is raw text (no nested markup, no entity decoding for
// script/style).
bool isRawTextTag(std::string_view tagName);

}  // namespace cookiepicker::html
