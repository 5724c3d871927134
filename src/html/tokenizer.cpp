#include "html/tokenizer.h"

#include "html/entities.h"
#include "util/scan.h"
#include "util/strings.h"

namespace cookiepicker::html {

namespace {

bool isTagNameStart(char ch) {
  // ASCII letters: std::isalpha in the "C" locale, without the call.
  return static_cast<unsigned char>((ch | 0x20) - 'a') < 26;
}

bool isWhitespace(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n' || ch == '\f';
}

bool hasUpperAscii(std::string_view text) {
  for (const char ch : text) {
    if (ch >= 'A' && ch <= 'Z') return true;
  }
  return false;
}

void appendLowerAscii(std::string& output, std::string_view text) {
  for (const char ch : text) {
    output.push_back(ch >= 'A' && ch <= 'Z' ? static_cast<char>(ch - 'A' + 'a')
                                            : ch);
  }
}

// The literal raw-text end tag for a lowercase tag name, or empty.
std::string_view rawTextEndTagFor(std::string_view tagName) {
  if (tagName.size() < 5 || (tagName[0] != 's' && tagName[0] != 't')) {
    return {};
  }
  for (const std::string_view tag : {"script", "style", "textarea", "title"}) {
    if (tagName == tag) return tag;
  }
  return {};
}

}  // namespace

bool isRawTextTag(std::string_view tagName) {
  return !rawTextEndTagFor(tagName).empty();
}

void Tokenizer::reset(std::string_view input) {
  input_ = input;
  position_ = 0;
  rawTextEndTag_ = {};
  nextAmpersand_ = util::findByte(input_, 0, '&');
}

bool Tokenizer::hasAmpersand(std::string_view slice) {
  if (slice.empty()) return false;
  const auto start = static_cast<std::size_t>(slice.data() - input_.data());
  // Probes only move forward, so a cached '&' at or after the last probe
  // start is still the first one at or after this start.
  if (nextAmpersand_ < start) {
    nextAmpersand_ = util::findByte(input_, start, '&');
  }
  return nextAmpersand_ < start + slice.size();
}

std::string_view Tokenizer::lowered(std::string_view raw) {
  if (!hasUpperAscii(raw)) return raw;
  nameScratch_.clear();
  appendLowerAscii(nameScratch_, raw);
  return nameScratch_;
}

void Tokenizer::setDecodedText(std::string_view raw, Token& out) {
  if (!hasAmpersand(raw)) {
    out.text = raw;
    out.textInInput = true;
    return;
  }
  textScratch_.clear();
  decodeEntitiesInto(raw, textScratch_);
  out.text = textScratch_;
}

bool Tokenizer::next(Token& out) {
  out.type = TokenType::EndOfFile;
  out.name = {};
  out.text = {};
  out.attributes.clear();
  out.selfClosing = false;
  out.textInInput = false;
  out.sourceStart = position_;

  if (!rawTextEndTag_.empty()) {
    rawText(out);
    rawTextEndTag_ = {};
    return true;
  }
  if (position_ >= input_.size()) {
    return false;  // EndOfFile
  }
  if (input_[position_] == '<') {
    // '<' not followed by tag-like syntax is literal text.
    if (position_ + 1 < input_.size()) {
      const char following = input_[position_ + 1];
      if (isTagNameStart(following) || following == '/' || following == '!' ||
          following == '?') {
        scanMarkup(out);
        return true;
      }
    }
    // Lone '<' at end of input or before a non-tag character: treat as text.
    const std::size_t start = position_;
    position_ = util::findByte(input_, position_ + 1, '<');
    textToken(start, position_, out);
    return true;
  }
  const std::size_t start = position_;
  position_ = util::findByte(input_, position_, '<');
  textToken(start, position_, out);
  return true;
}

void Tokenizer::textToken(std::size_t start, std::size_t end, Token& out) {
  out.type = TokenType::Text;
  setDecodedText(input_.substr(start, end - start), out);
}

void Tokenizer::scanMarkup(Token& out) {
  // position_ is at '<'.
  const char following = input_[position_ + 1];
  if (following == '!') {
    if (input_.compare(position_, 4, "<!--") == 0) {
      position_ += 4;
      scanComment(out);
      return;
    }
    // "<!DOCTYPE" (any case)?
    if (input_.size() - position_ >= 9) {
      const std::string_view candidate = input_.substr(position_ + 2, 7);
      if (util::equalsIgnoreCase(candidate, "doctype")) {
        position_ += 9;
        scanDoctype(out);
        return;
      }
    }
    position_ += 2;
    scanBogusComment(out);
    return;
  }
  if (following == '?') {
    // Processing instruction — browsers treat it as a bogus comment.
    position_ += 2;
    scanBogusComment(out);
    return;
  }
  if (following == '/') {
    position_ += 2;
    scanTag(/*isEndTag=*/true, out);
    return;
  }
  position_ += 1;
  scanTag(/*isEndTag=*/false, out);
}

void Tokenizer::scanComment(Token& out) {
  out.type = TokenType::Comment;
  out.textInInput = true;
  const std::size_t closing = input_.find("-->", position_);
  if (closing == std::string_view::npos) {
    out.text = input_.substr(position_);
    position_ = input_.size();
  } else {
    out.text = input_.substr(position_, closing - position_);
    position_ = closing + 3;
  }
}

void Tokenizer::scanBogusComment(Token& out) {
  out.type = TokenType::Comment;
  out.textInInput = true;
  const std::size_t closing = util::findByte(input_, position_, '>');
  if (closing >= input_.size()) {
    out.text = input_.substr(position_);
    position_ = input_.size();
  } else {
    out.text = input_.substr(position_, closing - position_);
    position_ = closing + 1;
  }
}

void Tokenizer::scanDoctype(Token& out) {
  out.type = TokenType::Doctype;
  while (position_ < input_.size() && isWhitespace(input_[position_])) {
    ++position_;
  }
  const std::size_t start = position_;
  while (position_ < input_.size() && input_[position_] != '>' &&
         !isWhitespace(input_[position_])) {
    ++position_;
  }
  out.name = lowered(input_.substr(start, position_ - start));
  const std::size_t closing = util::findByte(input_, position_, '>');
  position_ = closing >= input_.size() ? input_.size() : closing + 1;
}

ReferenceKind Tokenizer::nextReferenceTag(Token& out) {
  // The positions next() reaches, without its tokens: a text run ends at
  // the next '<'; a '<' that starts no markup is text; comments, doctypes,
  // bogus comments and end tags all end at their first '>' (none of their
  // prefixes or names can hold one).
  const auto skipPast = [this](std::size_t from, std::string_view close) {
    const std::size_t closing = close.size() == 1
                                    ? util::findByte(input_, from, close[0])
                                    : input_.find(close, from);
    position_ = closing >= input_.size() ? input_.size()
                                         : closing + close.size();
  };
  while (true) {
    if (!rawTextEndTag_.empty()) {
      position_ = rawTextEnd();
      rawTextEndTag_ = {};
    }
    const std::size_t lt = util::findByte(input_, position_, '<');
    if (lt + 1 >= input_.size()) {
      position_ = input_.size();
      out.type = TokenType::EndOfFile;
      return ReferenceKind::None;
    }
    const char following = input_[lt + 1];
    if (following == '!') {
      if (input_.compare(lt, 4, "<!--") == 0) {
        skipPast(lt + 4, "-->");
      } else {
        skipPast(lt + 2, ">");
      }
      continue;
    }
    if (following == '?' || following == '/') {
      skipPast(lt + 2, ">");
      continue;
    }
    if (!isTagNameStart(following)) {
      position_ = lt + 1;
      continue;
    }
    out.type = TokenType::StartTag;
    out.text = {};
    out.attributes.clear();
    out.selfClosing = false;
    out.textInInput = false;
    out.sourceStart = lt;
    position_ = lt + 1;
    const std::size_t nameStart = position_;
    position_ = util::TagNameScanner::find(input_, position_);
    out.name = lowered(input_.substr(nameStart, position_ - nameStart));
    const ReferenceKind kind = referenceKind(out.name);
    finishTag(/*isEndTag=*/false, kind != ReferenceKind::None, out);
    if (kind != ReferenceKind::None) return kind;
  }
}

void Tokenizer::scanTag(bool isEndTag, Token& token) {
  token.type = isEndTag ? TokenType::EndTag : TokenType::StartTag;

  const std::size_t nameStart = position_;
  position_ = util::TagNameScanner::find(input_, position_);
  token.name = lowered(input_.substr(nameStart, position_ - nameStart));
  finishTag(isEndTag, /*keepAttributes=*/true, token);
}

void Tokenizer::finishTag(bool isEndTag, bool keepAttributes, Token& token) {
  if (!isEndTag) {
    scanAttributes(token, keepAttributes);
  }

  // Skip to the closing '>' (end tags may carry junk we ignore) — usually
  // the very next byte. A '/' immediately before it marks the tag
  // self-closing, matching the scalar skip loop this scan replaced: the
  // first '>' is at `closing`, so the only place "/>" can occur before it is
  // closing - 1.
  const std::size_t closing =
      position_ < input_.size() && input_[position_] == '>'
          ? position_
          : util::findByte(input_, position_, '>');
  if (!isEndTag && closing < input_.size() && closing > position_ &&
      input_[closing - 1] == '/') {
    token.selfClosing = true;
  }
  position_ = closing >= input_.size() ? input_.size() : closing + 1;

  if (token.type == TokenType::StartTag && !token.selfClosing) {
    rawTextEndTag_ = rawTextEndTagFor(token.name);
  }
}

void Tokenizer::scanAttributes(Token& token, bool keep) {
  fixups_.clear();
  while (position_ < input_.size()) {
    while (position_ < input_.size() && isWhitespace(input_[position_])) {
      ++position_;
    }
    if (position_ >= input_.size()) break;
    const char ch = input_[position_];
    if (ch == '>') break;
    if (ch == '/') {
      if (position_ + 1 < input_.size() && input_[position_ + 1] == '>') {
        token.selfClosing = true;
        ++position_;  // leave '>' for scanTag
        break;
      }
      ++position_;  // stray '/': skip
      continue;
    }

    // Attribute name and value as raw input slices; lowering and decoding
    // happen once the tag is complete.
    const std::size_t nameStart = position_;
    position_ = util::AttrNameScanner::find(input_, position_);
    const std::string_view name =
        input_.substr(nameStart, position_ - nameStart);
    if (name.empty()) {
      ++position_;  // defensive: avoid infinite loop on weird input
      continue;
    }

    std::string_view value;
    while (position_ < input_.size() && isWhitespace(input_[position_])) {
      ++position_;
    }
    if (position_ < input_.size() && input_[position_] == '=') {
      ++position_;
      while (position_ < input_.size() && isWhitespace(input_[position_])) {
        ++position_;
      }
      if (position_ < input_.size() &&
          (input_[position_] == '"' || input_[position_] == '\'')) {
        const char quote = input_[position_];
        ++position_;
        const std::size_t valueStart = position_;
        position_ = util::findByte(input_, position_, quote);
        value = input_.substr(valueStart, position_ - valueStart);
        if (position_ < input_.size()) ++position_;  // closing quote
      } else {
        const std::size_t valueStart = position_;
        position_ = util::UnquotedValueScanner::find(input_, position_);
        value = input_.substr(valueStart, position_ - valueStart);
      }
    }
    if (!keep) continue;
    // First occurrence wins, as in browsers. Lowering is ASCII-only, so a
    // case-insensitive compare of the raw names equals a compare of the
    // lowered ones.
    bool duplicate = false;
    for (const TokenAttribute& earlier : token.attributes) {
      if (earlier.name.size() == name.size() &&
          util::equalsIgnoreCase(earlier.name, name)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    const bool lowerName = hasUpperAscii(name);
    const bool decodeValue = hasAmpersand(value);
    if (lowerName || decodeValue) {
      fixups_.push_back({static_cast<std::uint32_t>(token.attributes.size()),
                         lowerName, decodeValue});
    }
    token.attributes.push_back({name, value});
  }
  if (fixups_.empty()) return;

  // Write every transformed byte first, then take the views: the scratch
  // may reallocate while it grows, never after.
  attributeScratch_.clear();
  for (AttributeFixup& fixup : fixups_) {
    const TokenAttribute& attribute = token.attributes[fixup.index];
    if (fixup.lowerName) {
      fixup.nameAt = attributeScratch_.size();
      appendLowerAscii(attributeScratch_, attribute.name);
    }
    if (fixup.decodeValue) {
      fixup.valueAt = attributeScratch_.size();
      decodeEntitiesInto(attribute.value, attributeScratch_);
      fixup.valueSize = attributeScratch_.size() - fixup.valueAt;
    }
  }
  const char* scratch = attributeScratch_.data();
  for (const AttributeFixup& fixup : fixups_) {
    TokenAttribute& attribute = token.attributes[fixup.index];
    if (fixup.lowerName) {
      attribute.name = {scratch + fixup.nameAt, attribute.name.size()};
    }
    if (fixup.decodeValue) {
      attribute.value = {scratch + fixup.valueAt, fixup.valueSize};
    }
  }
}

std::size_t Tokenizer::rawTextEnd() const {
  // Everything up to "</tagName" (case-insensitive).
  const std::string_view tagName = rawTextEndTag_;
  const std::size_t needle = 2 + tagName.size();
  std::size_t search = position_;
  while (search < input_.size()) {
    const std::size_t lt = util::findByte(input_, search, '<');
    if (lt >= input_.size()) break;
    if (lt + needle <= input_.size() && input_[lt + 1] == '/' &&
        util::equalsIgnoreCase(input_.substr(lt + 2, tagName.size()),
                               tagName)) {
      return lt;
    }
    search = lt + 1;
  }
  return input_.size();
}

void Tokenizer::rawText(Token& token) {
  const std::string_view tagName = rawTextEndTag_;
  const std::size_t contentEnd = rawTextEnd();
  token.type = TokenType::Text;
  const std::string_view content =
      input_.substr(position_, contentEnd - position_);
  // textarea/title content gets entity decoding; script/style does not.
  if (tagName == "textarea" || tagName == "title") {
    setDecodedText(content, token);
  } else {
    token.text = content;
    token.textInInput = true;
  }
  position_ = contentEnd;
}

}  // namespace cookiepicker::html
