// Owned copies of the tokenizer's view tokens, for tests that collect a
// whole token stream and inspect it afterwards. Production consumers read
// each token's views before asking for the next; a collected stream must
// copy, because every view dies with the next token.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "html/tokenizer.h"

namespace cookiepicker::html {

struct OwnedAttribute {
  std::string name;
  std::string value;
};

struct OwnedToken {
  TokenType type = TokenType::EndOfFile;
  std::string name;
  std::string text;
  std::vector<OwnedAttribute> attributes;
  bool selfClosing = false;
  bool textInInput = false;
  std::size_t sourceStart = 0;
};

// Tokenizes the whole input (excluding the EndOfFile token).
inline std::vector<OwnedToken> tokenizeAll(std::string_view input) {
  Tokenizer tokenizer(input);
  Token token;
  std::vector<OwnedToken> tokens;
  while (tokenizer.next(token)) {
    OwnedToken owned;
    owned.type = token.type;
    owned.name = token.name;
    owned.text = token.text;
    for (const TokenAttribute& attribute : token.attributes) {
      owned.attributes.push_back(
          {std::string(attribute.name), std::string(attribute.value)});
    }
    owned.selfClosing = token.selfClosing;
    owned.textInInput = token.textInInput;
    owned.sourceStart = token.sourceStart;
    tokens.push_back(std::move(owned));
  }
  return tokens;
}

}  // namespace cookiepicker::html
