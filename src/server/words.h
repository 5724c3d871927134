// Deterministic filler-text generation for synthetic pages.
//
// Pages need realistic-looking, seed-stable text so that (a) CVCE has real
// content sets to compare and (b) different sites/pages differ from each
// other while every fetch of the same page (absent deliberate dynamics)
// renders identically.
//
// Every generator appends to `out`, so page text goes straight into the
// response body. The vocabulary holds no HTML-special character (checked at
// compile time), so generated text needs no escaping.
#pragma once

#include <string>

#include "util/rng.h"

namespace cookiepicker::server {

// A lowercase pseudo-word ("lorem", "vendor", ...).
void appendWord(std::string& out, util::Pcg32& rng);

// `count` words separated by spaces, first letter capitalized, period
// appended when `sentence` is true.
void appendPhrase(std::string& out, util::Pcg32& rng, int count,
                  bool sentence = false);

// A paragraph of `sentences` sentences with 6-14 words each.
void appendParagraph(std::string& out, util::Pcg32& rng, int sentences);

// Title-case phrase of 2-5 words ("Vendor Catalog Review").
void appendTitle(std::string& out, util::Pcg32& rng);

// Short ad copy ("SAVE 20% on vendor catalog today"); deliberately
// distinctive so tests can assert where ad text went.
void appendAdCopy(std::string& out, util::Pcg32& rng);

}  // namespace cookiepicker::server
