// HTML fragment builders for synthetic pages.
//
// Every builder appends finished markup and takes an RNG so content is
// deterministic per stream: page skeletons pass the per-(site,path) stable
// stream, noise sources pass the per-fetch stream.
#pragma once

#include <string>
#include <string_view>

#include "server/page.h"
#include "util/rng.h"

namespace cookiepicker::server {

// <section class="content"><h2>Title</h2><p>...</p>... with a nested widget
// block deep enough that its ad slots sit below RSTM's default level cut.
// The rotating headline's text and each (initially empty) ad slot are holes
// of `block`.
void appendContentSection(Block& block, util::Pcg32& rng, int paragraphs,
                          int adSlots, bool rotatingHeadline);

// <div class="sidebar"><h3>title</h3><ul><li><a>..</a></li>...</ul></div>
void appendSidebar(std::string& out, util::Pcg32& rng, std::string_view title,
                   int itemCount);

// A sign-up form (labels, inputs, submit) — the content of a sign-up wall.
void appendSignUpForm(std::string& out, util::Pcg32& rng);

// <div class="results"><ol><li>result</li> x count</ol></div>
void appendResultList(std::string& out, util::Pcg32& rng, int count);

// A promo/hero block; `variant` selects between structurally different
// layouts (used by LayoutShuffleNoise to create upper-level dynamics).
void appendPromoBlock(std::string& out, util::Pcg32& rng, int variant);

}  // namespace cookiepicker::server
