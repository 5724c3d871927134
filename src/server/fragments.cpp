#include "server/fragments.h"

#include "server/words.h"

namespace cookiepicker::server {

void appendContentSection(Block& block, util::Pcg32& rng, int paragraphs,
                          int adSlots, bool rotatingHeadline) {
  std::string& out = block.html;
  out += "<section class=\"content\"><h2>";
  appendTitle(out, rng);
  out += "</h2>";
  if (rotatingHeadline) {
    out += "<h3 class=\"rotating-headline\">";
    std::string headline;
    appendPhrase(headline, rng, 5);
    block.addHole(HoleKind::Headline, std::move(headline));
    out += "</h3>";
  }
  for (int p = 0; p < paragraphs; ++p) {
    out += "<p>";
    appendParagraph(out, rng, static_cast<int>(rng.uniform(1, 3)));
    out += "</p>";
  }

  // Widget block: section(3) > div.widget(4) > div.inner(5) > adslot(6)
  // counting depth from <body>=0, <div id=page>=1, <main>=2 — the slot and
  // its contents sit below the paper's l=5 comparison window.
  out += "<div class=\"widget\"><ul>";
  const int items = static_cast<int>(rng.uniform(3, 6));
  for (int i = 0; i < items; ++i) {
    out += "<li><a href=\"/";
    appendWord(out, rng);
    out += "\">";
    appendPhrase(out, rng, 2);
    out += "</a></li>";
  }
  out += "</ul><div class=\"inner\">";
  for (int a = 0; a < adSlots; ++a) {
    out += "<div class=\"adslot\">";
    block.addHole(HoleKind::AdSlot);
    out += "</div>";
  }
  out += "</div></div></section>";
}

void appendSidebar(std::string& out, util::Pcg32& rng, std::string_view title,
                   int itemCount) {
  out += "<div class=\"sidebar\"><h3>";
  appendEscapedText(out, title);
  out += "</h3><ul>";
  for (int i = 0; i < itemCount; ++i) {
    out += "<li><a href=\"/";
    appendWord(out, rng);
    out += "\">";
    appendPhrase(out, rng, 3);
    out += "</a></li>";
  }
  out += "</ul></div>";
}

void appendSignUpForm(std::string& out, util::Pcg32& rng) {
  out += "<div class=\"signup-wall\"><h2>Create your account</h2>"
         "<p>Please sign up to access ";
  appendPhrase(out, rng, 3);
  out += ".</p><form action=\"/signup\" method=\"post\">"
         "<div class=\"form-row\"><label for=\"username\">username</label>"
         "<input name=\"username\" type=\"text\"></div>"
         "<div class=\"form-row\"><label for=\"email\">email</label>"
         "<input name=\"email\" type=\"text\"></div>"
         "<div class=\"form-row\"><label for=\"password\">password</label>"
         "<input name=\"password\" type=\"password\"></div>"
         "<input type=\"submit\" value=\"Sign up\"></form>"
         "<p>Membership includes ";
  appendPhrase(out, rng, 4);
  out += ".</p></div>";
}

void appendResultList(std::string& out, util::Pcg32& rng, int count) {
  out += "<div class=\"results\"><ol>";
  for (int i = 0; i < count; ++i) {
    out += "<li><a href=\"/result";
    out += std::to_string(i);
    out += "\">";
    appendTitle(out, rng);
    out += "</a> — ";
    appendPhrase(out, rng, 6, /*sentence=*/true);
    out += "</li>";
  }
  out += "</ol></div>";
}

void appendPromoBlock(std::string& out, util::Pcg32& rng, int variant) {
  // Each variant has a genuinely different element structure so that when a
  // site swaps variants between fetches, the change registers high in the
  // tree (the page dynamics that cause the paper's false positives).
  // NB: the class must not trip CVCE's ad-token filter ("promo" would).
  out += "<div class=\"hero variant";
  out += std::to_string(variant);
  out += "\">";
  switch (variant % 3) {
    case 0:
      out += "<h2>";
      appendTitle(out, rng);
      out += "</h2><table>";
      for (int r = 0; r < 3; ++r) {
        out += "<tr>";
        for (int c = 0; c < 3; ++c) {
          out += "<td>";
          appendPhrase(out, rng, 2);
          out += "</td>";
        }
        out += "</tr>";
      }
      out += "</table>";
      break;
    case 1:
      out += "<figure><img src=\"/assets/promo";
      out += std::to_string(rng.uniform(1, 5));
      out += ".png\"><figcaption>";
      appendPhrase(out, rng, 4);
      out += "</figcaption></figure><ul>";
      for (int i = 0; i < 4; ++i) {
        out += "<li>";
        appendPhrase(out, rng, 3);
        out += "</li>";
      }
      out += "</ul>";
      break;
    default:
      out += "<h2>";
      appendTitle(out, rng);
      out += "</h2>";
      for (int i = 0; i < 3; ++i) {
        out += "<blockquote><p>";
        appendParagraph(out, rng, 1);
        out += "</p><cite>";
        appendPhrase(out, rng, 2);
        out += "</cite></blockquote>";
      }
      break;
  }
  out += "</div>";
}

}  // namespace cookiepicker::server
