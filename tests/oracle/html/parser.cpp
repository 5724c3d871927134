#include "html/parser.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "html/tags.h"
#include "html/tokenizer.h"
#include "util/strings.h"

namespace cookiepicker::html {

namespace {

using dom::Node;

bool isWhitespaceOnly(std::string_view text) {
  return std::all_of(text.begin(), text.end(), [](char ch) {
    return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n' || ch == '\f';
  });
}

// Should an open element `openTag` be implicitly closed when a start tag
// `incoming` arrives? This encodes the common HTML optional-end-tag rules.
bool impliesEndOf(std::string_view incoming, std::string_view openTag) {
  if (openTag == "p") return isBlockLevelTag(incoming);
  if (openTag == "li") return incoming == "li";
  if (openTag == "dt" || openTag == "dd") {
    return incoming == "dt" || incoming == "dd";
  }
  if (openTag == "option") {
    return incoming == "option" || incoming == "optgroup";
  }
  if (openTag == "td" || openTag == "th") {
    return incoming == "td" || incoming == "th" || incoming == "tr" ||
           incoming == "tbody" || incoming == "thead" || incoming == "tfoot";
  }
  if (openTag == "tr") {
    return incoming == "tr" || incoming == "tbody" || incoming == "thead" ||
           incoming == "tfoot";
  }
  if (openTag == "thead" || openTag == "tbody" || openTag == "tfoot") {
    return incoming == "tbody" || incoming == "thead" || incoming == "tfoot";
  }
  return false;
}

class TreeBuilder {
 public:
  TreeBuilder() : document_(Node::makeDocument()) {}

  std::unique_ptr<Node> build(std::string_view input) {
    // One Token refilled per step: its views live until the next call, and
    // the nodes below copy what they keep.
    Tokenizer tokenizer(input);
    Token token;
    while (tokenizer.next(token)) processToken(token);
    // A page with no markup at all still gets the html/head/body skeleton,
    // mirroring what layout engines construct for any document.
    ensureBody();
    return std::move(document_);
  }

 private:
  void processToken(const Token& token) {
    switch (token.type) {
      case TokenType::Doctype:
        if (html_ == nullptr) {
          document_->appendChild(Node::makeDoctype(token.name));
        }
        break;
      case TokenType::Comment:
        insertionPoint().appendChild(Node::makeComment(token.text));
        break;
      case TokenType::Text:
        processText(token.text);
        break;
      case TokenType::StartTag:
        processStartTag(token);
        break;
      case TokenType::EndTag:
        processEndTag(token.name);
        break;
      case TokenType::EndOfFile:
        break;
    }
  }

  void processText(std::string_view text) {
    if (text.empty()) return;
    const bool whitespaceOnly = isWhitespaceOnly(text);
    if (whitespaceOnly) {
      if (body_ == nullptr) return;  // whitespace before body: always dropped
      if (!insideRawTextElement() && !insidePreformatted()) return;
    }
    if (body_ == nullptr && !insideHeadRawText()) ensureBody();
    Node& parent = insertionPoint();
    // Merge with a preceding text node so consecutive tokenizer text chunks
    // (split at entity boundaries) form one DOM text node.
    if (parent.childCount() > 0 &&
        parent.child(parent.childCount() - 1).isText()) {
      Node& last = parent.child(parent.childCount() - 1);
      std::string merged = last.value();
      merged.append(text);
      last.setValue(merged);
      return;
    }
    parent.appendChild(Node::makeText(text));
  }

  void processStartTag(const Token& token) {
    const std::string_view tag = token.name;

    if (tag == "html") {
      ensureHtml();
      mergeAttributes(*html_, token.attributes);
      return;
    }
    if (tag == "head") {
      ensureHead();
      mergeAttributes(*head_, token.attributes);
      return;
    }
    if (tag == "body") {
      ensureBody();
      mergeAttributes(*body_, token.attributes);
      return;
    }

    // Head-content placement applies only at head level: if some element is
    // still open (e.g. a <title> left open by a junk end tag), falling
    // through to the generic path keeps tree order equal to emission order,
    // which the streaming snapshot builder (html/stream_snapshot.h) relies
    // on — a head_ append here would insert *before* the open element's
    // pending children.
    if (body_ == nullptr && openElements_.empty() &&
        (isHeadContentTag(tag) || tag == "script")) {
      ensureHead();
      Node& element = head_->appendChild(Node::makeElement(tag));
      adoptAttributes(element, token.attributes);
      if (!isVoidElement(tag) && !token.selfClosing) {
        openElements_.push_back(&element);
      }
      return;
    }

    ensureBody();
    // Optional-end-tag handling: close open elements the incoming tag
    // implies an end for.
    while (!openElements_.empty() &&
           impliesEndOf(tag, openElements_.back()->name())) {
      openElements_.pop_back();
    }

    Node& element = insertionPoint().appendChild(Node::makeElement(tag));
    adoptAttributes(element, token.attributes);
    if (!isVoidElement(tag) && !token.selfClosing) {
      openElements_.push_back(&element);
    }
  }

  void processEndTag(std::string_view tag) {
    if (tag == "html" || tag == "body" || tag == "head") {
      // Close everything below the structural element.
      if (tag == "head") {
        while (!openElements_.empty() && openElements_.back() != head_ &&
               openElements_.back() != body_) {
          openElements_.pop_back();
        }
      }
      return;  // html/head/body stay conceptually open until EOF
    }
    // Find the nearest matching open element.
    for (std::size_t i = openElements_.size(); i > 0; --i) {
      if (openElements_[i - 1]->name() == tag) {
        openElements_.resize(i - 1);
        return;
      }
    }
    // No match: ignore the stray end tag (browser behaviour).
  }

  Node& insertionPoint() {
    if (!openElements_.empty()) return *openElements_.back();
    if (body_ != nullptr) return *body_;
    if (head_ != nullptr) return *head_;
    if (html_ != nullptr) return *html_;
    return *document_;
  }

  bool insideRawTextElement() const {
    return !openElements_.empty() && isRawTextTag(openElements_.back()->name());
  }

  bool insideHeadRawText() const {
    if (openElements_.empty()) return false;
    const std::string& tag = openElements_.back()->name();
    return tag == "title" || tag == "style" || tag == "script";
  }

  bool insidePreformatted() const {
    return std::any_of(
        openElements_.begin(), openElements_.end(),
        [](const Node* node) { return node->name() == "pre" ||
                                      node->name() == "textarea"; });
  }

  void ensureHtml() {
    if (html_ != nullptr) return;
    html_ = &document_->appendChild(Node::makeElement("html"));
  }

  void ensureHead() {
    ensureHtml();
    if (head_ != nullptr) return;
    head_ = &html_->appendChild(Node::makeElement("head"));
  }

  void ensureBody() {
    ensureHead();
    if (body_ != nullptr) return;
    // Anything still open at this point belonged to head content.
    openElements_.clear();
    body_ = &html_->appendChild(Node::makeElement("body"));
  }

  static void adoptAttributes(Node& element,
                              const std::vector<TokenAttribute>& attributes) {
    for (const TokenAttribute& attribute : attributes) {
      element.setAttribute(attribute.name, attribute.value);
    }
  }

  // For duplicate <html>/<body> tags: new attributes are added, existing
  // ones keep their first value.
  static void mergeAttributes(Node& element,
                              const std::vector<TokenAttribute>& attributes) {
    for (const TokenAttribute& attribute : attributes) {
      if (!element.hasAttribute(attribute.name)) {
        element.setAttribute(attribute.name, attribute.value);
      }
    }
  }

  std::unique_ptr<Node> document_;
  Node* html_ = nullptr;
  Node* head_ = nullptr;
  Node* body_ = nullptr;
  std::vector<Node*> openElements_;
};

}  // namespace

std::unique_ptr<dom::Node> parseHtml(std::string_view input) {
  return TreeBuilder().build(input);
}

StreamPageInfo collectPageInfo(const dom::Node& document) {
  StreamPageInfo info;
  if (const dom::Node* base = document.findFirst("base")) {
    if (const auto href = base->attribute("href");
        href.has_value() && !href->empty()) {
      info.baseHref = *href;
    }
  }
  dom::preorder(document, [&](const dom::Node& node, std::size_t) {
    if (!node.isElement()) return true;
    const std::string& tag = node.name();
    std::optional<std::string> reference;
    if (tag == "img" || tag == "script" || tag == "iframe" ||
        tag == "embed") {
      reference = node.attribute("src");
    } else if (tag == "link") {
      const auto rel = node.attribute("rel");
      if (rel.has_value() && util::containsIgnoreCase(*rel, "stylesheet")) {
        reference = node.attribute("href");
      }
    }
    if (reference.has_value() && !reference->empty()) {
      info.subresourceRefs.push_back(std::move(*reference));
    }
    return true;
  });
  return info;
}

}  // namespace cookiepicker::html
