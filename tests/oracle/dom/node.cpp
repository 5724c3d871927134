#include "dom/node.h"

#include <algorithm>

#include "html/tags.h"
#include "util/strings.h"
#include "util/text_hash.h"

namespace cookiepicker::dom {

using util::toLowerAscii;

std::unique_ptr<Node> Node::makeDocument() {
  return std::unique_ptr<Node>(
      new Node(NodeType::Document, "#document", ""));
}

std::unique_ptr<Node> Node::makeDoctype(std::string_view name) {
  return std::unique_ptr<Node>(
      new Node(NodeType::Doctype, toLowerAscii(name), ""));
}

std::unique_ptr<Node> Node::makeElement(std::string_view tagName) {
  return std::unique_ptr<Node>(
      new Node(NodeType::Element, toLowerAscii(tagName), ""));
}

std::unique_ptr<Node> Node::makeText(std::string_view text) {
  return std::unique_ptr<Node>(
      new Node(NodeType::Text, "#text", std::string(text)));
}

std::unique_ptr<Node> Node::makeComment(std::string_view text) {
  return std::unique_ptr<Node>(
      new Node(NodeType::Comment, "#comment", std::string(text)));
}

std::optional<std::string> Node::attribute(std::string_view name) const {
  const std::string lowered = toLowerAscii(name);
  for (const Attribute& attribute : attributes_) {
    if (attribute.name == lowered) return attribute.value;
  }
  return std::nullopt;
}

void Node::setAttribute(std::string_view name, std::string_view value) {
  if (type_ != NodeType::Element) return;
  const std::string lowered = toLowerAscii(name);
  for (Attribute& attribute : attributes_) {
    if (attribute.name == lowered) {
      attribute.value = std::string(value);
      return;
    }
  }
  attributes_.push_back({lowered, std::string(value)});
}

bool Node::hasAttribute(std::string_view name) const {
  return attribute(name).has_value();
}

Node& Node::appendChild(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return *children_.back();
}

Node& Node::insertChild(std::size_t index, std::unique_ptr<Node> child) {
  child->parent_ = this;
  index = std::min(index, children_.size());
  const auto it = children_.insert(
      children_.begin() + static_cast<std::ptrdiff_t>(index),
      std::move(child));
  return **it;
}

std::unique_ptr<Node> Node::removeChild(std::size_t index) {
  std::unique_ptr<Node> removed = std::move(children_[index]);
  children_.erase(children_.begin() +
                  static_cast<std::ptrdiff_t>(index));
  removed->parent_ = nullptr;
  return removed;
}

std::unique_ptr<Node> Node::clone() const {
  std::unique_ptr<Node> copy(new Node(type_, name_, value_));
  copy->attributes_ = attributes_;
  copy->taintLabels_ = taintLabels_;
  for (const auto& child : children_) {
    copy->appendChild(child->clone());
  }
  return copy;
}

std::size_t Node::subtreeSize() const {
  std::size_t total = 1;
  for (const auto& child : children_) total += child->subtreeSize();
  return total;
}

std::size_t Node::subtreeHeight() const {
  std::size_t tallestChild = 0;
  for (const auto& child : children_) {
    tallestChild = std::max(tallestChild, child->subtreeHeight());
  }
  return tallestChild + 1;
}

std::string Node::textContent() const {
  std::string text;
  preorder(*this, [&](const Node& node, std::size_t) {
    if (node.isText()) text += node.value();
    return true;
  });
  return text;
}

const Node* Node::findFirst(std::string_view tagName) const {
  const std::string lowered = toLowerAscii(tagName);
  const Node* found = nullptr;
  preorder(*this, [&](const Node& node, std::size_t) {
    if (found != nullptr) return false;
    if (node.isElement() && node.name() == lowered) {
      found = &node;
      return false;
    }
    return true;
  });
  return found;
}

Node* Node::findFirst(std::string_view tagName) {
  return const_cast<Node*>(
      static_cast<const Node*>(this)->findFirst(tagName));
}

std::vector<const Node*> Node::findAll(std::string_view tagName) const {
  const std::string lowered = toLowerAscii(tagName);
  std::vector<const Node*> found;
  preorder(*this, [&](const Node& node, std::size_t) {
    if (node.isElement() && node.name() == lowered) found.push_back(&node);
    return true;
  });
  return found;
}

// A friend of TreeSnapshot, as the streaming builder is: it appends the
// rows directly and leaves the derived arrays to finish().
class TreeFlattener {
 public:
  static TreeSnapshot flatten(const Node& root, bool stampTaint) {
    TreeSnapshot snapshot;
    const std::size_t count = root.subtreeSize();
    snapshot.symbols_.reserve(count);
    snapshot.subtreeEnd_.reserve(count);
    snapshot.levels_.reserve(count);
    snapshot.flags_.reserve(count);
    snapshot.textHashes_.reserve(count);
    if (stampTaint) snapshot.taintSets_.reserve(count);
    appendRows(snapshot, root, 0, 0, stampTaint);
    snapshot.finish();
    return snapshot;
  }

 private:
  static void appendRows(TreeSnapshot& snapshot, const Node& node,
                         std::int32_t level, std::uint32_t inheritedTaint,
                         bool stampTaint) {
    const auto index = static_cast<std::uint32_t>(snapshot.symbols_.size());
    // Effective taint is the lattice join down the root path — exactly what
    // the streaming producer reads back from the normalized ProvenanceMap.
    const std::uint32_t effectiveTaint = inheritedTaint | node.taintLabels();
    if (stampTaint) snapshot.taintSets_.push_back(effectiveTaint);
    snapshot.symbols_.push_back(globalSymbolInterner().intern(node.name()));
    snapshot.subtreeEnd_.push_back(0);  // patched after the children
    snapshot.levels_.push_back(level);

    std::uint16_t flags = 0;
    std::uint64_t textHash = 0;
    if (node.isElement()) {
      flags |= TreeSnapshot::kElement;
      const std::string& tag = node.name();
      if (tag == "script" || tag == "style" || tag == "noscript") {
        flags |= TreeSnapshot::kScriptish;
      }
      if (tag == "option") flags |= TreeSnapshot::kOption;
      if (!html::isNonVisualTag(tag)) {
        flags |= TreeSnapshot::kVisibleStructural;
      }
      const auto classAttr = node.attribute("class");
      const auto idAttr = node.attribute("id");
      if ((classAttr.has_value() && util::hasAdSignalToken(*classAttr)) ||
          (idAttr.has_value() && util::hasAdSignalToken(*idAttr))) {
        flags |= TreeSnapshot::kAdContainer;
      }
    } else if (node.isText()) {
      flags |= TreeSnapshot::kText;
      std::string scratch;
      const std::string_view collapsed =
          util::collapseWhitespaceView(node.value(), scratch);
      if (!collapsed.empty()) {
        flags |= TreeSnapshot::kTextNonEmpty;
        if (util::hasAlphanumeric(collapsed)) {
          flags |= TreeSnapshot::kTextHasAlnum;
        }
        if (util::looksLikeDateOrTime(collapsed)) {
          flags |= TreeSnapshot::kTextDateLike;
        }
        textHash = util::textHash64(collapsed);
      }
    } else if (node.isComment()) {
      flags |= TreeSnapshot::kComment;
    } else if (node.isDocument()) {
      // A document row is a container RSTM counts when comparison starts
      // above <body>.
      flags |= TreeSnapshot::kVisibleStructural;
    }
    snapshot.flags_.push_back(flags);
    snapshot.textHashes_.push_back(textHash);

    for (const auto& child : node.children()) {
      appendRows(snapshot, *child, level + 1, effectiveTaint, stampTaint);
    }
    snapshot.subtreeEnd_[index] =
        static_cast<std::uint32_t>(snapshot.symbols_.size());
  }
};

TreeSnapshot flattenTree(const Node& root, bool stampTaint) {
  return TreeFlattener::flatten(root, stampTaint);
}

std::string collapseWhitespace(std::string_view text) {
  std::string scratch;
  const std::string_view collapsed =
      util::collapseWhitespaceView(text, scratch);
  if (collapsed.data() == scratch.data()) return scratch;
  return std::string(collapsed);
}

}  // namespace cookiepicker::dom
