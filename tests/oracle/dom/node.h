// DOM tree representation — the oracle's page model.
//
// A deliberately small subset of the W3C DOM: enough to represent parsed
// HTML pages as rooted, labeled, ordered trees — the structure CookiePicker's
// detection algorithms (RSTM / CVCE) are defined over. Production compares
// dom::TreeSnapshot rows instead; node trees serve the reference
// implementations the differential suites pin those rows against, and
// flattenTree below is the second producer of those rows. Nodes own their
// children through unique_ptr; parents are non-owning back-pointers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dom/snapshot.h"

namespace cookiepicker::dom {

enum class NodeType { Document, Doctype, Element, Text, Comment };

struct Attribute {
  std::string name;   // lowercase
  std::string value;
};

class Node {
 public:
  // Factory functions are the only way to create nodes, keeping invariants
  // (e.g. lowercase element names) in one place.
  static std::unique_ptr<Node> makeDocument();
  static std::unique_ptr<Node> makeDoctype(std::string_view name);
  static std::unique_ptr<Node> makeElement(std::string_view tagName);
  static std::unique_ptr<Node> makeText(std::string_view text);
  static std::unique_ptr<Node> makeComment(std::string_view text);

  NodeType type() const { return type_; }
  bool isDocument() const { return type_ == NodeType::Document; }
  bool isElement() const { return type_ == NodeType::Element; }
  bool isText() const { return type_ == NodeType::Text; }
  bool isComment() const { return type_ == NodeType::Comment; }

  // Element tag name (lowercase), or "#document"/"#text"/"#comment"/doctype
  // name for the other node types. This is the node "symbol" STM compares.
  const std::string& name() const { return name_; }

  // Text/comment content; empty for other node types.
  const std::string& value() const { return value_; }
  void setValue(std::string_view value) { value_ = value; }

  // --- attributes (elements only; no-ops / empty results otherwise) ---
  const std::vector<Attribute>& attributes() const { return attributes_; }
  std::optional<std::string> attribute(std::string_view name) const;
  void setAttribute(std::string_view name, std::string_view value);
  bool hasAttribute(std::string_view name) const;

  // --- tree structure ---
  Node* parent() const { return parent_; }
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  std::size_t childCount() const { return children_.size(); }
  Node& child(std::size_t index) { return *children_[index]; }
  const Node& child(std::size_t index) const { return *children_[index]; }

  // Appends and returns a reference to the adopted child.
  Node& appendChild(std::unique_ptr<Node> child);
  // Inserts at `index` (clamped to [0, childCount()]) and returns the child.
  Node& insertChild(std::size_t index, std::unique_ptr<Node> child);
  // Removes and returns the child at `index`.
  std::unique_ptr<Node> removeChild(std::size_t index);

  // --- taint provenance (hand-built reference trees only) ---
  // Bit-vector of provenance labels: which cookie reads influenced this
  // node. Only trees built to check the streaming stamps set it; 0 (the
  // default) everywhere else — the origin emits HTML directly and parsed
  // trees never carry taint. The effective taint of a node is the OR of
  // its own labels and its ancestors', which the provenance-aware
  // serializer accumulates.
  std::uint32_t taintLabels() const { return taintLabels_; }
  void addTaintLabels(std::uint32_t labels) { taintLabels_ |= labels; }

  // Deep copy (parent of the copy is null).
  std::unique_ptr<Node> clone() const;

  // Total number of nodes in this subtree, including this node.
  std::size_t subtreeSize() const;
  // Height of this subtree: 1 for a leaf.
  std::size_t subtreeHeight() const;

  // Concatenated text of all descendant text nodes (no separators).
  std::string textContent() const;

  // First descendant element with the given (lowercase) tag, preorder;
  // nullptr if none. Includes this node itself.
  const Node* findFirst(std::string_view tagName) const;
  Node* findFirst(std::string_view tagName);
  // All matching descendant elements, preorder, including this node.
  std::vector<const Node*> findAll(std::string_view tagName) const;

 private:
  Node(NodeType type, std::string name, std::string value)
      : type_(type), name_(std::move(name)), value_(std::move(value)) {}

  NodeType type_;
  std::string name_;
  std::string value_;
  std::vector<Attribute> attributes_;
  std::vector<std::unique_ptr<Node>> children_;
  Node* parent_ = nullptr;
  std::uint32_t taintLabels_ = 0;
};

// Preorder traversal (node first, then children left-to-right). The visitor
// receives (node, depth) with depth 0 at `root`; returning false prunes the
// subtree below that node (the node itself has already been visited).
template <typename Visitor>
void preorder(const Node& root, Visitor&& visit, std::size_t depth = 0) {
  if (!visit(root, depth)) return;
  for (const auto& child : root.children()) {
    preorder(*child, visit, depth + 1);
  }
}

// The reference snapshot producer: flattens the whole subtree under `root`
// (typically the parsed document node) into the dom::TreeSnapshot rows
// html::StreamingSnapshotBuilder emits from tokens, root at row 0. With
// `stampTaint`, each row also carries the effective taint label-set of its
// node (own labels OR ancestors'): only hand-built trees carry taint, and
// the streaming builder must produce the same stamps from the serialized
// ProvenanceMap.
TreeSnapshot flattenTree(const Node& root, bool stampTaint = false);

// A text node's value in the form the detection algorithms compare: runs of
// ASCII whitespace collapsed into single spaces, trimmed
// (util::collapseWhitespaceView, as an owned string).
std::string collapseWhitespace(std::string_view text);

}  // namespace cookiepicker::dom
