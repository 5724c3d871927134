#include "dom/select.h"

#include <cctype>
#include <stdexcept>

#include "util/strings.h"

namespace cookiepicker::dom {

namespace {

struct AttributeTest {
  std::string name;                   // lowercase
  std::optional<std::string> value;   // nullopt = presence test
};

struct SimpleSelector {
  std::string tag;  // empty or "*" = any
  std::string id;
  std::vector<std::string> classes;
  std::vector<AttributeTest> attributes;
};

enum class Combinator { Descendant, Child };

struct CompoundSelector {
  // steps[0] matches the candidate element; steps[i] with its combinator
  // constrains an ancestor, right-to-left.
  std::vector<SimpleSelector> steps;
  std::vector<Combinator> combinators;  // between steps[i] and steps[i+1]
};

[[noreturn]] void fail(std::string_view selector, const std::string& why) {
  throw std::invalid_argument("selector '" + std::string(selector) +
                              "': " + why);
}

bool isNameChar(char ch) {
  return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '-' ||
         ch == '_';
}

SimpleSelector parseSimple(std::string_view selector, std::string_view text) {
  SimpleSelector simple;
  std::size_t i = 0;
  auto readName = [&]() {
    const std::size_t start = i;
    while (i < text.size() && isNameChar(text[i])) ++i;
    if (i == start) fail(selector, "expected a name");
    return std::string(text.substr(start, i - start));
  };

  if (i < text.size() && text[i] == '*') {
    simple.tag += '*';
    ++i;
  } else if (i < text.size() && isNameChar(text[i])) {
    simple.tag = util::toLowerAscii(readName());
  }
  while (i < text.size()) {
    const char lead = text[i];
    if (lead == '.') {
      ++i;
      simple.classes.push_back(readName());
    } else if (lead == '#') {
      ++i;
      if (!simple.id.empty()) fail(selector, "multiple #ids");
      simple.id = readName();
    } else if (lead == '[') {
      ++i;
      AttributeTest test;
      test.name = util::toLowerAscii(readName());
      if (i < text.size() && text[i] == '=') {
        ++i;
        std::size_t start = i;
        std::string value;
        if (i < text.size() && (text[i] == '"' || text[i] == '\'')) {
          const char quote = text[i];
          start = ++i;
          while (i < text.size() && text[i] != quote) ++i;
          if (i >= text.size()) fail(selector, "unterminated quote");
          value = std::string(text.substr(start, i - start));
          ++i;
        } else {
          while (i < text.size() && text[i] != ']') ++i;
          value = std::string(text.substr(start, i - start));
        }
        test.value = value;
      }
      if (i >= text.size() || text[i] != ']') {
        fail(selector, "expected ]");
      }
      ++i;
      simple.attributes.push_back(std::move(test));
    } else {
      fail(selector, std::string("unexpected character '") + lead + "'");
    }
  }
  if (simple.tag.empty() && simple.id.empty() && simple.classes.empty() &&
      simple.attributes.empty()) {
    fail(selector, "empty simple selector");
  }
  return simple;
}

CompoundSelector parseCompound(std::string_view selector,
                               std::string_view text) {
  // Tokenize left-to-right: whitespace between simple selectors means
  // descendant, an explicit '>' means child. Then reverse so steps[0] is
  // the subject element.
  std::vector<SimpleSelector> steps;
  std::vector<Combinator> combinators;
  bool explicitChild = false;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
      continue;
    }
    if (text[i] == '>') {
      if (steps.empty() || explicitChild) fail(selector, "dangling '>'");
      explicitChild = true;
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) == 0 &&
           text[i] != '>') {
      ++i;
    }
    if (!steps.empty()) {
      combinators.push_back(explicitChild ? Combinator::Child
                                          : Combinator::Descendant);
    }
    explicitChild = false;
    steps.push_back(parseSimple(selector, text.substr(start, i - start)));
  }
  if (explicitChild) fail(selector, "dangling '>'");
  if (steps.empty()) fail(selector, "empty selector");

  CompoundSelector compound;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    compound.steps.push_back(std::move(*it));
  }
  for (auto it = combinators.rbegin(); it != combinators.rend(); ++it) {
    compound.combinators.push_back(*it);
  }
  return compound;
}

std::vector<CompoundSelector> parseSelector(std::string_view selector) {
  std::vector<CompoundSelector> groups;
  for (const std::string& part : util::split(std::string(selector), ',')) {
    const std::string_view trimmed = util::trim(part);
    if (trimmed.empty()) fail(selector, "empty selector group");
    groups.push_back(parseCompound(selector, trimmed));
  }
  return groups;
}

bool hasClass(const Node& node, const std::string& wanted) {
  const auto classAttr = node.attribute("class");
  if (!classAttr.has_value()) return false;
  for (const std::string& token : util::splitWhitespace(*classAttr)) {
    if (token == wanted) return true;
  }
  return false;
}

bool matchesSimple(const Node& node, const SimpleSelector& simple) {
  if (!node.isElement()) return false;
  if (!simple.tag.empty() && simple.tag != "*" && node.name() != simple.tag) {
    return false;
  }
  if (!simple.id.empty() &&
      node.attribute("id").value_or("") != simple.id) {
    return false;
  }
  for (const std::string& className : simple.classes) {
    if (!hasClass(node, className)) return false;
  }
  for (const AttributeTest& test : simple.attributes) {
    const auto value = node.attribute(test.name);
    if (!value.has_value()) return false;
    if (test.value.has_value() && *value != *test.value) return false;
  }
  return true;
}

bool matchesCompound(const Node& node, const CompoundSelector& compound) {
  if (!matchesSimple(node, compound.steps[0])) return false;
  const Node* current = node.parent();
  for (std::size_t step = 1; step < compound.steps.size(); ++step) {
    const Combinator combinator = compound.combinators[step - 1];
    if (combinator == Combinator::Child) {
      if (current == nullptr ||
          !matchesSimple(*current, compound.steps[step])) {
        return false;
      }
      current = current->parent();
    } else {
      // Descendant: walk up until some ancestor matches.
      bool found = false;
      while (current != nullptr) {
        if (matchesSimple(*current, compound.steps[step])) {
          found = true;
          current = current->parent();
          break;
        }
        current = current->parent();
      }
      if (!found) return false;
    }
  }
  return true;
}

}  // namespace

std::vector<const Node*> select(const Node& root,
                                std::string_view selector) {
  const auto groups = parseSelector(selector);
  std::vector<const Node*> results;
  preorder(root, [&](const Node& node, std::size_t) {
    for (const CompoundSelector& compound : groups) {
      if (matchesCompound(node, compound)) {
        results.push_back(&node);
        break;
      }
    }
    return true;
  });
  return results;
}

std::vector<Node*> select(Node& root, std::string_view selector) {
  std::vector<Node*> results;
  for (const Node* node :
       select(static_cast<const Node&>(root), selector)) {
    results.push_back(const_cast<Node*>(node));
  }
  return results;
}

const Node* selectFirst(const Node& root, std::string_view selector) {
  const auto groups = parseSelector(selector);
  const Node* found = nullptr;
  preorder(root, [&](const Node& node, std::size_t) {
    if (found != nullptr) return false;
    for (const CompoundSelector& compound : groups) {
      if (matchesCompound(node, compound)) {
        found = &node;
        return false;
      }
    }
    return true;
  });
  return found;
}

Node* selectFirst(Node& root, std::string_view selector) {
  return const_cast<Node*>(
      selectFirst(static_cast<const Node&>(root), selector));
}

bool matches(const Node& node, std::string_view selector) {
  for (const CompoundSelector& compound : parseSelector(selector)) {
    if (matchesCompound(node, compound)) return true;
  }
  return false;
}

}  // namespace cookiepicker::dom
