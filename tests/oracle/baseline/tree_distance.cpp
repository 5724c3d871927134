#include "baseline/tree_distance.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "util/rng.h"

namespace cookiepicker::baseline {

namespace {

using dom::Node;

// --- Selkow ------------------------------------------------------------

std::size_t selkowRecursive(const Node& a, const Node& b) {
  std::size_t cost = a.name() == b.name() ? 0 : 1;  // relabel the roots
  const std::size_t m = a.childCount();
  const std::size_t n = b.childCount();
  // Edit distance over the child sequences, where deleting/inserting a
  // child removes/adds its whole subtree.
  std::vector<std::vector<std::size_t>> D(m + 1,
                                          std::vector<std::size_t>(n + 1, 0));
  for (std::size_t i = 1; i <= m; ++i) {
    D[i][0] = D[i - 1][0] + a.child(i - 1).subtreeSize();
  }
  for (std::size_t j = 1; j <= n; ++j) {
    D[0][j] = D[0][j - 1] + b.child(j - 1).subtreeSize();
  }
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const std::size_t deleteCost =
          D[i - 1][j] + a.child(i - 1).subtreeSize();
      const std::size_t insertCost =
          D[i][j - 1] + b.child(j - 1).subtreeSize();
      const std::size_t matchCost =
          D[i - 1][j - 1] + selkowRecursive(a.child(i - 1), b.child(j - 1));
      D[i][j] = std::min({deleteCost, insertCost, matchCost});
    }
  }
  return cost + D[m][n];
}

// --- Zhang–Shasha --------------------------------------------------------

struct FlatTree {
  std::vector<const Node*> postorder;
  std::vector<std::size_t> leftmostLeaf;  // l(i), postorder index
  std::vector<std::size_t> keyroots;
};

std::size_t flatten(const Node& node, FlatTree& flat) {
  std::size_t leftmost = 0;
  bool first = true;
  for (const auto& child : node.children()) {
    const std::size_t childLeftmost = flatten(*child, flat);
    if (first) {
      leftmost = childLeftmost;
      first = false;
    }
  }
  flat.postorder.push_back(&node);
  const std::size_t index = flat.postorder.size() - 1;
  flat.leftmostLeaf.push_back(first ? index : leftmost);
  return first ? index : leftmost;
}

FlatTree makeFlatTree(const Node& root) {
  FlatTree flat;
  flatten(root, flat);
  // Keyroots: nodes with no left sibling on the path to the root (i.e. the
  // highest node for each distinct leftmost leaf).
  std::map<std::size_t, std::size_t> highestForLeaf;
  for (std::size_t i = 0; i < flat.postorder.size(); ++i) {
    highestForLeaf[flat.leftmostLeaf[i]] = i;  // postorder → later wins
  }
  for (const auto& [leaf, index] : highestForLeaf) {
    flat.keyroots.push_back(index);
  }
  std::sort(flat.keyroots.begin(), flat.keyroots.end());
  return flat;
}

std::size_t zhangShasha(const Node& a, const Node& b) {
  const FlatTree ta = makeFlatTree(a);
  const FlatTree tb = makeFlatTree(b);
  const std::size_t n = ta.postorder.size();
  const std::size_t m = tb.postorder.size();
  std::vector<std::vector<std::size_t>> treeDist(
      n, std::vector<std::size_t>(m, 0));

  auto relabelCost = [&](std::size_t i, std::size_t j) -> std::size_t {
    const Node* nodeA = ta.postorder[i];
    const Node* nodeB = tb.postorder[j];
    if (nodeA->name() != nodeB->name()) return 1;
    // Text/comment nodes with different content count as a relabel too.
    if (nodeA->isText() || nodeA->isComment()) {
      return nodeA->value() == nodeB->value() ? 0 : 1;
    }
    return 0;
  };

  for (const std::size_t ki : ta.keyroots) {
    for (const std::size_t kj : tb.keyroots) {
      const std::size_t li = ta.leftmostLeaf[ki];
      const std::size_t lj = tb.leftmostLeaf[kj];
      const std::size_t sizeI = ki - li + 2;
      const std::size_t sizeJ = kj - lj + 2;
      // Forest distance table, offset so index 0 is the empty forest.
      std::vector<std::vector<std::size_t>> fd(
          sizeI, std::vector<std::size_t>(sizeJ, 0));
      for (std::size_t i = 1; i < sizeI; ++i) fd[i][0] = fd[i - 1][0] + 1;
      for (std::size_t j = 1; j < sizeJ; ++j) fd[0][j] = fd[0][j - 1] + 1;
      for (std::size_t i = 1; i < sizeI; ++i) {
        for (std::size_t j = 1; j < sizeJ; ++j) {
          const std::size_t ni = li + i - 1;  // postorder index in A
          const std::size_t nj = lj + j - 1;  // postorder index in B
          if (ta.leftmostLeaf[ni] == li && tb.leftmostLeaf[nj] == lj) {
            fd[i][j] = std::min({fd[i - 1][j] + 1, fd[i][j - 1] + 1,
                                 fd[i - 1][j - 1] + relabelCost(ni, nj)});
            treeDist[ni][nj] = fd[i][j];
          } else {
            const std::size_t pi = ta.leftmostLeaf[ni] - li;
            const std::size_t pj = tb.leftmostLeaf[nj] - lj;
            fd[i][j] = std::min({fd[i - 1][j] + 1, fd[i][j - 1] + 1,
                                 fd[pi][pj] + treeDist[ni][nj]});
          }
        }
      }
    }
  }
  return treeDist[n - 1][m - 1];
}

// --- bottom-up ------------------------------------------------------------

}  // namespace

std::size_t selkowEditDistance(const dom::Node& a, const dom::Node& b) {
  return selkowRecursive(a, b);
}

std::size_t zhangShashaEditDistance(const dom::Node& a, const dom::Node& b) {
  return zhangShasha(a, b);
}

// Memoizes the canonical fingerprint of every node in a subtree.
void fingerprintAll(const Node& node,
                    std::map<const Node*, std::uint64_t>& hashes) {
  std::string signature = node.name();
  if (node.isText() || node.isComment()) {
    signature += "=" + node.value();
  }
  signature += "(";
  for (const auto& child : node.children()) {
    fingerprintAll(*child, hashes);
    signature += std::to_string(hashes.at(child.get())) + ",";
  }
  signature += ")";
  hashes[&node] = util::fnv1a64(signature);
}

std::size_t bottomUpMatching(const dom::Node& a, const dom::Node& b) {
  std::map<const Node*, std::uint64_t> hashes;
  fingerprintAll(a, hashes);
  fingerprintAll(b, hashes);

  // Budget per fingerprint: how many identical copies exist on each side.
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> counts;
  dom::preorder(a, [&](const Node& node, std::size_t) {
    ++counts[hashes.at(&node)].first;
    return true;
  });
  dom::preorder(b, [&](const Node& node, std::size_t) {
    ++counts[hashes.at(&node)].second;
    return true;
  });
  std::map<std::uint64_t, std::size_t> budget;
  for (const auto& [hash, pair] : counts) {
    budget[hash] = std::min(pair.first, pair.second);
  }

  // Greedy top-down cover of A: take the highest matched subtree on every
  // path. Consuming a subtree consumes its nested fingerprints too (they
  // are no longer available as independent matches on the B side).
  struct Walker {
    const std::map<const Node*, std::uint64_t>& hashes;
    std::map<std::uint64_t, std::size_t>& budget;
    std::size_t matched = 0;
    void consume(const Node& node) {
      auto it = budget.find(hashes.at(&node));
      if (it != budget.end() && it->second > 0) --it->second;
      for (const auto& child : node.children()) consume(*child);
    }
    void walk(const Node& node) {
      const auto it = budget.find(hashes.at(&node));
      if (it != budget.end() && it->second > 0) {
        consume(node);
        matched += node.subtreeSize();
        return;  // whole subtree covered; do not descend
      }
      for (const auto& child : node.children()) walk(*child);
    }
  } walker{hashes, budget};
  walker.walk(a);
  return walker.matched;
}

double selkowSimilarity(const dom::Node& a, const dom::Node& b) {
  const auto distance = static_cast<double>(selkowEditDistance(a, b));
  const auto total =
      static_cast<double>(a.subtreeSize() + b.subtreeSize());
  return total <= 0.0 ? 1.0 : 1.0 - distance / total;
}

double bottomUpSimilarity(const dom::Node& a, const dom::Node& b) {
  const auto matched = static_cast<double>(bottomUpMatching(a, b));
  const auto sizeA = static_cast<double>(a.subtreeSize());
  const auto sizeB = static_cast<double>(b.subtreeSize());
  const double denominator = sizeA + sizeB - matched;
  return denominator <= 0.0 ? 1.0 : matched / denominator;
}

}  // namespace cookiepicker::baseline
