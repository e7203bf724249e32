// Simplified DOM: a tree of DomNodes under a document with a <body>. This
// is the "screen" of the web app — snapshots serialize the whole body
// subtree (plus listeners), so the edge server can even update the client's
// display by mutating the DOM, as Section III of the paper points out.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/jsvm/value.h"

namespace offload::jsvm {

class Document {
 public:
  Document();

  const DomNodePtr& root() const { return root_; }  ///< <html>
  const DomNodePtr& body() const { return body_; }

  /// Create a detached element.
  static DomNodePtr create_element(std::string tag);

  /// Depth-first search by id; nullptr if absent.
  DomNodePtr get_element_by_id(std::string_view id) const;

  /// Remove all body children and listeners (fresh page).
  void clear();

 private:
  DomNodePtr root_;
  DomNodePtr body_;
};

/// Walk `root`'s tree in depth-first pre-order; `visit(node)` returns false
/// to skip the node's subtree. An explicit stack keeps the call depth
/// constant at any tree depth. The tree must not change during the walk.
template <typename Visit>
void walk_pre_order(const DomNodePtr& root, Visit&& visit) {
  std::vector<const DomNodePtr*> stack{&root};
  while (!stack.empty()) {
    const DomNodePtr& node = *stack.back();
    stack.pop_back();
    if (!visit(node)) continue;
    for (auto it = node->children.rbegin(); it != node->children.rend();
         ++it) {
      stack.push_back(&*it);
    }
  }
}

/// The first node in pre-order from `root` that satisfies `pred`, or
/// nullptr.
template <typename Pred>
DomNodePtr find_pre_order(const DomNodePtr& root, Pred&& pred) {
  DomNodePtr found;
  walk_pre_order(root, [&](const DomNodePtr& node) {
    if (!found && pred(node)) found = node;
    return !found;
  });
  return found;
}

}  // namespace offload::jsvm
