#include "src/jsvm/dom.h"

namespace offload::jsvm {

Document::Document() {
  root_ = std::make_shared<DomNode>();
  root_->tag = "html";
  body_ = std::make_shared<DomNode>();
  body_->tag = "body";
  root_->append_child(body_);
}

DomNodePtr Document::create_element(std::string tag) {
  auto node = std::make_shared<DomNode>();
  node->tag = std::move(tag);
  return node;
}

DomNodePtr Document::get_element_by_id(std::string_view id) const {
  return find_pre_order(root_,
                        [&](const DomNodePtr& node) { return node->id == id; });
}

void Document::clear() {
  body_->children.clear();
  body_->listeners.clear();
  body_->text.clear();
  body_->attributes.clear();
  body_->id.clear();
}

}  // namespace offload::jsvm
