#include "xml/document.h"

#include <cassert>

namespace flexpath {

std::string Document::SubtreeText(NodeId id) const {
  assert(has_content());
  std::string out;
  const uint32_t top_end = spans_[id].end;
  // Subtree of a pre-order node is the contiguous id range [id, x) where x
  // is the first node whose start exceeds top_end.
  for (NodeId i = id; i < nodes_.size() && spans_[i].start < top_end; ++i) {
    const std::string& t = content_[i].text;
    if (t.empty()) continue;
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

std::vector<NodeId> Document::Children(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId c = nodes_[id].first_child; c != kInvalidNode;
       c = nodes_[c].next_sibling) {
    out.push_back(c);
  }
  return out;
}

const std::string* Document::FindAttribute(NodeId id, TagId name) const {
  assert(has_content());
  for (const Attribute& a : content_[id].attrs) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

NodeId DocumentBuilder::Open(std::string_view tag) {
  if (!error_.ok()) return kInvalidNode;
  if (stack_.empty() && root_done_) {
    error_ = Status::InvalidArgument("document has more than one root");
    return kInvalidNode;
  }
  NodeId id = static_cast<NodeId>(doc_.nodes_.size());
  Element e;
  e.tag = dict_->Intern(tag);
  NodeSpan span;
  span.start = counter_++;
  span.level = static_cast<uint32_t>(stack_.size());
  if (!stack_.empty()) {
    NodeId parent = stack_.back();
    span.parent = parent;
    NodeId prev = last_child_.back();
    if (prev == kInvalidNode) {
      doc_.nodes_[parent].first_child = id;
    } else {
      doc_.nodes_[prev].next_sibling = id;
    }
    last_child_.back() = id;
  }
  doc_.nodes_.push_back(e);
  doc_.spans_.push_back(span);
  doc_.content_.emplace_back();
  stack_.push_back(id);
  last_child_.push_back(kInvalidNode);
  return id;
}

Status DocumentBuilder::Attr(std::string_view name, std::string_view value) {
  if (!error_.ok()) return error_;
  if (stack_.empty()) {
    return error_ = Status::InvalidArgument("Attr with no open element");
  }
  NodeContent& c = doc_.content_[stack_.back()];
  c.attrs.push_back(Attribute{dict_->Intern(name), std::string(value)});
  return Status::OK();
}

Status DocumentBuilder::Text(std::string_view text) {
  if (!error_.ok()) return error_;
  if (stack_.empty()) {
    return error_ = Status::InvalidArgument("Text with no open element");
  }
  std::string& t = doc_.content_[stack_.back()].text;
  if (!t.empty()) t += ' ';
  t += text;
  return Status::OK();
}

Status DocumentBuilder::Close() {
  if (!error_.ok()) return error_;
  if (stack_.empty()) {
    return error_ = Status::InvalidArgument("Close with no open element");
  }
  NodeId id = stack_.back();
  doc_.spans_[id].end = counter_++;
  stack_.pop_back();
  last_child_.pop_back();
  if (stack_.empty()) root_done_ = true;
  return Status::OK();
}

Result<Document> DocumentBuilder::Finish() && {
  if (!error_.ok()) return error_;
  if (!stack_.empty()) {
    return Status::InvalidArgument("Finish with unclosed elements");
  }
  if (!root_done_) {
    return Status::InvalidArgument("document has no root element");
  }
  return std::move(doc_);
}

}  // namespace flexpath
