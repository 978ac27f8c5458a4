#include "xml/document.h"

#include <cassert>

namespace flexpath {

std::string Document::SubtreeText(NodeId id) const {
  assert(has_content());
  std::string out;
  const NodeId end = SubtreeEnd(id);
  for (NodeId i = id; i < end; ++i) {
    const std::string& t = content_[i].text;
    if (t.empty()) continue;
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

std::vector<NodeId> Document::Children(NodeId id) const {
  std::vector<NodeId> out;
  const NodeId end = SubtreeEnd(id);
  for (NodeId c = id + 1; c < end; c = SubtreeEnd(c)) {
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
  NodeId id = static_cast<NodeId>(doc_.tags_.size());
  NodeSpan span;
  span.start = counter_++;
  span.level = static_cast<uint32_t>(stack_.size());
  if (!stack_.empty()) span.parent = stack_.back();
  doc_.tags_.push_back(dict_->Intern(tag));
  doc_.spans_.push_back(span);
  doc_.content_.emplace_back();
  stack_.push_back(id);
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
