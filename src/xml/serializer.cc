#include "xml/serializer.h"

#include "common/string_util.h"

namespace flexpath {

namespace {

void SerializeNode(const Document& doc, const TagDict& dict, NodeId id,
                   const SerializeOptions& opts, int depth,
                   std::string* out) {
  const TagId tag = doc.tag(id);
  const NodeId end = doc.SubtreeEnd(id);
  const NodeContent& content = doc.content(id);
  auto indent = [&](int d) {
    if (opts.pretty) {
      out->append("\n");
      out->append(static_cast<size_t>(d * opts.indent_width), ' ');
    }
  };
  if (opts.pretty && depth > 0) indent(depth);
  else if (opts.pretty && depth == 0 && !out->empty()) indent(0);

  *out += '<';
  *out += dict.Name(tag);
  for (const Attribute& a : content.attrs) {
    *out += ' ';
    *out += dict.Name(a.name);
    *out += "=\"";
    *out += XmlEscape(a.value);
    *out += '"';
  }
  const bool has_children = id + 1 < end;
  if (!has_children && content.text.empty()) {
    *out += "/>";
    return;
  }
  *out += '>';
  if (!content.text.empty()) {
    if (opts.pretty && has_children) indent(depth + 1);
    *out += XmlEscape(content.text);
  }
  for (NodeId c = id + 1; c < end; c = doc.SubtreeEnd(c)) {
    SerializeNode(doc, dict, c, opts, depth + 1, out);
  }
  if (opts.pretty && has_children) indent(depth);
  *out += "</";
  *out += dict.Name(tag);
  *out += '>';
}

}  // namespace

std::string SerializeXml(const Document& doc, const TagDict& dict,
                         const SerializeOptions& opts) {
  std::string out;
  if (doc.empty()) return out;
  SerializeNode(doc, dict, doc.root(), opts, 0, &out);
  if (opts.pretty) out += '\n';
  return out;
}

}  // namespace flexpath
