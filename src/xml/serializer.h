#ifndef FLEXPATH_XML_SERIALIZER_H_
#define FLEXPATH_XML_SERIALIZER_H_

#include <string>

#include "xml/document.h"
#include "xml/tag_dict.h"

namespace flexpath {

/// Serialization options.
struct SerializeOptions {
  bool pretty = false;   ///< Indent children; adds newlines.
  int indent_width = 2;  ///< Spaces per level when pretty.
};

/// Renders `doc` back to XML text. Text content is escaped; attribute
/// values are double-quoted. parse(serialize(doc)) reproduces the same
/// tree shape, tags, attributes and (whitespace-normalized) text.
/// `doc` must have its content (Document::has_content).
std::string SerializeXml(const Document& doc, const TagDict& dict,
                         const SerializeOptions& opts = {});

}  // namespace flexpath

#endif  // FLEXPATH_XML_SERIALIZER_H_
