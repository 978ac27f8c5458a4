#include "xml/binary_codec.h"

#include <fstream>
#include <sstream>

#include "xml/document.h"

namespace flexpath {

namespace {

constexpr std::string_view kMagic = "FXP2";
constexpr std::string_view kOldMagicV1 = "FXP1";
constexpr uint64_t kSnapshotVersion = 2;
/// Fixed byte sentinel after the version: catches corrupted headers and
/// writers that emitted raw multi-byte integers in a different byte
/// order (the payload itself is varints + strings, which are
/// byte-order independent — the guard protects the header contract).
constexpr std::string_view kEndianMark = "\x01\x02\x03\x04";

void PutVarint(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

void PutString(std::string_view s, std::string* out) {
  PutVarint(s.size(), out);
  out->append(s);
}

/// Bounds-checked reader over the snapshot buffer.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) {
        return Status::InvalidArgument("truncated varint");
      }
      const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      if (shift >= 63 && byte > 1) {
        return Status::InvalidArgument("varint overflow");
      }
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    *out = value;
    return Status::OK();
  }

  Status ReadString(std::string* out) {
    uint64_t len = 0;
    FLEXPATH_RETURN_IF_ERROR(ReadVarint(&len));
    if (len > data_.size() - pos_) {
      return Status::InvalidArgument("truncated string");
    }
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return Status::OK();
  }

  Status ReadBytes(size_t n, std::string* out) {
    if (n > data_.size() - pos_ || pos_ >= data_.size()) {
      return Status::InvalidArgument("truncated corpus snapshot header");
    }
    out->assign(data_.substr(pos_, n));
    pos_ += n;
    return Status::OK();
  }

  bool AtEnd() const { return pos_ >= data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

std::string EncodeCorpus(const Corpus& corpus) {
  std::string out;
  out.append(kMagic);
  PutVarint(kSnapshotVersion, &out);
  out.append(kEndianMark);
  const TagDict& tags = corpus.tags();
  PutVarint(tags.size(), &out);
  for (TagId t = 0; t < tags.size(); ++t) PutString(tags.Name(t), &out);
  PutVarint(corpus.size(), &out);
  for (DocId d = 0; d < corpus.size(); ++d) {
    const Document& doc = corpus.doc(d);
    PutVarint(doc.size(), &out);
    for (NodeId n = 0; n < doc.size(); ++n) {
      const Element& e = doc.node(n);
      const NodeId parent = doc.span(n).parent;
      PutVarint(e.tag, &out);
      // Parents precede children in pre-order, so parent+1 fits and 0
      // marks the root.
      PutVarint(parent == kInvalidNode ? 0 : uint64_t{parent} + 1, &out);
      PutString(e.text, &out);
      PutVarint(e.attrs.size(), &out);
      for (const Attribute& a : e.attrs) {
        PutVarint(a.name, &out);
        PutString(a.value, &out);
      }
    }
  }
  return out;
}

Result<Corpus> DecodeCorpus(std::string_view data) {
  if (data.size() < kMagic.size()) {
    return Status::InvalidArgument(
        "truncated corpus snapshot: shorter than the magic header");
  }
  if (data.substr(0, kMagic.size()) != kMagic) {
    if (data.substr(0, kOldMagicV1.size()) == kOldMagicV1) {
      return Status::InvalidArgument(
          "unsupported snapshot version: this is a FXP1 (version 1) "
          "snapshot; re-save it with this build (which writes FXP2)");
    }
    return Status::InvalidArgument("not a FleXPath corpus snapshot");
  }
  Reader reader(data.substr(kMagic.size()));
  uint64_t version = 0;
  FLEXPATH_RETURN_IF_ERROR(reader.ReadVarint(&version));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  std::string endian_mark;
  FLEXPATH_RETURN_IF_ERROR(reader.ReadBytes(kEndianMark.size(), &endian_mark));
  if (endian_mark != kEndianMark) {
    return Status::InvalidArgument(
        "corpus snapshot byte-order guard mismatch: the file was written "
        "with a different byte order or its header is corrupt");
  }
  Corpus corpus;

  uint64_t tag_count = 0;
  FLEXPATH_RETURN_IF_ERROR(reader.ReadVarint(&tag_count));
  if (tag_count > data.size()) {
    return Status::InvalidArgument("implausible tag count");
  }
  for (uint64_t i = 0; i < tag_count; ++i) {
    std::string name;
    FLEXPATH_RETURN_IF_ERROR(reader.ReadString(&name));
    const TagId id = corpus.tags()->Intern(name);
    if (id != i) {
      return Status::InvalidArgument("duplicate tag in snapshot");
    }
  }

  uint64_t doc_count = 0;
  FLEXPATH_RETURN_IF_ERROR(reader.ReadVarint(&doc_count));
  if (doc_count > data.size()) {
    return Status::InvalidArgument("implausible document count");
  }
  for (uint64_t d = 0; d < doc_count; ++d) {
    uint64_t node_count = 0;
    FLEXPATH_RETURN_IF_ERROR(reader.ReadVarint(&node_count));
    if (node_count > data.size()) {
      return Status::InvalidArgument("implausible node count");
    }
    // Rebuild through DocumentBuilder so interval numbers, levels and
    // sibling links are recomputed and validated. Nodes arrive in
    // pre-order; we close elements when the next node's parent pops us.
    DocumentBuilder builder(corpus.tags());
    std::vector<NodeId> stack;  // open node ids (original numbering)
    for (uint64_t n = 0; n < node_count; ++n) {
      uint64_t tag = 0;
      uint64_t parent_plus1 = 0;
      std::string text;
      FLEXPATH_RETURN_IF_ERROR(reader.ReadVarint(&tag));
      FLEXPATH_RETURN_IF_ERROR(reader.ReadVarint(&parent_plus1));
      FLEXPATH_RETURN_IF_ERROR(reader.ReadString(&text));
      if (tag >= corpus.tags()->size()) {
        return Status::InvalidArgument("tag id out of range");
      }
      if (parent_plus1 > n) {
        return Status::InvalidArgument("forward parent reference");
      }
      const NodeId parent =
          parent_plus1 == 0 ? kInvalidNode
                            : static_cast<NodeId>(parent_plus1 - 1);
      while (!stack.empty() && stack.back() != parent) {
        FLEXPATH_RETURN_IF_ERROR(builder.Close());
        stack.pop_back();
      }
      if (stack.empty() && parent != kInvalidNode) {
        return Status::InvalidArgument("parent not on the open path");
      }
      builder.Open(corpus.tags()->Name(static_cast<TagId>(tag)));
      stack.push_back(static_cast<NodeId>(n));
      uint64_t attr_count = 0;
      FLEXPATH_RETURN_IF_ERROR(reader.ReadVarint(&attr_count));
      if (attr_count > data.size()) {
        return Status::InvalidArgument("implausible attribute count");
      }
      for (uint64_t a = 0; a < attr_count; ++a) {
        uint64_t name = 0;
        std::string value;
        FLEXPATH_RETURN_IF_ERROR(reader.ReadVarint(&name));
        FLEXPATH_RETURN_IF_ERROR(reader.ReadString(&value));
        if (name >= corpus.tags()->size()) {
          return Status::InvalidArgument("attribute id out of range");
        }
        FLEXPATH_RETURN_IF_ERROR(builder.Attr(
            corpus.tags()->Name(static_cast<TagId>(name)), value));
      }
      if (!text.empty()) {
        FLEXPATH_RETURN_IF_ERROR(builder.Text(text));
      }
    }
    while (!stack.empty()) {
      FLEXPATH_RETURN_IF_ERROR(builder.Close());
      stack.pop_back();
    }
    Result<Document> doc = std::move(builder).Finish();
    if (!doc.ok()) return doc.status();
    corpus.Add(std::move(doc).value());
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after snapshot");
  }
  return corpus;
}

Status SaveCorpus(const Corpus& corpus, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  const std::string data = EncodeCorpus(corpus);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

Result<Corpus> LoadCorpus(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DecodeCorpus(buffer.str());
}

}  // namespace flexpath
