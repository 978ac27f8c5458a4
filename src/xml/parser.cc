#include "xml/parser.h"

#include <cctype>
#include <string>

#include "common/string_util.h"

namespace flexpath {

namespace {

/// Hand-rolled recursive-descent XML parser. Tracks line/column for error
/// messages; pushes events into a DocumentBuilder.
class XmlParser {
 public:
  XmlParser(std::string_view input, TagDict* dict)
      : in_(input), builder_(dict) {}

  Result<Document> Parse() {
    SkipProlog();
    // Status converts implicitly to Result<Document>, so the shared
    // propagation macro works here too.
    FLEXPATH_RETURN_IF_ERROR(ParseElement());
    SkipMisc();
    if (!AtEnd()) return Err("trailing content after root element");
    return std::move(builder_).Finish();
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < in_.size() ? in_[pos_ + off] : '\0';
  }

  void Advance() {
    if (in_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void AdvanceBy(size_t n) {
    for (size_t i = 0; i < n && !AtEnd(); ++i) Advance();
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (in_.size() - pos_ < lit.size()) return false;
    if (in_.substr(pos_, lit.size()) != lit) return false;
    AdvanceBy(lit.size());
    return true;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  Status Err(std::string msg) const {
    return Status::ParseError("line " + std::to_string(line_) + ", col " +
                              std::to_string(col_) + ": " + std::move(msg));
  }

  /// Skips the XML declaration, DOCTYPE, comments, PIs and whitespace that
  /// may precede the root element.
  void SkipProlog() {
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return;
      if (ConsumeComment()) continue;
      if (Peek() == '<' && PeekAt(1) == '?') {
        SkipUntil("?>");
        continue;
      }
      if (Peek() == '<' && PeekAt(1) == '!') {
        // DOCTYPE; skip to the matching '>' honoring an internal subset.
        SkipDoctype();
        continue;
      }
      return;
    }
  }

  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (ConsumeComment()) continue;
      if (!AtEnd() && Peek() == '<' && PeekAt(1) == '?') {
        SkipUntil("?>");
        continue;
      }
      return;
    }
  }

  bool ConsumeComment() {
    if (!(PeekAt(0) == '<' && PeekAt(1) == '!' && PeekAt(2) == '-' &&
          PeekAt(3) == '-')) {
      return false;
    }
    AdvanceBy(4);
    SkipUntil("-->");
    return true;
  }

  void SkipUntil(std::string_view end) {
    while (!AtEnd()) {
      if (in_.size() - pos_ >= end.size() &&
          in_.substr(pos_, end.size()) == end) {
        AdvanceBy(end.size());
        return;
      }
      Advance();
    }
  }

  void SkipDoctype() {
    // At "<!DOCTYPE". Track bracket depth for the internal subset.
    int depth = 0;
    while (!AtEnd()) {
      char c = Peek();
      Advance();
      if (c == '[') ++depth;
      if (c == ']') --depth;
      if (c == '>' && depth <= 0) return;
    }
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '.';
  }

  Status ParseName(std::string* out) {
    if (AtEnd() || !IsNameStart(Peek())) return Err("expected a name");
    size_t begin = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    *out = std::string(in_.substr(begin, pos_ - begin));
    return Status::OK();
  }

  /// Decodes one entity/char reference starting at '&'; appends to *out.
  Status ParseReference(std::string* out) {
    Advance();  // consume '&'
    size_t begin = pos_;
    while (!AtEnd() && Peek() != ';') {
      if (pos_ - begin > 16) return Err("unterminated entity reference");
      Advance();
    }
    if (AtEnd()) return Err("unterminated entity reference");
    std::string_view name = in_.substr(begin, pos_ - begin);
    Advance();  // consume ';'
    if (name == "amp") {
      *out += '&';
    } else if (name == "lt") {
      *out += '<';
    } else if (name == "gt") {
      *out += '>';
    } else if (name == "quot") {
      *out += '"';
    } else if (name == "apos") {
      *out += '\'';
    } else if (!name.empty() && name[0] == '#') {
      int base = 10;
      std::string_view digits = name.substr(1);
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      if (digits.empty()) return Err("empty character reference");
      unsigned long cp = 0;
      for (char c : digits) {
        int v;
        if (c >= '0' && c <= '9') {
          v = c - '0';
        } else if (base == 16 && c >= 'a' && c <= 'f') {
          v = c - 'a' + 10;
        } else if (base == 16 && c >= 'A' && c <= 'F') {
          v = c - 'A' + 10;
        } else {
          return Err("bad character reference");
        }
        cp = cp * static_cast<unsigned long>(base) + static_cast<unsigned long>(v);
        if (cp > 0x10FFFF) return Err("character reference out of range");
      }
      AppendUtf8(static_cast<uint32_t>(cp), out);
    } else {
      return Err("unknown entity '&" + std::string(name) + ";'");
    }
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Status ParseAttributes(bool* self_closing) {
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Err("unterminated start tag");
      if (Peek() == '>') {
        Advance();
        *self_closing = false;
        return Status::OK();
      }
      if (Peek() == '/' && PeekAt(1) == '>') {
        AdvanceBy(2);
        *self_closing = true;
        return Status::OK();
      }
      std::string name;
      FLEXPATH_RETURN_IF_ERROR(ParseName(&name));
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Err("expected '=' in attribute");
      Advance();
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Err("expected quoted attribute value");
      }
      char quote = Peek();
      Advance();
      std::string value;
      while (!AtEnd() && Peek() != quote) {
        if (Peek() == '&') {
          FLEXPATH_RETURN_IF_ERROR(ParseReference(&value));
        } else {
          value += Peek();
          Advance();
        }
      }
      if (AtEnd()) return Err("unterminated attribute value");
      Advance();  // closing quote
      FLEXPATH_RETURN_IF_ERROR(builder_.Attr(name, value));
    }
  }

  Status ParseElement() {
    if (AtEnd() || Peek() != '<') return Err("expected '<'");
    Advance();
    std::string tag;
    FLEXPATH_RETURN_IF_ERROR(ParseName(&tag));
    builder_.Open(tag);
    bool self_closing = false;
    FLEXPATH_RETURN_IF_ERROR(ParseAttributes(&self_closing));
    if (self_closing) return builder_.Close();
    return ParseContent(tag);
  }

  Status ParseContent(const std::string& open_tag) {
    std::string text;
    auto flush_text = [&]() -> Status {
      std::string_view trimmed = Trim(text);
      Status st;
      if (!trimmed.empty()) st = builder_.Text(trimmed);
      text.clear();
      return st;
    };
    for (;;) {
      if (AtEnd()) return Err("unterminated element <" + open_tag + ">");
      char c = Peek();
      if (c == '<') {
        if (PeekAt(1) == '/') {
          FLEXPATH_RETURN_IF_ERROR(flush_text());
          AdvanceBy(2);
          std::string close;
          FLEXPATH_RETURN_IF_ERROR(ParseName(&close));
          SkipWhitespace();
          if (AtEnd() || Peek() != '>') return Err("malformed end tag");
          Advance();
          if (close != open_tag) {
            return Err("mismatched end tag </" + close + ">, expected </" +
                       open_tag + ">");
          }
          return builder_.Close();
        }
        if (ConsumeComment()) continue;
        if (PeekAt(1) == '?') {
          SkipUntil("?>");
          continue;
        }
        if (PeekAt(1) == '!' && PeekAt(2) == '[') {
          // CDATA section.
          if (!ConsumeLiteral("<![CDATA[")) return Err("malformed CDATA");
          size_t begin = pos_;
          while (!AtEnd() && !(Peek() == ']' && PeekAt(1) == ']' &&
                               PeekAt(2) == '>')) {
            Advance();
          }
          if (AtEnd()) return Err("unterminated CDATA section");
          text += in_.substr(begin, pos_ - begin);
          AdvanceBy(3);
          continue;
        }
        FLEXPATH_RETURN_IF_ERROR(flush_text());
        FLEXPATH_RETURN_IF_ERROR(ParseElement());
        continue;
      }
      if (c == '&') {
        FLEXPATH_RETURN_IF_ERROR(ParseReference(&text));
        continue;
      }
      text += c;
      Advance();
    }
  }

  std::string_view in_;
  DocumentBuilder builder_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

Result<Document> ParseXml(std::string_view input, TagDict* dict) {
  XmlParser parser(input, dict);
  return parser.Parse();
}

}  // namespace flexpath
