// flexpath_pack: build and inspect packed corpus files (DESIGN.md §17).
//
//   flexpath_pack --xmark 100 --out corpus.fxp   # 100MB generated corpus
//   flexpath_pack a.xml b.xml --out corpus.fxp   # pack parsed XML files
//   flexpath_pack --inspect corpus.fxp           # header + section dump
//
// Packing parses/generates the documents, builds the inverted index and
// statistics once, and serializes everything into the page-structured
// single-file format. flexpath_cli --packed FILE (or any embedder calling
// FlexPath::OpenPacked) then maps the file and answers queries
// byte-identically to an in-memory build, without re-parsing or decoding
// anything upfront.
//
// Flags:
//   --out FILE            output path (required unless --inspect)
//   --xmark MB            generate an XMark document of ~MB megabytes
//                         (seed 42, reproducible) instead of parsing XML
//   --stem                enable stemming in the stored tokenizer options
//   --keep-stopwords      index stopwords (default drops them)
//   --subtype SUPER SUB   declare SUB a subtype of SUPER (repeatable);
//                         recorded in the element tables' merge order
//   --inspect FILE        validate FILE, print its header and section
//                         table as JSON, and exit (also the CI artifact)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/flexpath.h"
#include "storage/reader.h"
#include "xmark/generator.h"

namespace {

// Matches `--flag VALUE` or `--flag=VALUE` (same contract as
// flexpath_cli's FlagValue).
const char* FlagValue(int argc, char** argv, int* i, const char* flag) {
  const size_t len = std::strlen(flag);
  const char* arg = argv[*i];
  if (std::strncmp(arg, flag, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] == '\0' && *i + 1 < argc) return argv[++*i];
  return nullptr;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--xmark MB | file.xml ...] --out FILE\n"
               "       %s [--stem] [--keep-stopwords] [--subtype SUPER SUB]\n"
               "       %s --inspect FILE\n"
               "packs documents into the single-file corpus format, or\n"
               "validates and dumps an existing packed file as JSON\n",
               argv0, argv0, argv0);
  return 2;
}

int Inspect(const std::string& path) {
  flexpath::Result<std::shared_ptr<flexpath::storage::StorageReader>>
      reader = flexpath::storage::StorageReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 reader.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", (*reader)->InspectJson().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string inspect_path;
  double xmark_mb = 0.0;
  flexpath::TokenizerOptions tok;
  std::vector<std::string> xml_files;
  std::vector<std::pair<std::string, std::string>> subtypes;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = FlagValue(argc, argv, &i, "--out")) {
      out_path = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--inspect")) {
      inspect_path = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--xmark")) {
      if (!flexpath::ParseNonNegative(v, &xmark_mb)) {
        std::fprintf(stderr, "--xmark: expected a non-negative number of "
                             "MB, got %s\n", v);
        return Usage(argv[0]);
      }
      continue;
    }
    if (std::strcmp(argv[i], "--stem") == 0) {
      tok.stem = true;
      continue;
    }
    if (std::strcmp(argv[i], "--keep-stopwords") == 0) {
      tok.drop_stopwords = false;
      continue;
    }
    if (std::strcmp(argv[i], "--subtype") == 0 && i + 2 < argc) {
      subtypes.emplace_back(argv[i + 1], argv[i + 2]);
      i += 2;
      continue;
    }
    if (argv[i][0] == '-') return Usage(argv[0]);
    xml_files.emplace_back(argv[i]);
  }

  if (!inspect_path.empty()) {
    if (!out_path.empty() || xmark_mb > 0.0 || !xml_files.empty()) {
      return Usage(argv[0]);
    }
    return Inspect(inspect_path);
  }
  if (out_path.empty() || (xmark_mb <= 0.0 && xml_files.empty())) {
    return Usage(argv[0]);
  }

  flexpath::FlexPath fp(tok);
  for (const auto& [super_name, sub_name] : subtypes) {
    const flexpath::TagId super = fp.tags()->Intern(super_name);
    const flexpath::TagId sub = fp.tags()->Intern(sub_name);
    if (flexpath::Status st = fp.type_hierarchy()->AddSubtype(super, sub);
        !st.ok()) {
      std::fprintf(stderr, "--subtype: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  if (xmark_mb > 0.0) {
    flexpath::XMarkOptions opts;
    opts.target_bytes = static_cast<uint64_t>(xmark_mb * 1024 * 1024);
    opts.seed = 42;
    flexpath::Result<flexpath::Document> doc =
        flexpath::GenerateXMark(opts, fp.tags());
    if (!doc.ok()) {
      std::fprintf(stderr, "--xmark: %s\n", doc.status().ToString().c_str());
      return 1;
    }
    if (flexpath::Result<flexpath::DocId> id =
            fp.AddDocument(std::move(doc).value());
        !id.ok()) {
      std::fprintf(stderr, "--xmark: %s\n", id.status().ToString().c_str());
      return 1;
    }
  }
  for (const std::string& file : xml_files) {
    if (flexpath::Result<flexpath::DocId> id = fp.AddDocumentFile(file);
        !id.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   id.status().ToString().c_str());
      return 1;
    }
  }
  if (flexpath::Status st = fp.SavePacked(out_path); !st.ok()) {
    std::fprintf(stderr, "pack failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Re-open what we wrote: proves the file validates, and gives the
  // summary numbers straight from its header.
  flexpath::Result<std::shared_ptr<flexpath::storage::StorageReader>>
      reader = flexpath::storage::StorageReader::Open(out_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "packed file fails validation: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  const flexpath::storage::FileHeader& h = (*reader)->header();
  std::fprintf(stderr,
               "packed %s: %llu bytes, %llu docs, %llu nodes, %llu tags, "
               "%llu terms\n",
               out_path.c_str(),
               static_cast<unsigned long long>(h.file_bytes),
               static_cast<unsigned long long>(h.doc_count),
               static_cast<unsigned long long>(h.total_nodes),
               static_cast<unsigned long long>(h.tag_count),
               static_cast<unsigned long long>(h.term_count));
  return 0;
}
