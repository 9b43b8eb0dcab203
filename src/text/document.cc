#include "text/document.h"

#include <fstream>
#include <istream>
#include <ostream>

#include "util/string_util.h"

namespace surveyor {

std::vector<RawDocument> FilterByDomain(const std::vector<RawDocument>& corpus,
                                        const std::string& domain) {
  if (domain.empty()) return corpus;
  std::vector<RawDocument> filtered;
  for (const RawDocument& doc : corpus) {
    if (doc.domain == domain) filtered.push_back(doc);
  }
  return filtered;
}

Status SaveCorpus(const std::vector<RawDocument>& corpus, std::ostream& os) {
  os << "# surveyor corpus v1\n";
  for (const RawDocument& doc : corpus) {
    if (doc.text.find('\t') != std::string::npos ||
        doc.text.find('\n') != std::string::npos) {
      return Status::InvalidArgument(
          "document text must not contain tabs or newlines");
    }
    os << doc.doc_id << "\t" << doc.domain << "\t" << doc.text << "\n";
  }
  if (!os.good()) return Status::Internal("write failure");
  return Status::OK();
}

StatusOr<std::vector<RawDocument>> LoadCorpus(std::istream& is) {
  std::vector<RawDocument> corpus;
  std::string line;
  int line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 3) {
      return Status::InvalidArgument(
          StrFormat("line %d: expected 3 tab-separated fields", line_number));
    }
    RawDocument doc;
    try {
      doc.doc_id = std::stoll(fields[0]);
    } catch (...) {
      return Status::InvalidArgument(
          StrFormat("line %d: bad document id '%s'", line_number,
                    fields[0].c_str()));
    }
    doc.domain = fields[1];
    doc.text = fields[2];
    corpus.push_back(std::move(doc));
  }
  return corpus;
}

Status SaveCorpusToFile(const std::vector<RawDocument>& corpus,
                        const std::string& path) {
  std::ofstream os(path);
  if (!os) return Status::NotFound("cannot open '" + path + "' for writing");
  return SaveCorpus(corpus, os);
}

}  // namespace surveyor
