#ifndef SURVEYOR_TEXT_DOCUMENT_H_
#define SURVEYOR_TEXT_DOCUMENT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace surveyor {

/// A raw input document: plain text, no annotations. The pipeline's
/// external input format — whether it comes from the corpus simulator or
/// from files on disk.
struct RawDocument {
  int64_t doc_id = 0;
  std::string text;
  /// Source region / domain extension ("us", "uk", ...); empty when
  /// unknown. Restricting the pipeline input to one domain specializes the
  /// mined opinions to that user group (paper Section 2).
  std::string domain;
};

/// Returns the documents whose domain matches (all documents when
/// `domain` is empty).
std::vector<RawDocument> FilterByDomain(const std::vector<RawDocument>& corpus,
                                        const std::string& domain);

/// Writes a corpus as TSV lines "DOC_ID <tab> DOMAIN <tab> TEXT" (one
/// document per line; document text must not contain tabs or newlines).
Status SaveCorpus(const std::vector<RawDocument>& corpus, std::ostream& os);

/// Parses the format written by SaveCorpus.
StatusOr<std::vector<RawDocument>> LoadCorpus(std::istream& is);

Status SaveCorpusToFile(const std::vector<RawDocument>& corpus,
                        const std::string& path);

}  // namespace surveyor

#endif  // SURVEYOR_TEXT_DOCUMENT_H_
