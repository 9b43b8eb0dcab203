#ifndef SURVEYOR_SURVEYOR_API_H_
#define SURVEYOR_SURVEYOR_API_H_

#include <vector>

#include "kb/knowledge_base.h"
#include "surveyor/pipeline.h"
#include "text/document.h"
#include "text/document_source.h"
#include "text/lexicon.h"
#include "util/statusor.h"

namespace surveyor {

/// The public face of the mining side of Surveyor: one call from raw
/// documents to mined opinions (Algorithm 1 end to end). `Mine` validates
/// the configuration, runs extraction + grouping + per-pair EM + inference
/// and returns the full result — the report, the provenance and the
/// opinions that `serving::SnapshotWriter` freezes into the artifact
/// `surveyor_cli serve` answers queries from.
///
/// This facade plus SurveyorPipeline's three Run* methods are the entire
/// supported surface. Prefer the facade: it cannot be called in a wrong
/// order, and callers that only mine never need to name SurveyorPipeline
/// at all.
///
/// `kb` and `lexicon` must outlive the call. `source` must be
/// thread-safe; it is drained until exhaustion without ever materializing
/// the corpus in memory.
StatusOr<PipelineResult> Mine(const SurveyorConfig& config,
                              DocumentSource& source, const KnowledgeBase& kb,
                              const Lexicon& lexicon);

/// In-memory corpus overload for tests and laptop-scale runs.
StatusOr<PipelineResult> Mine(const SurveyorConfig& config,
                              const std::vector<RawDocument>& corpus,
                              const KnowledgeBase& kb, const Lexicon& lexicon);

}  // namespace surveyor

#endif  // SURVEYOR_SURVEYOR_API_H_
