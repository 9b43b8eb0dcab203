#ifndef SURVEYOR_SURVEYOR_OPINION_STORE_H_
#define SURVEYOR_SURVEYOR_OPINION_STORE_H_

#include <iosfwd>
#include <map>
#include <string>
#include <utility>

#include "kb/knowledge_base.h"
#include "surveyor/pipeline.h"
#include "util/status.h"

namespace surveyor {

/// The TSV export of mined opinions (`mine --out FILE`): one
/// <type, entity, property, polarity, probability> line per pair, for
/// people and for diffs. Nothing reads it back; the opinion snapshot
/// (serving/snapshot.h) is the artifact every reader opens.
class OpinionStore {
 public:
  /// `kb` must outlive the store; it resolves names on Save.
  explicit OpinionStore(const KnowledgeBase* kb);

  /// Inserts one opinion (replaces an existing tuple for the same pair).
  void Add(const PairOpinion& opinion);

  /// Inserts every non-neutral opinion of a pipeline result.
  void AddAll(const PipelineResult& result);

  size_t size() const { return by_pair_.size(); }

  /// Writes a "# surveyor opinion store v1" header, then "opinion <tab>
  /// TYPE <tab> ENTITY <tab> PROPERTY <tab> POLARITY <tab> PROBABILITY"
  /// lines in (entity id, property) order, the probability to 6 decimals.
  Status Save(std::ostream& os) const;

  Status SaveToFile(const std::string& path) const;

 private:
  const KnowledgeBase* kb_;
  /// (entity, property) -> opinion. Ordered for deterministic output.
  std::map<std::pair<EntityId, std::string>, PairOpinion> by_pair_;
};

}  // namespace surveyor

#endif  // SURVEYOR_SURVEYOR_OPINION_STORE_H_
