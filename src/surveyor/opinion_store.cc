#include "surveyor/opinion_store.h"

#include <fstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace surveyor {

OpinionStore::OpinionStore(const KnowledgeBase* kb) : kb_(kb) {
  SURVEYOR_CHECK(kb_ != nullptr);
}

void OpinionStore::Add(const PairOpinion& opinion) {
  SURVEYOR_CHECK_NE(opinion.entity, kInvalidEntity);
  SURVEYOR_CHECK(opinion.polarity != Polarity::kNeutral);
  by_pair_[{opinion.entity, opinion.property}] = opinion;
}

void OpinionStore::AddAll(const PipelineResult& result) {
  for (const PairOpinion& opinion : result.Opinions()) Add(opinion);
}

Status OpinionStore::Save(std::ostream& os) const {
  os << "# surveyor opinion store v1\n";
  for (const auto& [key, opinion] : by_pair_) {
    os << "opinion\t" << kb_->TypeName(opinion.type) << "\t"
       << kb_->entity(opinion.entity).canonical_name << "\t"
       << opinion.property << "\t" << PolarityName(opinion.polarity) << "\t"
       << StrFormat("%.6f", opinion.probability) << "\n";
  }
  if (!os.good()) return Status::Internal("write failure");
  return Status::OK();
}

Status OpinionStore::SaveToFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return Status::NotFound("cannot open '" + path + "' for writing");
  return Save(os);
}

}  // namespace surveyor
