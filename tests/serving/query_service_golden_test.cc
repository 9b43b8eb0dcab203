// Golden response bytes for every /v1 query shape: status, content type
// and body, byte for byte, over a fixture snapshot whose names need JSON
// escaping and whose posteriors cover the number formatter's branches. A
// change to how answers are decoded or rendered must leave every byte
// here as it is.
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "serving/opinion_index.h"
#include "serving/query_service.h"
#include "serving/snapshot.h"
#include "util/fault.h"

namespace surveyor {
namespace serving {
namespace {

void AddOpinion(SnapshotWriter* writer, const std::string& entity,
                const std::string& type, const std::string& property,
                double posterior, Polarity polarity, bool degraded = false) {
  SnapshotOpinion opinion;
  opinion.entity = entity;
  opinion.type = type;
  opinion.property = property;
  opinion.posterior = posterior;
  opinion.polarity = polarity;
  opinion.degraded = degraded;
  ASSERT_TRUE(writer->Add(opinion).ok()) << entity;
}

/// The fixture: one large (animal, cute) block for scans and prefixes,
/// names holding a quote, a backslash, a control byte, UTF-8 bytes and a
/// space, posteriors 0, 1, 1e-12, 0.9999999876 and 5.944513633e-31, a
/// degraded (city, safe) block, and three provenance refs on kitten.
std::string WriteGoldenSnapshot() {
  SnapshotWriter writer;
  writer.set_label("golden");
  const Polarity pos = Polarity::kPositive;
  const Polarity neg = Polarity::kNegative;
  AddOpinion(&writer, "kitten", "animal", "cute", 0.97, pos);
  AddOpinion(&writer, "koala", "animal", "cute", 0.91, pos);
  AddOpinion(&writer, "kiwi", "animal", "cute", 1.0, pos);
  AddOpinion(&writer, "kit-01", "animal", "cute", 0.9999999876, pos);
  AddOpinion(&writer, "kit-02", "animal", "cute", 0.85, pos);
  AddOpinion(&writer, "kit-03", "animal", "cute", 0.85, pos);
  AddOpinion(&writer, "kit-04", "animal", "cute", 0.8, pos);
  AddOpinion(&writer, "kit-05", "animal", "cute", 0.75, pos);
  AddOpinion(&writer, "kit-06", "animal", "cute", 0.7, pos);
  AddOpinion(&writer, "kit-07", "animal", "cute", 0.65, pos);
  AddOpinion(&writer, "kit-08", "animal", "cute", 0.6, pos);
  AddOpinion(&writer, "kit-09", "animal", "cute", 0.55, pos);
  AddOpinion(&writer, "Quote\"Cat", "animal", "cute", 0.5, pos);
  AddOpinion(&writer, "Back\\Slash", "animal", "cute", 0.6, pos);
  AddOpinion(&writer, "Ctl\x01" "Dog", "animal", "cute", 0.45, pos);
  AddOpinion(&writer, "Caf\xc3\xa9", "animal", "cute", 0.52, pos);
  AddOpinion(&writer, "Sea Lion", "animal", "cute", 0.66, pos);
  AddOpinion(&writer, "spider", "animal", "cute", 0.0, neg);
  AddOpinion(&writer, "slug", "animal", "cute", 1e-12, neg);
  AddOpinion(&writer, "mole", "animal", "cute", 5.944513633e-31, neg);
  AddOpinion(&writer, "spider", "animal", "scary", 0.95, pos);
  AddOpinion(&writer, "Lisbon", "city", "safe", 0.8, pos, true);
  AddOpinion(&writer, "Porto", "city", "safe", 0.7, pos, true);
  AddOpinion(&writer, "Berlin", "city", "safe", 0.3, neg, true);
  writer.AddProvenance("kitten", "animal", "cute",
                       {{42, 1, true}, {7, 0, false}, {9000000000, 12, true}});
  const std::string path = testing::TempDir() + "/query_service_golden.surv";
  EXPECT_TRUE(writer.WriteToFile(path).ok());
  return path;
}

struct Golden {
  const char* method;
  const char* target;
  std::string body;
  int status;
  std::string want;
};

class QueryServiceGoldenTest : public testing::Test {
 protected:
  QueryServiceGoldenTest() {
    EXPECT_TRUE(index_.Load(WriteGoldenSnapshot()).ok());
    stage_.SetStage(obs::PipelineStage::kServing);
  }

  /// max_results 11 caps the 16-positive block; max_batch 8 makes the
  /// oversized batch small.
  static QueryServiceOptions Options() {
    QueryServiceOptions options;
    options.max_results = 11;
    options.max_batch = 8;
    return options;
  }

  void ExpectGolden(const std::vector<Golden>& cases) {
    QueryService service(&index_, &stage_, &metrics_, Options());
    for (const Golden& c : cases) {
      const obs::AdminResponse response =
          service.Handle(c.method, c.target, c.body);
      EXPECT_EQ(response.status, c.status) << c.method << " " << c.target;
      EXPECT_EQ(response.content_type, "application/json") << c.target;
      EXPECT_EQ(response.body, c.want) << c.method << " " << c.target;
      EXPECT_TRUE(response.headers.empty()) << c.target;
    }
  }

  ScopedFaults disarm_{""};
  OpinionIndex index_;
  obs::StageTracker stage_;
  obs::MetricRegistry metrics_;
};

TEST_F(QueryServiceGoldenTest, PointLookups) {
  ExpectGolden({
      // A hit with provenance; the same answer for any casing.
      {"GET", "/v1/query?entity=kitten&property=cute", "", 200,
       "{\"data\":{\"entity\":\"kitten\",\"type\":\"animal\",\"property\":\""
       "cute\",\"posterior\":0.97,\"polarity\":\"+\",\"degraded\":false,\"pr"
       "ovenance\":[{\"doc_id\":42,\"sentence\":1,\"positive\":true},{\"doc_"
       "id\":7,\"sentence\":0,\"positive\":false},{\"doc_id\":9000000000,\"s"
       "entence\":12,\"positive\":true}]}}\n"},
      {"GET", "/v1/query?entity=KiTTeN&property=CUTE", "", 200,
       "{\"data\":{\"entity\":\"kitten\",\"type\":\"animal\",\"property\":\""
       "cute\",\"posterior\":0.97,\"polarity\":\"+\",\"degraded\":false,\"pr"
       "ovenance\":[{\"doc_id\":42,\"sentence\":1,\"positive\":true},{\"doc_"
       "id\":7,\"sentence\":0,\"positive\":false},{\"doc_id\":9000000000,\"s"
       "entence\":12,\"positive\":true}]}}\n"},
      {"HEAD", "/v1/query?entity=kitten&property=cute", "", 200,
       "{\"data\":{\"entity\":\"kitten\",\"type\":\"animal\",\"property\":\""
       "cute\",\"posterior\":0.97,\"polarity\":\"+\",\"degraded\":false,\"pr"
       "ovenance\":[{\"doc_id\":42,\"sentence\":1,\"positive\":true},{\"doc_"
       "id\":7,\"sentence\":0,\"positive\":false},{\"doc_id\":9000000000,\"s"
       "entence\":12,\"positive\":true}]}}\n"},
      // Both miss messages, one naming a quote.
      {"GET", "/v1/query?entity=nobody&property=cute", "", 404,
       "{\"error\":{\"code\":\"not_found\",\"message\":\"unknown entity 'nob"
       "ody'\"}}\n"},
      {"GET", "/v1/query?entity=kitten&property=haunted", "", 404,
       "{\"error\":{\"code\":\"not_found\",\"message\":\"no opinion for enti"
       "ty 'kitten' property 'haunted'\"}}\n"},
      {"GET", "/v1/query?entity=no%22body&property=cute", "", 404,
       "{\"error\":{\"code\":\"not_found\",\"message\":\"unknown entity 'no"
       "\\\"body'\"}}\n"},
      // Names that need escaping, percent- and plus-encoded.
      {"GET", "/v1/query?entity=Quote%22Cat&property=cute", "", 200,
       "{\"data\":{\"entity\":\"Quote\\\"Cat\",\"type\":\"animal\",\"propert"
       "y\":\"cute\",\"posterior\":0.5,\"polarity\":\"+\",\"degraded\":false"
       "}}\n"},
      {"GET", "/v1/query?entity=Back%5CSlash&property=cute", "", 200,
       "{\"data\":{\"entity\":\"Back\\\\Slash\",\"type\":\"animal\",\"proper"
       "ty\":\"cute\",\"posterior\":0.6,\"polarity\":\"+\",\"degraded\":fals"
       "e}}\n"},
      {"GET", "/v1/query?entity=Ctl%01Dog&property=cute", "", 200,
       "{\"data\":{\"entity\":\"Ctl\\u0001Dog\",\"type\":\"animal\",\"proper"
       "ty\":\"cute\",\"posterior\":0.45,\"polarity\":\"+\",\"degraded\":fal"
       "se}}\n"},
      {"GET", "/v1/query?entity=Caf%C3%A9&property=cute", "", 200,
       "{\"data\":{\"entity\":\"Caf\xc3\xa9\",\"type\":\"animal\",\"property"
       "\":\"cute\",\"posterior\":0.52,\"polarity\":\"+\",\"degraded\":false"
       "}}\n"},
      {"GET", "/v1/query?entity=sea+lion&property=cute", "", 200,
       "{\"data\":{\"entity\":\"Sea Lion\",\"type\":\"animal\",\"property\":"
       "\"cute\",\"posterior\":0.66,\"polarity\":\"+\",\"degraded\":false}}"
       "\n"},
      {"GET", "/v1/query?property=cute&entity=Sea%20Lion", "", 200,
       "{\"data\":{\"entity\":\"Sea Lion\",\"type\":\"animal\",\"property\":"
       "\"cute\",\"posterior\":0.66,\"polarity\":\"+\",\"degraded\":false}}"
       "\n"},
      // Posteriors 1, 0.9999999876, 0, 1e-12 and 5.944513633e-31.
      {"GET", "/v1/query?entity=kiwi&property=cute", "", 200,
       "{\"data\":{\"entity\":\"kiwi\",\"type\":\"animal\",\"property\":\"cu"
       "te\",\"posterior\":1,\"polarity\":\"+\",\"degraded\":false}}\n"},
      {"GET", "/v1/query?entity=kit-01&property=cute", "", 200,
       "{\"data\":{\"entity\":\"kit-01\",\"type\":\"animal\",\"property\":\""
       "cute\",\"posterior\":0.9999999876,\"polarity\":\"+\",\"degraded\":fa"
       "lse}}\n"},
      {"GET", "/v1/query?entity=spider&property=cute", "", 200,
       "{\"data\":{\"entity\":\"spider\",\"type\":\"animal\",\"property\":\""
       "cute\",\"posterior\":0,\"polarity\":\"-\",\"degraded\":false}}\n"},
      {"GET", "/v1/query?entity=slug&property=cute", "", 200,
       "{\"data\":{\"entity\":\"slug\",\"type\":\"animal\",\"property\":\"cu"
       "te\",\"posterior\":1e-12,\"polarity\":\"-\",\"degraded\":false}}\n"},
      {"GET", "/v1/query?entity=mole&property=cute", "", 200,
       "{\"data\":{\"entity\":\"mole\",\"type\":\"animal\",\"property\":\"cu"
       "te\",\"posterior\":5.944513633e-31,\"polarity\":\"-\",\"degraded\":f"
       "alse}}\n"},
      // A degraded block; a repeated parameter (the last one wins).
      {"GET", "/v1/query?entity=lisbon&property=safe", "", 200,
       "{\"data\":{\"entity\":\"Lisbon\",\"type\":\"city\",\"property\":\"sa"
       "fe\",\"posterior\":0.8,\"polarity\":\"+\",\"degraded\":true}}\n"},
      {"GET", "/v1/query?entity=x&entity=koala&property=cute", "", 200,

       "{\"data\":{\"entity\":\"koala\",\"type\":\"animal\",\"property\":\"c"
       "ute\",\"posterior\":0.91,\"polarity\":\"+\",\"degraded\":false}}\n"},
  });
}

TEST_F(QueryServiceGoldenTest, TypeScans) {
  ExpectGolden({
      // limit 0 and a limit above max_results both give max_results.
      {"GET", "/v1/query?type=animal&property=cute", "", 200,
       "{\"data\":{\"results\":[{\"entity\":\"kiwi\",\"type\":\"animal\",\"p"
       "roperty\":\"cute\",\"posterior\":1,\"polarity\":\"+\",\"degraded\":f"
       "alse},{\"entity\":\"kit-01\",\"type\":\"animal\",\"property\":\"cute"
       "\",\"posterior\":0.9999999876,\"polarity\":\"+\",\"degraded\":false}"
       ",{\"entity\":\"kitten\",\"type\":\"animal\",\"property\":\"cute\",\""
       "posterior\":0.97,\"polarity\":\"+\",\"degraded\":false,\"provenance"
       "\":[{\"doc_id\":42,\"sentence\":1,\"positive\":true},{\"doc_id\":7,"
       "\"sentence\":0,\"positive\":false},{\"doc_id\":9000000000,\"sentence"
       "\":12,\"positive\":true}]},{\"entity\":\"koala\",\"type\":\"animal\""
       ",\"property\":\"cute\",\"posterior\":0.91,\"polarity\":\"+\",\"degra"
       "ded\":false},{\"entity\":\"kit-02\",\"type\":\"animal\",\"property\""
       ":\"cute\",\"posterior\":0.85,\"polarity\":\"+\",\"degraded\":false},"
       "{\"entity\":\"kit-03\",\"type\":\"animal\",\"property\":\"cute\",\"p"
       "osterior\":0.85,\"polarity\":\"+\",\"degraded\":false},{\"entity\":"
       "\"kit-04\",\"type\":\"animal\",\"property\":\"cute\",\"posterior\":0"
       ".8,\"polarity\":\"+\",\"degraded\":false},{\"entity\":\"kit-05\",\"t"
       "ype\":\"animal\",\"property\":\"cute\",\"posterior\":0.75,\"polarity"
       "\":\"+\",\"degraded\":false},{\"entity\":\"kit-06\",\"type\":\"anima"
       "l\",\"property\":\"cute\",\"posterior\":0.7,\"polarity\":\"+\",\"deg"
       "raded\":false},{\"entity\":\"Sea Lion\",\"type\":\"animal\",\"proper"
       "ty\":\"cute\",\"posterior\":0.66,\"polarity\":\"+\",\"degraded\":fal"
       "se},{\"entity\":\"kit-07\",\"type\":\"animal\",\"property\":\"cute\""
       ",\"posterior\":0.65,\"polarity\":\"+\",\"degraded\":false}]}}\n"},
      {"GET", "/v1/query?type=animal&property=cute&limit=1", "", 200,
       "{\"data\":{\"results\":[{\"entity\":\"kiwi\",\"type\":\"animal\",\"p"
       "roperty\":\"cute\",\"posterior\":1,\"polarity\":\"+\",\"degraded\":f"
       "alse}]}}\n"},
      {"GET", "/v1/query?type=animal&property=cute&limit=10", "", 200,
       "{\"data\":{\"results\":[{\"entity\":\"kiwi\",\"type\":\"animal\",\"p"
       "roperty\":\"cute\",\"posterior\":1,\"polarity\":\"+\",\"degraded\":f"
       "alse},{\"entity\":\"kit-01\",\"type\":\"animal\",\"property\":\"cute"
       "\",\"posterior\":0.9999999876,\"polarity\":\"+\",\"degraded\":false}"
       ",{\"entity\":\"kitten\",\"type\":\"animal\",\"property\":\"cute\",\""
       "posterior\":0.97,\"polarity\":\"+\",\"degraded\":false,\"provenance"
       "\":[{\"doc_id\":42,\"sentence\":1,\"positive\":true},{\"doc_id\":7,"
       "\"sentence\":0,\"positive\":false},{\"doc_id\":9000000000,\"sentence"
       "\":12,\"positive\":true}]},{\"entity\":\"koala\",\"type\":\"animal\""
       ",\"property\":\"cute\",\"posterior\":0.91,\"polarity\":\"+\",\"degra"
       "ded\":false},{\"entity\":\"kit-02\",\"type\":\"animal\",\"property\""
       ":\"cute\",\"posterior\":0.85,\"polarity\":\"+\",\"degraded\":false},"
       "{\"entity\":\"kit-03\",\"type\":\"animal\",\"property\":\"cute\",\"p"
       "osterior\":0.85,\"polarity\":\"+\",\"degraded\":false},{\"entity\":"
       "\"kit-04\",\"type\":\"animal\",\"property\":\"cute\",\"posterior\":0"
       ".8,\"polarity\":\"+\",\"degraded\":false},{\"entity\":\"kit-05\",\"t"
       "ype\":\"animal\",\"property\":\"cute\",\"posterior\":0.75,\"polarity"
       "\":\"+\",\"degraded\":false},{\"entity\":\"kit-06\",\"type\":\"anima"
       "l\",\"property\":\"cute\",\"posterior\":0.7,\"polarity\":\"+\",\"deg"
       "raded\":false},{\"entity\":\"Sea Lion\",\"type\":\"animal\",\"proper"
       "ty\":\"cute\",\"posterior\":0.66,\"polarity\":\"+\",\"degraded\":fal"
       "se}]}}\n"},
      {"GET", "/v1/query?type=animal&property=cute&limit=50", "", 200,
       "{\"data\":{\"results\":[{\"entity\":\"kiwi\",\"type\":\"animal\",\"p"
       "roperty\":\"cute\",\"posterior\":1,\"polarity\":\"+\",\"degraded\":f"
       "alse},{\"entity\":\"kit-01\",\"type\":\"animal\",\"property\":\"cute"
       "\",\"posterior\":0.9999999876,\"polarity\":\"+\",\"degraded\":false}"
       ",{\"entity\":\"kitten\",\"type\":\"animal\",\"property\":\"cute\",\""
       "posterior\":0.97,\"polarity\":\"+\",\"degraded\":false,\"provenance"
       "\":[{\"doc_id\":42,\"sentence\":1,\"positive\":true},{\"doc_id\":7,"
       "\"sentence\":0,\"positive\":false},{\"doc_id\":9000000000,\"sentence"
       "\":12,\"positive\":true}]},{\"entity\":\"koala\",\"type\":\"animal\""
       ",\"property\":\"cute\",\"posterior\":0.91,\"polarity\":\"+\",\"degra"
       "ded\":false},{\"entity\":\"kit-02\",\"type\":\"animal\",\"property\""
       ":\"cute\",\"posterior\":0.85,\"polarity\":\"+\",\"degraded\":false},"
       "{\"entity\":\"kit-03\",\"type\":\"animal\",\"property\":\"cute\",\"p"
       "osterior\":0.85,\"polarity\":\"+\",\"degraded\":false},{\"entity\":"
       "\"kit-04\",\"type\":\"animal\",\"property\":\"cute\",\"posterior\":0"
       ".8,\"polarity\":\"+\",\"degraded\":false},{\"entity\":\"kit-05\",\"t"
       "ype\":\"animal\",\"property\":\"cute\",\"posterior\":0.75,\"polarity"
       "\":\"+\",\"degraded\":false},{\"entity\":\"kit-06\",\"type\":\"anima"
       "l\",\"property\":\"cute\",\"posterior\":0.7,\"polarity\":\"+\",\"deg"
       "raded\":false},{\"entity\":\"Sea Lion\",\"type\":\"animal\",\"proper"
       "ty\":\"cute\",\"posterior\":0.66,\"polarity\":\"+\",\"degraded\":fal"
       "se},{\"entity\":\"kit-07\",\"type\":\"animal\",\"property\":\"cute\""
       ",\"posterior\":0.65,\"polarity\":\"+\",\"degraded\":false}]}}\n"},
      {"GET", "/v1/query?type=ANIMAL&property=Cute&limit=0", "", 200,
       "{\"data\":{\"results\":[{\"entity\":\"kiwi\",\"type\":\"animal\",\"p"
       "roperty\":\"cute\",\"posterior\":1,\"polarity\":\"+\",\"degraded\":f"
       "alse},{\"entity\":\"kit-01\",\"type\":\"animal\",\"property\":\"cute"
       "\",\"posterior\":0.9999999876,\"polarity\":\"+\",\"degraded\":false}"
       ",{\"entity\":\"kitten\",\"type\":\"animal\",\"property\":\"cute\",\""
       "posterior\":0.97,\"polarity\":\"+\",\"degraded\":false,\"provenance"
       "\":[{\"doc_id\":42,\"sentence\":1,\"positive\":true},{\"doc_id\":7,"
       "\"sentence\":0,\"positive\":false},{\"doc_id\":9000000000,\"sentence"
       "\":12,\"positive\":true}]},{\"entity\":\"koala\",\"type\":\"animal\""
       ",\"property\":\"cute\",\"posterior\":0.91,\"polarity\":\"+\",\"degra"
       "ded\":false},{\"entity\":\"kit-02\",\"type\":\"animal\",\"property\""
       ":\"cute\",\"posterior\":0.85,\"polarity\":\"+\",\"degraded\":false},"
       "{\"entity\":\"kit-03\",\"type\":\"animal\",\"property\":\"cute\",\"p"
       "osterior\":0.85,\"polarity\":\"+\",\"degraded\":false},{\"entity\":"
       "\"kit-04\",\"type\":\"animal\",\"property\":\"cute\",\"posterior\":0"
       ".8,\"polarity\":\"+\",\"degraded\":false},{\"entity\":\"kit-05\",\"t"
       "ype\":\"animal\",\"property\":\"cute\",\"posterior\":0.75,\"polarity"
       "\":\"+\",\"degraded\":false},{\"entity\":\"kit-06\",\"type\":\"anima"
       "l\",\"property\":\"cute\",\"posterior\":0.7,\"polarity\":\"+\",\"deg"
       "raded\":false},{\"entity\":\"Sea Lion\",\"type\":\"animal\",\"proper"
       "ty\":\"cute\",\"posterior\":0.66,\"polarity\":\"+\",\"degraded\":fal"
       "se},{\"entity\":\"kit-07\",\"type\":\"animal\",\"property\":\"cute\""
       ",\"posterior\":0.65,\"polarity\":\"+\",\"degraded\":false}]}}\n"},
      {"GET", "/v1/query?type=animal&property=cute&limit=-3", "", 200,
       "{\"data\":{\"results\":[{\"entity\":\"kiwi\",\"type\":\"animal\",\"p"
       "roperty\":\"cute\",\"posterior\":1,\"polarity\":\"+\",\"degraded\":f"
       "alse},{\"entity\":\"kit-01\",\"type\":\"animal\",\"property\":\"cute"
       "\",\"posterior\":0.9999999876,\"polarity\":\"+\",\"degraded\":false}"
       ",{\"entity\":\"kitten\",\"type\":\"animal\",\"property\":\"cute\",\""
       "posterior\":0.97,\"polarity\":\"+\",\"degraded\":false,\"provenance"
       "\":[{\"doc_id\":42,\"sentence\":1,\"positive\":true},{\"doc_id\":7,"
       "\"sentence\":0,\"positive\":false},{\"doc_id\":9000000000,\"sentence"
       "\":12,\"positive\":true}]},{\"entity\":\"koala\",\"type\":\"animal\""
       ",\"property\":\"cute\",\"posterior\":0.91,\"polarity\":\"+\",\"degra"
       "ded\":false},{\"entity\":\"kit-02\",\"type\":\"animal\",\"property\""
       ":\"cute\",\"posterior\":0.85,\"polarity\":\"+\",\"degraded\":false},"
       "{\"entity\":\"kit-03\",\"type\":\"animal\",\"property\":\"cute\",\"p"
       "osterior\":0.85,\"polarity\":\"+\",\"degraded\":false},{\"entity\":"
       "\"kit-04\",\"type\":\"animal\",\"property\":\"cute\",\"posterior\":0"
       ".8,\"polarity\":\"+\",\"degraded\":false},{\"entity\":\"kit-05\",\"t"
       "ype\":\"animal\",\"property\":\"cute\",\"posterior\":0.75,\"polarity"
       "\":\"+\",\"degraded\":false},{\"entity\":\"kit-06\",\"type\":\"anima"
       "l\",\"property\":\"cute\",\"posterior\":0.7,\"polarity\":\"+\",\"deg"
       "raded\":false},{\"entity\":\"Sea Lion\",\"type\":\"animal\",\"proper"
       "ty\":\"cute\",\"posterior\":0.66,\"polarity\":\"+\",\"degraded\":fal"
       "se},{\"entity\":\"kit-07\",\"type\":\"animal\",\"property\":\"cute\""
       ",\"posterior\":0.65,\"polarity\":\"+\",\"degraded\":false}]}}\n"},
      {"GET", "/v1/query?type=animal&property=cute&limit=2x", "", 200,
       "{\"data\":{\"results\":[{\"entity\":\"kiwi\",\"type\":\"animal\",\"p"
       "roperty\":\"cute\",\"posterior\":1,\"polarity\":\"+\",\"degraded\":f"
       "alse},{\"entity\":\"kit-01\",\"type\":\"animal\",\"property\":\"cute"
       "\",\"posterior\":0.9999999876,\"polarity\":\"+\",\"degraded\":false}"
       ",{\"entity\":\"kitten\",\"type\":\"animal\",\"property\":\"cute\",\""
       "posterior\":0.97,\"polarity\":\"+\",\"degraded\":false,\"provenance"
       "\":[{\"doc_id\":42,\"sentence\":1,\"positive\":true},{\"doc_id\":7,"
       "\"sentence\":0,\"positive\":false},{\"doc_id\":9000000000,\"sentence"
       "\":12,\"positive\":true}]},{\"entity\":\"koala\",\"type\":\"animal\""
       ",\"property\":\"cute\",\"posterior\":0.91,\"polarity\":\"+\",\"degra"
       "ded\":false},{\"entity\":\"kit-02\",\"type\":\"animal\",\"property\""
       ":\"cute\",\"posterior\":0.85,\"polarity\":\"+\",\"degraded\":false},"
       "{\"entity\":\"kit-03\",\"type\":\"animal\",\"property\":\"cute\",\"p"
       "osterior\":0.85,\"polarity\":\"+\",\"degraded\":false},{\"entity\":"
       "\"kit-04\",\"type\":\"animal\",\"property\":\"cute\",\"posterior\":0"
       ".8,\"polarity\":\"+\",\"degraded\":false},{\"entity\":\"kit-05\",\"t"
       "ype\":\"animal\",\"property\":\"cute\",\"posterior\":0.75,\"polarity"
       "\":\"+\",\"degraded\":false},{\"entity\":\"kit-06\",\"type\":\"anima"
       "l\",\"property\":\"cute\",\"posterior\":0.7,\"polarity\":\"+\",\"deg"
       "raded\":false},{\"entity\":\"Sea Lion\",\"type\":\"animal\",\"proper"
       "ty\":\"cute\",\"posterior\":0.66,\"polarity\":\"+\",\"degraded\":fal"
       "se},{\"entity\":\"kit-07\",\"type\":\"animal\",\"property\":\"cute\""
       ",\"posterior\":0.65,\"polarity\":\"+\",\"degraded\":false}]}}\n"},
      {"GET", "/v1/query?type=city&property=safe", "", 200,
       "{\"data\":{\"results\":[{\"entity\":\"Lisbon\",\"type\":\"city\",\"p"
       "roperty\":\"safe\",\"posterior\":0.8,\"polarity\":\"+\",\"degraded\""
       ":true},{\"entity\":\"Porto\",\"type\":\"city\",\"property\":\"safe\""
       ",\"posterior\":0.7,\"polarity\":\"+\",\"degraded\":true}]}}\n"},
      {"GET", "/v1/query?type=animal&property=haunted", "", 200,
       "{\"data\":{\"results\":[]}}\n"},
  });
}

TEST_F(QueryServiceGoldenTest, PrefixScans) {
  ExpectGolden({
      {"GET", "/v1/query?prefix=k", "", 200,
       "{\"data\":{\"entities\":[\"kit-01\",\"kit-02\",\"kit-03\",\"kit-04\""
       ",\"kit-05\",\"kit-06\",\"kit-07\",\"kit-08\",\"kit-09\",\"kitten\","
       "\"kiwi\"]}}\n"},
      {"GET", "/v1/query?prefix=k&limit=10", "", 200,
       "{\"data\":{\"entities\":[\"kit-01\",\"kit-02\",\"kit-03\",\"kit-04\""
       ",\"kit-05\",\"kit-06\",\"kit-07\",\"kit-08\",\"kit-09\",\"kitten\"]}"
       "}\n"},
      {"GET", "/v1/query?prefix=KI&limit=10", "", 200,
       "{\"data\":{\"entities\":[\"kit-01\",\"kit-02\",\"kit-03\",\"kit-04\""
       ",\"kit-05\",\"kit-06\",\"kit-07\",\"kit-08\",\"kit-09\",\"kitten\"]}"
       "}\n"},
      {"GET", "/v1/query?prefix=zz", "", 200, "{\"data\":{\"entities\":[]}}\n"},
  });
}

TEST_F(QueryServiceGoldenTest, Batches) {
  ExpectGolden({
      // Hits, both misses and an {} entry, in request order.
      {"POST", "/v1/query/batch",
       "{\"queries\":[{\"entity\":\"kitten\",\"property\":\"cute\"},"
       "{\"entity\":\"nobody\",\"property\":\"cute\"},"
       "{\"entity\":\"kitten\",\"property\":\"haunted\"},{},"
       "{\"entity\":\"Lisbon\",\"property\":\"safe\"}]}",
       200,
       "{\"data\":{\"results\":[{\"entity\":\"kitten\",\"type\":\"animal\","
       "\"property\":\"cute\",\"posterior\":0.97,\"polarity\":\"+\",\"degrad"
       "ed\":false,\"provenance\":[{\"doc_id\":42,\"sentence\":1,\"positive"
       "\":true},{\"doc_id\":7,\"sentence\":0,\"positive\":false},{\"doc_id"
       "\":9000000000,\"sentence\":12,\"positive\":true}]},{\"error\":{\"cod"
       "e\":\"not_found\",\"message\":\"unknown entity 'nobody'\"}},{\"error"
       "\":{\"code\":\"not_found\",\"message\":\"no opinion for entity 'kitt"
       "en' property 'haunted'\"}},{\"error\":{\"code\":\"not_found\",\"mess"
       "age\":\"unknown entity ''\"}},{\"entity\":\"Lisbon\",\"type\":\"city"
       "\",\"property\":\"safe\",\"posterior\":0.8,\"polarity\":\"+\",\"degr"
       "aded\":true}]}}\n"},
      // Every escape BatchParser accepts, whitespace and an ignored key.
      {"POST", "/v1/query/batch",
       " {\"queries\" : [ {\"entity\":\"Quote\\\"Cat\",\"property\":"
       "\"cute\"} , {\"property\":\"cute\",\"entity\":\"Back\\\\Slash\"},"
       "{\"entity\":\"a\\/b\",\"property\":\"cute\"},"
       "{\"entity\":\"kitten\",\"note\":\"x\",\"property\":\"c\\nd\"},"
       "{\"entity\":\"t\\tt\",\"property\":\"r\\rr\"}]}\n",
       200,
       "{\"data\":{\"results\":[{\"entity\":\"Quote\\\"Cat\",\"type\":\"anim"
       "al\",\"property\":\"cute\",\"posterior\":0.5,\"polarity\":\"+\",\"de"
       "graded\":false},{\"entity\":\"Back\\\\Slash\",\"type\":\"animal\",\""
       "property\":\"cute\",\"posterior\":0.6,\"polarity\":\"+\",\"degraded"
       "\":false},{\"error\":{\"code\":\"not_found\",\"message\":\"unknown e"
       "ntity 'a/b'\"}},{\"error\":{\"code\":\"not_found\",\"message\":\"no "
       "opinion for entity 'kitten' property 'c\\nd'\"}},{\"error\":{\"code"
       "\":\"not_found\",\"message\":\"unknown entity 't\\tt'\"}}]}}\n"},
      {"POST", "/v1/query/batch", "{\"queries\":[]}", 200,
       "{\"data\":{\"results\":[]}}\n"},
      // \u escapes are refused, as is anything but the one shape.
      {"POST", "/v1/query/batch",
       "{\"queries\":[{\"entity\":\"\\u0041\",\"property\":\"cute\"}]}", 400,

       "{\"error\":{\"code\":\"invalid_argument\",\"message\":\"body must be"
       " {\\\"queries\\\":[{\\\"entity\\\":..,\\\"property\\\":..},..]}\"}}"
       "\n"},
      {"POST", "/v1/query/batch", "{\"queries\":[{\"entity\":1}]}", 400,

       "{\"error\":{\"code\":\"invalid_argument\",\"message\":\"body must be"
       " {\\\"queries\\\":[{\\\"entity\\\":..,\\\"property\\\":..},..]}\"}}"
       "\n"},
      {"POST", "/v1/query/batch",
       "{\"queries\":[{},{},{},{},{},{},{},{},{}]}", 400,
       "{\"error\":{\"code\":\"invalid_argument\",\"message\":\"batch too la"
       "rge (max 8)\"}}\n"},
  });
}

TEST_F(QueryServiceGoldenTest, NotReadyIs503WithRetryAfter) {
  obs::StageTracker cold;
  QueryService service(&index_, &cold, &metrics_, Options());
  const obs::AdminResponse response =
      service.Handle("GET", "/v1/query?entity=kitten&property=cute", "");
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_EQ(response.body,
      "{\"error\":{\"code\":\"unavailable\",\"message\":\"index not ready (s"
      "tage starting)\"}}\n");
  ASSERT_EQ(response.headers.size(), 1u);
  EXPECT_EQ(response.headers[0].first, "Retry-After");
  EXPECT_EQ(response.headers[0].second, "1");
}

TEST_F(QueryServiceGoldenTest, Errors) {
  ExpectGolden({
      {"GET", "/v1/query", "", 400,
       "{\"error\":{\"code\":\"invalid_argument\",\"message\":\"need entity="
       "&property=, type=&property=, or prefix=\"}}\n"},
      {"GET", "/v1/query?entity=kitten", "", 400,
       "{\"error\":{\"code\":\"invalid_argument\",\"message\":\"need entity="
       "&property=, type=&property=, or prefix=\"}}\n"},
      {"POST", "/v1/query?entity=kitten&property=cute", "", 405,
       "{\"error\":{\"code\":\"method_not_allowed\",\"message\":\"/v1/query "
       "is GET-only; POST /v1/query/batch instead\"}}\n"},
      {"GET", "/v1/query/batch", "", 405,
       "{\"error\":{\"code\":\"method_not_allowed\",\"message\":\"/v1/query/"
       "batch is POST-only\"}}\n"},
      {"GET", "/v1/query/nope", "", 404,
       "{\"error\":{\"code\":\"not_found\",\"message\":\"unknown query endpo"
       "int\"}}\n"},
  });
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
