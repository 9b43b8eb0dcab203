#include "surveyor/opinion_store.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace surveyor {
namespace {

class OpinionStoreTest : public testing::Test {
 protected:
  OpinionStoreTest() {
    city_ = kb_.AddType("city");
    animal_ = kb_.AddType("animal");
    sf_ = kb_.AddEntity("san francisco", city_).value();
    pa_ = kb_.AddEntity("palo alto", city_).value();
    cat_ = kb_.AddEntity("cat", animal_).value();
  }

  PairOpinion Opinion(EntityId entity, TypeId type, const std::string& property,
                      Polarity polarity, double probability) {
    PairOpinion opinion;
    opinion.entity = entity;
    opinion.type = type;
    opinion.property = property;
    opinion.polarity = polarity;
    opinion.probability = probability;
    return opinion;
  }

  KnowledgeBase kb_;
  TypeId city_ = kInvalidType;
  TypeId animal_ = kInvalidType;
  EntityId sf_ = kInvalidEntity;
  EntityId pa_ = kInvalidEntity;
  EntityId cat_ = kInvalidEntity;
};

TEST_F(OpinionStoreTest, AddReplacesExisting) {
  OpinionStore store(&kb_);
  store.Add(Opinion(sf_, city_, "big", Polarity::kPositive, 0.9));
  store.Add(Opinion(sf_, city_, "big", Polarity::kNegative, 0.1));
  EXPECT_EQ(store.size(), 1u);
  std::ostringstream out;
  ASSERT_TRUE(store.Save(out).ok());
  EXPECT_EQ(out.str(),
            "# surveyor opinion store v1\n"
            "opinion\tcity\tsan francisco\tbig\t-\t0.100000\n");
}

// The export's bytes: a header, then one line per pair in (entity id,
// property) order, names resolved through the knowledge base and the
// probability to 6 decimals.
TEST_F(OpinionStoreTest, SaveWritesOneTabSeparatedLinePerPair) {
  OpinionStore store(&kb_);
  store.Add(Opinion(cat_, animal_, "cute", Polarity::kPositive, 0.75));
  store.Add(Opinion(pa_, city_, "very big", Polarity::kNegative, 0.04));
  store.Add(Opinion(sf_, city_, "big", Polarity::kPositive, 0.9876544));
  store.Add(Opinion(sf_, city_, "affordable", Polarity::kNegative, 0.0));
  EXPECT_EQ(store.size(), 4u);

  std::ostringstream out;
  ASSERT_TRUE(store.Save(out).ok());
  EXPECT_EQ(out.str(),
            "# surveyor opinion store v1\n"
            "opinion\tcity\tsan francisco\taffordable\t-\t0.000000\n"
            "opinion\tcity\tsan francisco\tbig\t+\t0.987654\n"
            "opinion\tcity\tpalo alto\tvery big\t-\t0.040000\n"
            "opinion\tanimal\tcat\tcute\t+\t0.750000\n");
}

}  // namespace
}  // namespace surveyor
