#include "serving/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "serving/snapshot_internal.h"
#include "tests/serving/snapshot_image.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/string_util.h"

namespace surveyor {
namespace serving {
namespace {

SnapshotOpinion MakeOpinion(const std::string& entity, const std::string& type,
                            const std::string& property, double posterior,
                            Polarity polarity) {
  SnapshotOpinion opinion;
  opinion.entity = entity;
  opinion.type = type;
  opinion.property = property;
  opinion.posterior = posterior;
  opinion.polarity = polarity;
  return opinion;
}

/// A writer with a small, representative data set: two types, two
/// properties, a degraded block and a provenance sample.
SnapshotWriter MakeWriter() {
  SnapshotWriter writer;
  writer.set_label("test snapshot");
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("kitten", "animal", "cute", 0.97,
                                   Polarity::kPositive))
                  .ok());
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("spider", "animal", "cute", 0.12,
                                   Polarity::kNegative))
                  .ok());
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("lisbon", "city", "hilly", 0.88,
                                   Polarity::kPositive))
                  .ok());
  writer.AddProvenance("kitten", "animal", "cute",
                       {{1234, 2, true}, {5678, 0, false}});
  return writer;
}

std::string WriteTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path;
}

/// The (type, property) block of an open snapshot; both names must exist.
Snapshot::BlockView BlockOf(const Snapshot& snapshot, std::string_view type,
                            std::string_view property) {
  const uint32_t type_index = snapshot.FindType(type);
  const uint32_t property_index = snapshot.FindProperty(property);
  return snapshot.blocks()[snapshot.FindBlock(type_index, property_index)];
}

/// Snapshot opens must behave deterministically here even when the CI
/// chaos job arms snapshot_read through the environment, so the fixture
/// disarms fault injection for the test's scope (the repo-wide idiom for
/// exact-behavior tests). The fault path itself is tested explicitly
/// below with its own ScopedFaults.
class SnapshotTest : public testing::Test {
 protected:
  ScopedFaults disarm_{""};
};

TEST(SnapshotWriterTest, RejectsUnusableOpinions) {
  SnapshotWriter writer;
  // Neutral opinions carry no decision.
  EXPECT_EQ(writer
                .Add(MakeOpinion("kitten", "animal", "cute", 0.5,
                                 Polarity::kNeutral))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(writer
                .Add(MakeOpinion("", "animal", "cute", 0.9,
                                 Polarity::kPositive))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(writer
                .Add(MakeOpinion("kitten", "animal", "cute", 1.5,
                                 Polarity::kPositive))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  const std::string path =
      WriteTempFile("roundtrip.surv", MakeWriter().Serialize());

  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  EXPECT_EQ(snapshot.label(), "test snapshot");
  EXPECT_EQ(snapshot.num_opinions(), 3u);
  EXPECT_EQ(snapshot.num_types(), 2u);
  EXPECT_EQ(snapshot.num_entities(), 3u);
  EXPECT_EQ(snapshot.num_properties(), 2u);

  // Find the (animal, cute) block and check both records decode.
  bool found = false;
  for (const Snapshot::BlockView& block : snapshot.blocks()) {
    if (snapshot.TypeName(block.type_index) != "animal" ||
        snapshot.PropertyName(block.property_index) != "cute") {
      continue;
    }
    found = true;
    ASSERT_EQ(block.record_count, 2u);
    for (uint32_t i = 0; i < block.record_count; ++i) {
      const Snapshot::RecordView record =
          Snapshot::ReadRecord(block.records, i);
      const std::string_view entity = snapshot.EntityName(record.entity_index);
      if (entity == "kitten") {
        EXPECT_DOUBLE_EQ(record.posterior, 0.97);
        EXPECT_EQ(record.polarity, Polarity::kPositive);
      } else {
        EXPECT_EQ(entity, "spider");
        EXPECT_DOUBLE_EQ(record.posterior, 0.12);
        EXPECT_EQ(record.polarity, Polarity::kNegative);
      }
      EXPECT_EQ(snapshot.TypeName(snapshot.EntityType(record.entity_index)),
                "animal");
    }
  }
  EXPECT_TRUE(found);

  ASSERT_EQ(snapshot.num_provenance(), 1u);
  const Snapshot::ProvenanceKey key = snapshot.ProvenanceKeyAt(0);
  EXPECT_EQ(snapshot.EntityName(key.entity_index), "kitten");
  EXPECT_EQ(snapshot.PropertyName(key.property_index), "cute");
  const Snapshot::ProvenanceRange refs =
      snapshot.Provenance(key.entity_index, key.property_index);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].doc_id, 1234);
  EXPECT_EQ(refs[0].sentence_index, 2);
  EXPECT_TRUE(refs[0].positive);
  EXPECT_FALSE(refs[1].positive);
  EXPECT_TRUE(snapshot.Provenance(key.entity_index, key.property_index + 1)
                  .empty());
}

TEST_F(SnapshotTest, SerializationIsInsertionOrderIndependent) {
  SnapshotWriter forward = MakeWriter();

  SnapshotWriter reversed;
  reversed.set_label("test snapshot");
  ASSERT_TRUE(reversed
                  .Add(MakeOpinion("lisbon", "city", "hilly", 0.88,
                                   Polarity::kPositive))
                  .ok());
  ASSERT_TRUE(reversed
                  .Add(MakeOpinion("spider", "animal", "cute", 0.12,
                                   Polarity::kNegative))
                  .ok());
  ASSERT_TRUE(reversed
                  .Add(MakeOpinion("kitten", "animal", "cute", 0.97,
                                   Polarity::kPositive))
                  .ok());
  reversed.AddProvenance("kitten", "animal", "cute",
                         {{1234, 2, true}, {5678, 0, false}});

  EXPECT_EQ(forward.Serialize(), reversed.Serialize());
}

TEST_F(SnapshotTest, ReadAndRebuildIsBitIdentical) {
  const std::string image = MakeWriter().Serialize();
  const std::string path = WriteTempFile("rebuild.surv", image);

  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());

  // Rebuild a writer purely from what the reader exposes.
  SnapshotWriter rebuilt;
  rebuilt.set_label(std::string(snapshot.label()));
  for (const Snapshot::BlockView& block : snapshot.blocks()) {
    for (uint32_t i = 0; i < block.record_count; ++i) {
      const Snapshot::RecordView record =
          Snapshot::ReadRecord(block.records, i);
      SnapshotOpinion opinion;
      opinion.entity = std::string(snapshot.EntityName(record.entity_index));
      opinion.type = std::string(snapshot.TypeName(block.type_index));
      opinion.property =
          std::string(snapshot.PropertyName(block.property_index));
      opinion.posterior = record.posterior;
      opinion.polarity = record.polarity;
      opinion.degraded = block.degraded;
      ASSERT_TRUE(rebuilt.Add(opinion).ok());
    }
  }
  for (size_t i = 0; i < snapshot.num_provenance(); ++i) {
    const Snapshot::ProvenanceKey key = snapshot.ProvenanceKeyAt(i);
    const uint32_t type = snapshot.EntityType(key.entity_index);
    const Snapshot::ProvenanceRange refs =
        snapshot.Provenance(key.entity_index, key.property_index);
    rebuilt.AddProvenance(
        std::string(snapshot.EntityName(key.entity_index)),
        std::string(snapshot.TypeName(type)),
        std::string(snapshot.PropertyName(key.property_index)),
        std::vector<StatementRef>(refs.begin(), refs.end()));
  }
  EXPECT_EQ(rebuilt.Serialize(), image);
}

TEST_F(SnapshotTest, EmptySnapshotRoundTrips) {
  SnapshotWriter writer;
  writer.set_label("empty");
  const std::string path = WriteTempFile("empty.surv", writer.Serialize());
  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  EXPECT_EQ(snapshot.num_opinions(), 0u);
  EXPECT_TRUE(snapshot.blocks().empty());
}

TEST_F(SnapshotTest, RejectsBadMagic) {
  std::string image = MakeWriter().Serialize();
  image[0] = 'X';
  Snapshot snapshot;
  const Status status =
      snapshot.Open(WriteTempFile("badmagic.surv", image));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, VersionMismatchNamesTheVersion) {
  std::string image = MakeWriter().Serialize();
  // The format version is the little-endian u32 right after the magic.
  image[8] = 99;
  Snapshot snapshot;
  const Status status =
      snapshot.Open(WriteTempFile("badversion.surv", image));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("99"), std::string::npos)
      << status.ToString();

  // Format version 1 is no longer read: `mine` writes version 2.
  image[8] = 1;
  const Status v1 = snapshot.Open(WriteTempFile("version1.surv", image));
  EXPECT_EQ(v1.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v1.message().find("version 1 unsupported"), std::string::npos)
      << v1.ToString();
}

TEST_F(SnapshotTest, CorruptedPayloadFailsItsCrcCheck) {
  std::string image = MakeWriter().Serialize();
  // Flip one bit inside a section payload (an entity-name byte, which is
  // covered by its section's CRC).
  const size_t pos = image.find("kitten");
  ASSERT_NE(pos, std::string::npos);
  image[pos] ^= 0x20;
  Snapshot snapshot;
  const Status status = snapshot.Open(WriteTempFile("corrupt.surv", image));
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("CRC"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotTest, TruncatedFileIsRejected) {
  const std::string image = MakeWriter().Serialize();
  for (const size_t keep : {image.size() - 5, image.size() / 2, size_t{16}}) {
    Snapshot snapshot;
    const Status status = snapshot.Open(
        WriteTempFile("truncated.surv", image.substr(0, keep)));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "kept " << keep << " bytes: " << status.ToString();
  }
}

TEST_F(SnapshotTest, FailedOpenKeepsThePreviousSnapshot) {
  const std::string good_path =
      WriteTempFile("keep-good.surv", MakeWriter().Serialize());
  std::string corrupt = MakeWriter().Serialize();
  corrupt[corrupt.size() - 1] ^= 0xff;

  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(good_path).ok());
  ASSERT_FALSE(
      snapshot.Open(WriteTempFile("keep-bad.surv", corrupt.substr(0, 40)))
          .ok());
  // The earlier, valid state is still served.
  EXPECT_EQ(snapshot.num_opinions(), 3u);
  EXPECT_EQ(snapshot.label(), "test snapshot");
}

TEST_F(SnapshotTest, WriteToFilePublishesAtomically) {
  const std::string dir = testing::TempDir() + "/snapshot_atomic";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/atomic.surv";
  ASSERT_TRUE(MakeWriter().WriteToFile(path).ok());

  // Overwriting an existing snapshot replaces it whole — a reader racing
  // the write sees old bytes or new bytes, never a torn hybrid — and the
  // temp file never lingers next to the published one.
  SnapshotWriter second;
  second.set_label("second version");
  ASSERT_TRUE(second
                  .Add(MakeOpinion("koala", "animal", "cute", 0.91,
                                   Polarity::kPositive))
                  .ok());
  ASSERT_TRUE(second.WriteToFile(path).ok());
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  EXPECT_EQ(snapshot.label(), "second version");
}

TEST_F(SnapshotTest, WriteToFileSurfacesWriteFailures) {
  // The old implementation streamed into an ofstream without checking the
  // stream state — a full disk produced a silent torn file. Now the
  // failure is loud and the target path is never created.
  const std::string path =
      testing::TempDir() + "/no-such-snapshot-dir/out.surv";
  EXPECT_FALSE(MakeWriter().WriteToFile(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(SnapshotTest, NamesAreCaseInsensitiveAndKeepTheSmallestSpelling) {
  SnapshotWriter forward;
  ASSERT_TRUE(forward
                  .Add(MakeOpinion("kitten", "Animal", "cute", 0.3,
                                   Polarity::kNegative))
                  .ok());
  ASSERT_TRUE(forward
                  .Add(MakeOpinion("Kitten", "animal", "CUTE", 0.9,
                                   Polarity::kPositive))
                  .ok());
  SnapshotWriter backward;
  ASSERT_TRUE(backward
                  .Add(MakeOpinion("Kitten", "animal", "CUTE", 0.9,
                                   Polarity::kPositive))
                  .ok());
  // The later Add of the same pair replaces the earlier one's record.
  ASSERT_TRUE(backward
                  .Add(MakeOpinion("kitten", "Animal", "cute", 0.9,
                                   Polarity::kPositive))
                  .ok());
  EXPECT_EQ(forward.Serialize(), backward.Serialize());

  Snapshot snapshot;
  ASSERT_TRUE(
      snapshot.Open(WriteTempFile("case.surv", forward.Serialize())).ok());
  EXPECT_EQ(snapshot.num_entities(), 1u);
  EXPECT_EQ(snapshot.num_opinions(), 1u);
  EXPECT_EQ(snapshot.EntityName(0), "Kitten");
  EXPECT_EQ(snapshot.TypeName(0), "Animal");
  EXPECT_EQ(snapshot.PropertyName(0), "CUTE");
  EXPECT_EQ(snapshot.FindEntity("kitten"), 0u);
  EXPECT_EQ(snapshot.FindEntity("puppy"), Snapshot::kNone);
}

// Every find folds the caller's bytes as it hashes and compares, so a
// name in any ASCII case resolves as its lower-case form does.
TEST_F(SnapshotTest, MixedCaseNamesResolveAsTheirLowerCaseForms) {
  const std::string path =
      WriteTempFile("mixed_case.surv", MakeWriter().Serialize());
  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  const uint32_t kitten = snapshot.FindEntity("kitten");
  const uint32_t cute = snapshot.FindProperty("cute");
  const uint32_t animal = snapshot.FindType("animal");
  ASSERT_NE(kitten, Snapshot::kNone);
  ASSERT_NE(cute, Snapshot::kNone);
  ASSERT_NE(animal, Snapshot::kNone);
  EXPECT_EQ(snapshot.FindEntity("KiTTen"), kitten);
  EXPECT_EQ(snapshot.FindEntity("KITTEN"), kitten);
  EXPECT_EQ(snapshot.FindProperty("CUTE"), cute);
  EXPECT_EQ(snapshot.FindType("Animal"), animal);
  EXPECT_EQ(snapshot.EntityPrefixRange("KI"), snapshot.EntityPrefixRange("ki"));
  EXPECT_EQ(snapshot.EntityPrefixRange("KI"), std::pair(kitten, kitten + 1));
  // Folding is ASCII only, and a name must match whole.
  EXPECT_EQ(snapshot.FindEntity("KITTEN "), Snapshot::kNone);
  EXPECT_EQ(snapshot.FindEntity("kitte"), Snapshot::kNone);
  EXPECT_EQ(snapshot.FindProperty("CUTE\xC3\x89"), Snapshot::kNone);
  EXPECT_EQ(snapshot.FindType("Animals"), Snapshot::kNone);
  EXPECT_EQ(snapshot.FindType(""), Snapshot::kNone);
  EXPECT_EQ(snapshot.FindProperty(""), Snapshot::kNone);
  EXPECT_EQ(snapshot.FindEntity(""), Snapshot::kNone);
}

// Names stored in mixed case, longer than the eight bytes a folded
// compare takes at a step, resolve from any case, and only whole.
TEST_F(SnapshotTest, LongNamesResolveFromAnyCase) {
  SnapshotWriter writer;
  const std::vector<std::string> names = {
      "San Francisco Bay Area", "SAN FRANCISCO", "San-Francisco-Bay",
      "Zürich Altstadt", "x"};
  for (const std::string& name : names) {
    ASSERT_TRUE(writer
                    .Add(MakeOpinion(name, "Metro Area Kind",
                                     "Walkable At Night", 0.7,
                                     Polarity::kPositive))
                    .ok());
  }
  Snapshot snapshot;
  ASSERT_TRUE(
      snapshot.Open(WriteTempFile("long_names.surv", writer.Serialize()))
          .ok());
  for (const std::string& name : names) {
    const uint32_t entity = snapshot.FindEntity(name);
    ASSERT_NE(entity, Snapshot::kNone) << name;
    EXPECT_EQ(snapshot.EntityName(entity), name);
    EXPECT_EQ(snapshot.FindEntity(ToLower(name)), entity) << name;
    std::string upper = name;
    for (char& c : upper) {
      if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    }
    EXPECT_EQ(snapshot.FindEntity(upper), entity) << name;
  }
  EXPECT_EQ(snapshot.FindEntity("san francisco bay are"), Snapshot::kNone);
  EXPECT_EQ(snapshot.FindEntity("san francisco bay areA!"), Snapshot::kNone);
  EXPECT_EQ(snapshot.FindEntity("ZÜRICH ALTSTADT"), Snapshot::kNone);
  EXPECT_EQ(snapshot.FindType("METRO AREA KIND"), 0u);
  EXPECT_EQ(snapshot.FindProperty("walkable at night"), 0u);
  EXPECT_EQ(snapshot.FindProperty("walkable at nigh"), Snapshot::kNone);
}

TEST_F(SnapshotTest, FindRecordHitsAndMisses) {
  const std::string path =
      WriteTempFile("records.surv", MakeWriter().Serialize());
  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  const Snapshot::BlockView cute = BlockOf(snapshot, "animal", "cute");
  const uint32_t spider = snapshot.FindEntity("spider");
  const uint32_t r = Snapshot::FindRecord(cute, spider);
  ASSERT_NE(r, Snapshot::kNone);
  EXPECT_EQ(Snapshot::ReadRecord(cute.records, r).entity_index, spider);
  // lisbon is in the snapshot, but not in this block.
  const uint32_t lisbon = snapshot.FindEntity("lisbon");
  EXPECT_EQ(Snapshot::FindRecord(cute, lisbon), Snapshot::kNone);
  EXPECT_EQ(Snapshot::FindRecord(cute, Snapshot::kNone), Snapshot::kNone);
}

// One name with an opinion on one property under two types: the pair run
// keeps only the type sorting last, but each type's block answers its own
// record.
TEST_F(SnapshotTest, FindRecordAnswersPerTypeForASharedName) {
  SnapshotWriter writer;
  ASSERT_TRUE(writer
                  .Add(MakeOpinion("jaguar", "animal", "fast", 0.93,
                                   Polarity::kPositive))
                  .ok());
  ASSERT_TRUE(writer
                  .Add(MakeOpinion("jaguar", "marque", "fast", 0.21,
                                   Polarity::kNegative))
                  .ok());
  const std::string path = WriteTempFile("shared.surv", writer.Serialize());
  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  const uint32_t jaguar = snapshot.FindEntity("jaguar");
  const Snapshot::BlockView animal = BlockOf(snapshot, "animal", "fast");
  const Snapshot::BlockView marque = BlockOf(snapshot, "marque", "fast");
  const uint32_t in_animal = Snapshot::FindRecord(animal, jaguar);
  const uint32_t in_marque = Snapshot::FindRecord(marque, jaguar);
  ASSERT_NE(in_animal, Snapshot::kNone);
  ASSERT_NE(in_marque, Snapshot::kNone);
  EXPECT_EQ(Snapshot::ReadRecord(animal.records, in_animal).posterior, 0.93);
  EXPECT_EQ(Snapshot::ReadRecord(marque.records, in_marque).posterior, 0.21);
  // FindPair sees only the type sorting last.
  const uint32_t fast = snapshot.FindProperty("fast");
  const uint32_t marque_index = snapshot.FindType("marque");
  EXPECT_EQ(snapshot.FindPair(jaguar, fast).block,
            snapshot.FindBlock(marque_index, fast));
}

TEST_F(SnapshotTest, SnapshotReadFaultPointFiresAsInternal) {
  const std::string path =
      WriteTempFile("faulted.surv", MakeWriter().Serialize());
  ScopedFaults faults("snapshot_read:1");
  Snapshot snapshot;
  const Status status = snapshot.Open(path);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

/// 10,000 entities over ten types, each with an opinion on eight
/// properties: 80 blocks of 1,000 records, enough opinions that Open
/// splits its validation wherever more than one CPU is usable. Posteriors
/// take 256 values, so most postings tie with the one before them.
std::string LargeImage() {
  SnapshotWriter writer;
  writer.set_label("large");
  uint32_t x = 1;
  for (int e = 0; e < 10000; ++e) {
    const std::string entity = "entity" + std::to_string(e);
    const std::string type = "type" + std::to_string(e % 10);
    for (int p = 0; p < 8; ++p) {
      x = x * 1103515245u + 12345u;
      const double posterior = static_cast<double>(x >> 24) / 255.0;
      Polarity polarity = Polarity::kNegative;
      if (posterior >= 0.5) polarity = Polarity::kPositive;
      const std::string property = "property" + std::to_string(p);
      const SnapshotOpinion opinion =
          MakeOpinion(entity, type, property, posterior, polarity);
      EXPECT_TRUE(writer.Add(opinion).ok());
    }
  }
  return writer.Serialize();
}

TEST_F(SnapshotTest, LargeImageValidatesOnSeveralThreads) {
  constexpr uint64_t kOpinions = 80000;
  const uint64_t by_size = kOpinions / snapshot_internal::kOpinionsPerPart;
  const int cpus = snapshot_internal::UsableCpus();
  const int parts = snapshot_internal::DefaultParts(kOpinions);
  EXPECT_EQ(parts, std::min<uint64_t>(by_size, cpus));
  if (cpus > 1) {
    EXPECT_GT(parts, 1);
  }
  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(WriteTempFile("large.surv", LargeImage())).ok());
  EXPECT_EQ(snapshot.num_opinions(), kOpinions);
  EXPECT_EQ(snapshot.blocks().size(), 80u);
  const uint32_t entity = snapshot.FindEntity("entity5000");
  const uint32_t property = snapshot.FindProperty("property7");
  ASSERT_NE(entity, Snapshot::kNone);
  EXPECT_NE(snapshot.FindPair(entity, property).block, Snapshot::kNone);
}

TEST_F(SnapshotTest, LargeImageRejectsAtRangeBoundariesAsInOneWalk) {
  // Each edit adds `delta` to one u32 field at the first or last entry of
  // a range that 2 or 4 parts make: entities split every 2,500 or 5,000,
  // blocks (equal in size here) every 20 or 40. Open, at its own part
  // count, and every split report what the one-range walk reports.
  struct Edit {
    const char* what;
    uint32_t section;
    size_t width;
    size_t entry;
    size_t field;
    uint32_t delta;
  };
  const Edit edits[] = {
      {"an empty name at a range's first entity", kSectionEntities,
       kSnapshotEntityEntrySize, 5000, 1, 0u - 10},
      {"a pair run start at a range's first entity", kSectionEntities,
       kSnapshotEntityEntrySize, 2500, 3, 9},
      {"a block type at a range's first block", kSectionBlocks,
       kSnapshotBlockEntrySize, 20, 0, 0u - 1},
      {"a block start at a range's first block", kSectionBlocks,
       kSnapshotBlockEntrySize, 40, 3, 1},
      {"a block count at a range's last block", kSectionBlocks,
       kSnapshotBlockEntrySize, 39, 4, 1},
  };
  const std::string bytes = LargeImage();
  for (const Edit& edit : edits) {
    SCOPED_TRACE(edit.what);
    std::string edited = bytes;
    const size_t at = image::FindSection(bytes, edit.section).offset +
                      edit.entry * edit.width + 4 * edit.field;
    image::PutU32(&edited, at, image::GetU32(edited, at) + edit.delta);
    image::RestampCrcs(&edited);
    const Status one = snapshot_internal::ValidateImage(edited, 1);
    EXPECT_EQ(one.code(), StatusCode::kInvalidArgument) << one.ToString();
    for (const int parts : {2, 3, 4}) {
      const Status split = snapshot_internal::ValidateImage(edited, parts);
      EXPECT_EQ(split.ToString(), one.ToString()) << parts << " parts";
    }
    Snapshot snapshot;
    const std::string path = WriteTempFile("large-edit.surv", edited);
    EXPECT_EQ(snapshot.Open(path).ToString(), one.ToString());
  }
}

// --- The validator checks what the index assumes ---------------------------
// Each case hand-edits one field of a valid image, re-stamps the CRCs so
// the structural pass (not the CRC) decides, and expects InvalidArgument
// naming the broken rule.

/// Four entities, two types, two properties, three blocks:
///   block 0 (animal, cute):  kitten 0.97+, koala 0.91+, spider 0.12-
///   block 1 (animal, hilly): koala 0.6+
///   block 2 (city, hilly):   lisbon 0.88+
/// Entities kitten 0, koala 1, lisbon 2, spider 3; provenance on
/// (kitten, cute) and (lisbon, hilly).
std::string RuleImage() {
  SnapshotWriter writer;
  writer.set_label("rules");
  for (const SnapshotOpinion& opinion :
       {MakeOpinion("kitten", "animal", "cute", 0.97, Polarity::kPositive),
        MakeOpinion("koala", "animal", "cute", 0.91, Polarity::kPositive),
        MakeOpinion("spider", "animal", "cute", 0.12, Polarity::kNegative),
        MakeOpinion("koala", "animal", "hilly", 0.6, Polarity::kPositive),
        MakeOpinion("lisbon", "city", "hilly", 0.88, Polarity::kPositive)}) {
    EXPECT_TRUE(writer.Add(opinion).ok());
  }
  writer.AddProvenance("kitten", "animal", "cute", {{1, 0, true}});
  writer.AddProvenance("lisbon", "city", "hilly", {{2, 1, false}});
  return writer.Serialize();
}

/// Offset of u32 field `field` of entry `entry` in section `id`.
size_t FieldAt(const std::string& bytes, uint32_t id, size_t width,
               size_t entry, size_t field) {
  return image::FindSection(bytes, id).offset + entry * width + 4 * field;
}

class SnapshotRuleTest : public SnapshotTest {
 protected:
  /// Applies `edit` to a fresh RuleImage, re-stamps the CRCs and expects
  /// Open to reject it with InvalidArgument mentioning `rule`.
  template <typename Edit>
  void ExpectRejected(Edit edit, const std::string& rule) {
    std::string bytes = RuleImage();
    edit(&bytes);
    image::RestampCrcs(&bytes);
    // One file per test: ctest runs tests as parallel processes, and
    // rewriting a file another process has mapped would SIGBUS it.
    Snapshot snapshot;
    const Status status = snapshot.Open(WriteTempFile(
        std::string(testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()) +
            ".surv",
        bytes));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << rule << ": " << status.ToString();
    EXPECT_NE(status.message().find(rule), std::string::npos)
        << rule << ": " << status.ToString();
    // Split into ranges of an entry or two, the check finds the same rule.
    for (const int parts : {1, 4}) {
      const Status split = snapshot_internal::ValidateImage(bytes, parts);
      EXPECT_EQ(split.ToString(), status.ToString()) << parts << " parts";
    }
  }

  void SetField(std::string* bytes, uint32_t id, size_t width, size_t entry,
                size_t field, uint32_t value) {
    image::PutU32(bytes, FieldAt(*bytes, id, width, entry, field), value);
  }
};

TEST_F(SnapshotRuleTest, UneditedImageOpensAfterARestamp) {
  std::string bytes = RuleImage();
  image::RestampCrcs(&bytes);
  EXPECT_EQ(bytes, RuleImage());
  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(WriteTempFile("rule-ok.surv", bytes)).ok());
  EXPECT_EQ(snapshot.num_entities(), 4u);
  EXPECT_EQ(snapshot.blocks().size(), 3u);
}

TEST_F(SnapshotRuleTest, RejectsMetaCountsThatDisagreeWithTheSections) {
  const size_t meta = image::FindSection(RuleImage(), kSectionMeta).offset;
  ExpectRejected([&](std::string* b) { image::PutU64(b, meta, 6); },
                 "meta count mismatch");
  ExpectRejected([&](std::string* b) { image::PutU64(b, meta + 8, 2); },
                 "meta count mismatch");
}

TEST_F(SnapshotRuleTest, RejectsUnsortedOrDuplicateNames) {
  auto copy_name = [this](std::string* b, uint32_t id, size_t width,
                          size_t from, size_t to) {
    for (size_t field : {0, 1}) {
      SetField(b, id, width, to, field,
               image::GetU32(*b, FieldAt(*b, id, width, from, field)));
    }
  };
  // koala's name onto kitten: unsorted.
  ExpectRejected(
      [&](std::string* b) {
        copy_name(b, kSectionEntities, kSnapshotEntityEntrySize, 1, 0);
        copy_name(b, kSectionEntities, kSnapshotEntityEntrySize, 2, 1);
      },
      "entity names are not sorted and unique");
  // kitten's name twice.
  ExpectRejected(
      [&](std::string* b) {
        copy_name(b, kSectionEntities, kSnapshotEntityEntrySize, 0, 1);
      },
      "entity names are not sorted and unique");
  ExpectRejected(
      [&](std::string* b) {
        copy_name(b, kSectionTypes, kSnapshotNameEntrySize, 1, 0);
      },
      "type names are not sorted and unique");
  ExpectRejected(
      [&](std::string* b) {
        copy_name(b, kSectionProperties, kSnapshotNameEntrySize, 0, 1);
      },
      "property names are not sorted and unique");
}

TEST_F(SnapshotRuleTest, RejectsAnEntitySlotTableThatMissesAnEntity) {
  const size_t slots =
      image::FindSection(RuleImage(), kSectionEntitySlots).size / 4;
  ExpectRejected(
      [&](std::string* b) {
        for (size_t s = 0; s < slots; ++s) {
          SetField(b, kSectionEntitySlots, 4, s, 0, 0xFFFFFFFFu);
        }
      },
      "entity slot table holds 0 entities");
  // Move every entity one slot on: still one slot each, but an entity
  // whose home slot is now empty cannot be found.
  ExpectRejected(
      [&](std::string* b) {
        std::vector<uint32_t> moved(slots);
        for (size_t s = 0; s < slots; ++s) {
          moved[(s + 1) % slots] = image::GetU32(
              *b, FieldAt(*b, kSectionEntitySlots, 4, s, 0));
        }
        for (size_t s = 0; s < slots; ++s) {
          SetField(b, kSectionEntitySlots, 4, s, 0, moved[s]);
        }
      },
      "entity slot table does not lead to entity");
}

TEST_F(SnapshotRuleTest, RejectsUnsortedOrDuplicateBlocks) {
  // Block 1 (animal, hilly) -> (animal, cute): a duplicate of block 0.
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionBlocks, kSnapshotBlockEntrySize, 1, 1, 0);
      },
      "blocks are not sorted and unique by (type, property)");
  // Block 0 -> (city, cute): after block 1 (animal, hilly).
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionBlocks, kSnapshotBlockEntrySize, 0, 0, 1);
      },
      "blocks are not sorted and unique by (type, property)");
}

TEST_F(SnapshotRuleTest, RejectsEntityIndicesThatDoNotIncreaseInABlock) {
  // Block 0's second record (koala) becomes kitten's: a second record for
  // one entity. Then spider's becomes koala's: out of order after it.
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionRecords, kSnapshotRecordSize, 1, 2, 0);
      },
      "block entity indices do not increase");
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionRecords, kSnapshotRecordSize, 0, 2, 2);
      },
      "block entity indices do not increase");
}

TEST_F(SnapshotRuleTest, RejectsBadPostingLists) {
  // Block 0's postings are [kitten 0, koala 1]; spider is record 2.
  ExpectRejected(
      [&](std::string* b) { SetField(b, kSectionPostings, 4, 1, 0, 2); },
      "posting list holds a negative record");
  ExpectRejected(
      [&](std::string* b) { SetField(b, kSectionPostings, 4, 1, 0, 0); },
      "posting list holds a record twice");
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionPostings, 4, 0, 0, 1);
        SetField(b, kSectionPostings, 4, 1, 0, 0);
      },
      "posting list is out of posterior order");
  ExpectRejected(
      [&](std::string* b) { SetField(b, kSectionPostings, 4, 1, 0, 7); },
      "posting list entry out of range");
}

TEST_F(SnapshotRuleTest, RejectsBadPairRunEntries) {
  // Pairs: kitten (cute, b0, r0); koala (cute, b0, r1), (hilly, b1, r0);
  // lisbon (hilly, b2, r0); spider (cute, b0, r2).
  for (const auto& [field, value] :
       {std::pair(0, 9u), std::pair(1, 3u), std::pair(2, 3u)}) {
    ExpectRejected(
        [&](std::string* b) {
          SetField(b, kSectionPairs, kSnapshotPairEntrySize, 0, field, value);
        },
        "pair-run entry out of range");
  }
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionPairs, kSnapshotPairEntrySize, 0, 2, 1);
      },
      "pair-run entry points at another entity's record");
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionPairs, kSnapshotPairEntrySize, 2, 1, 0);
        SetField(b, kSectionPairs, kSnapshotPairEntrySize, 2, 2, 1);
      },
      "pair-run entry points at another property's record");
  // koala's run repeats its (cute, b0, r1) entry.
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionPairs, kSnapshotPairEntrySize, 2, 0, 0);
        SetField(b, kSectionPairs, kSnapshotPairEntrySize, 2, 1, 0);
        SetField(b, kSectionPairs, kSnapshotPairEntrySize, 2, 2, 1);
      },
      "pair run is not sorted by property");
}

TEST_F(SnapshotRuleTest, RejectsProvenanceOutOfOrderOrOutOfBounds) {
  // Entries (kitten, cute) refs [0, 1) and (lisbon, hilly) refs [1, 2).
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionProvenance, kSnapshotProvenanceEntrySize, 1, 0,
                 0);
        SetField(b, kSectionProvenance, kSnapshotProvenanceEntrySize, 1, 1,
                 0);
      },
      "provenance is not sorted and unique by (entity, property)");
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionProvenance, kSnapshotProvenanceEntrySize, 1, 3,
                 2);
      },
      "provenance refs out of bounds");
  ExpectRejected(
      [&](std::string* b) {
        SetField(b, kSectionProvenance, kSnapshotProvenanceEntrySize, 0, 1,
                 7);
      },
      "provenance references beyond its name tables");
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
