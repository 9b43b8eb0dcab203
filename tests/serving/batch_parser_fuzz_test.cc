// A deterministic differential fuzzer for the /v1/query/batch body parser,
// the trust boundary between a client's bytes and the pairs the index is
// asked for. It mutates the golden test's batch bodies (byte flips,
// splices, truncations, and inserted quotes and backslashes) and runs each
// mutant through BatchParser and through the reference below: the
// parser's character-by-character string scan from before it found string
// ends with memchr. Every mutant must get the same verdict from both and,
// when accepted, the same decoded pairs in the same order.
// The iteration count is fixed, so a run is reproducible; set
// SURVEYOR_FUZZ_ITERATIONS to run longer.

#include <cstddef>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "serving/query_service_internal.h"

namespace surveyor {
namespace serving {
namespace {

using query_service_internal::BatchParser;

constexpr int kDefaultIterations = 5000;

int Iterations() {
  const char* env = std::getenv("SURVEYOR_FUZZ_ITERATIONS");
  if (env != nullptr && std::atoi(env) > 0) return std::atoi(env);
  return kDefaultIterations;
}

/// The parser as it was, scanning each string a byte at a time for its
/// closing quote or first escape.
class ReferenceParser {
 public:
  using Query = BatchParser::Query;

  ReferenceParser(std::string_view text, std::string* scratch)
      : text_(text), scratch_(scratch) {}

  bool Parse(std::vector<Query>* out) {
    SkipWs();
    if (!Consume('{')) return false;
    SkipWs();
    std::string_view key;
    if (!ParseString(&key) || key != "queries") return false;
    SkipWs();
    if (!Consume(':')) return false;
    SkipWs();
    if (!Consume('[')) return false;
    SkipWs();
    if (!Consume(']')) {
      for (;;) {
        Query query;
        if (!ParseQueryObject(&query)) return false;
        out->push_back(query);
        SkipWs();
        if (Consume(',')) {
          SkipWs();
          continue;
        }
        if (Consume(']')) break;
        return false;
      }
    }
    SkipWs();
    if (!Consume('}')) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string_view* out) {
    if (!Consume('"')) return false;
    const size_t begin = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        *out = text_.substr(begin, pos_ - 1 - begin);
        return true;
      }
      if (c == '\\') {
        pos_ = begin;
        return DecodeString(out);
      }
    }
    return false;
  }

  bool DecodeString(std::string_view* out) {
    if (scratch_->capacity() < text_.size()) scratch_->reserve(text_.size());
    const size_t begin = scratch_->size();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        *out = std::string_view(*scratch_).substr(begin);
        return true;
      }
      if (c != '\\') {
        scratch_->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      switch (text_[pos_++]) {
        case '"': scratch_->push_back('"'); break;
        case '\\': scratch_->push_back('\\'); break;
        case '/': scratch_->push_back('/'); break;
        case 'n': scratch_->push_back('\n'); break;
        case 't': scratch_->push_back('\t'); break;
        case 'r': scratch_->push_back('\r'); break;
        default: return false;
      }
    }
    return false;
  }

  bool ParseQueryObject(Query* query) {
    SkipWs();
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      std::string_view key, value;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      if (!ParseString(&value)) return false;
      if (key == "entity") query->first = value;
      if (key == "property") query->second = value;
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      return Consume('}');
    }
  }

  std::string_view text_;
  std::string* scratch_;
  size_t pos_ = 0;
};

/// The batch bodies of QueryServiceGoldenTest.Batches.
std::vector<std::string> Seeds() {
  return {
      "{\"queries\":[{\"entity\":\"kitten\",\"property\":\"cute\"},"
      "{\"entity\":\"nobody\",\"property\":\"cute\"},"
      "{\"entity\":\"kitten\",\"property\":\"haunted\"},{},"
      "{\"entity\":\"Lisbon\",\"property\":\"safe\"}]}",
      " {\"queries\" : [ {\"entity\":\"Quote\\\"Cat\",\"property\":"
      "\"cute\"} , {\"property\":\"cute\",\"entity\":\"Back\\\\Slash\"},"
      "{\"entity\":\"a\\/b\",\"property\":\"cute\"},"
      "{\"entity\":\"kitten\",\"note\":\"x\",\"property\":\"c\\nd\"},"
      "{\"entity\":\"t\\tt\",\"property\":\"r\\rr\"}]}\n",
      "{\"queries\":[]}",
      "{\"queries\":[{\"entity\":\"\\u0041\",\"property\":\"cute\"}]}",
      "{\"queries\":[{\"entity\":1}]}",
      "{\"queries\":[{},{},{},{},{},{},{},{},{}]}",
  };
}

std::string Mutate(const std::vector<std::string>& seeds, std::mt19937* rng) {
  auto pick = [rng](size_t n) {
    return static_cast<size_t>((*rng)() % static_cast<uint32_t>(n));
  };
  std::string bytes = seeds[pick(seeds.size())];
  const size_t rounds = 1 + pick(3);
  for (size_t round = 0; round < rounds; ++round) {
    switch (pick(4)) {
      case 0: {  // byte flips
        if (bytes.empty()) break;
        const size_t flips = 1 + pick(3);
        for (size_t i = 0; i < flips; ++i) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1 + pick(255));
        }
        break;
      }
      case 1:  // truncation
        bytes.resize(pick(bytes.size() + 1));
        break;
      case 2: {  // splice: a run of another seed over a run of this one
        const std::string& other = seeds[pick(seeds.size())];
        const size_t from = pick(other.size() + 1);
        const size_t length = pick(other.size() - from + 1);
        const size_t at = pick(bytes.size() + 1);
        const size_t replaced = pick(bytes.size() - at + 1);
        bytes.replace(at, replaced, other, from, length);
        break;
      }
      case 3: {  // an inserted quote or backslash
        const size_t inserts = 1 + pick(2);
        for (size_t i = 0; i < inserts; ++i) {
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                           pick(bytes.size() + 1)),
                       pick(2) == 0 ? '"' : '\\');
        }
        break;
      }
    }
  }
  return bytes;
}

using Pairs = std::vector<std::pair<std::string, std::string>>;

Pairs Copy(const std::vector<BatchParser::Query>& queries) {
  Pairs pairs;
  for (const auto& [entity, property] : queries) {
    pairs.emplace_back(entity, property);
  }
  return pairs;
}

/// Whether both parsers agree on `body`; `accepted` counts bodies both
/// accepted.
bool Agree(const std::string& body, int* accepted) {
  std::string scratch, reference_scratch;
  std::vector<BatchParser::Query> queries, reference_queries;
  const bool ok = BatchParser(body, &scratch).Parse(257, &queries);
  const bool reference_ok =
      ReferenceParser(body, &reference_scratch).Parse(&reference_queries);
  if (ok != reference_ok) {
    ADD_FAILURE() << "verdicts differ on [" << body << "]: parser " << ok
                  << ", reference " << reference_ok;
    return false;
  }
  if (!ok) return true;
  ++*accepted;
  if (Copy(queries) != Copy(reference_queries)) {
    ADD_FAILURE() << "decoded pairs differ on [" << body << "]";
    return false;
  }
  return true;
}

TEST(BatchParserFuzzTest, SeedsParseAsTheReferenceDoes) {
  int accepted = 0;
  for (const std::string& seed : Seeds()) EXPECT_TRUE(Agree(seed, &accepted));
  EXPECT_EQ(accepted, 4);  // the \u escape and the number are refused
}

TEST(BatchParserFuzzTest, MutantsParseAsTheReferenceDoes) {
  const std::vector<std::string> seeds = Seeds();
  std::mt19937 rng(31);
  const int iterations = Iterations();
  int accepted = 0;
  int disagreements = 0;
  for (int i = 0; i < iterations && disagreements < 5; ++i) {
    if (!Agree(Mutate(seeds, &rng), &accepted)) ++disagreements;
  }
  EXPECT_EQ(disagreements, 0);
  // Mutants both accept and both refuse: the test exercises both paths.
  EXPECT_GT(accepted, iterations / 50);
  EXPECT_LT(accepted, iterations);
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
