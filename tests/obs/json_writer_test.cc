// AppendJsonNumber prints every /v1 posterior. A finite value in
// [1e-10, 1) takes an integer path (the exact mantissa times 10^k in
// 128-bit integers, rounded half-even on the exact remainder); every
// other value goes through std::to_chars. These tests hold the integer
// path to std::to_chars(general, 10) byte for byte: on every posterior
// the tiny and paper worlds mine, on random bit patterns, on the doubles
// around rounding midpoints and exact ties at every decimal exponent of
// the path, and on values that round up to a power of ten. The values
// the path leaves to std::to_chars are checked too, as are the JSON
// string escapes.

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "gtest/gtest.h"
#include "obs/json_writer.h"
#include "surveyor/pipeline.h"

namespace surveyor {
namespace obs {
namespace {

/// What AppendJsonNumber printed before the integer path: non-finite
/// values as null, integral ones below 2^53 as integers, and everything
/// else, each value in (0, 1) included, as std::to_chars(general, 10).
std::string Reference(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::to_chars_result result;
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    result = std::to_chars(buffer, buffer + sizeof(buffer),
                           static_cast<long long>(value));
  } else {
    result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                           std::chars_format::general, 10);
  }
  return std::string(buffer, result.ptr);
}

/// Counts the values AppendJsonNumber prints unlike Reference, and
/// reports the first few of them.
class Mismatches {
 public:
  void Check(double value) {
    ++checked_;
    std::string text = "prefix:";
    AppendJsonNumber(value, &text);
    const std::string expected = Reference(value);
    if (text == "prefix:" + expected && JsonNumber(value) == expected) return;
    if (++count_ <= 5) {
      ADD_FAILURE() << "value " << std::hexfloat << value << " printed "
                    << text.substr(7) << ", std::to_chars prints "
                    << expected;
    }
  }
  int64_t count() const { return count_; }
  int64_t checked() const { return checked_; }

 private:
  int64_t count_ = 0;
  int64_t checked_ = 0;
};

/// The doubles within `ulps` steps of `value`, `value` included.
std::vector<double> Neighbourhood(double value, int ulps) {
  std::vector<double> values = {value};
  double below = value;
  double above = value;
  for (int i = 0; i < ulps; ++i) {
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, 2.0);
    values.push_back(below);
    values.push_back(above);
  }
  return values;
}

/// A double parsed from decimal text, correctly rounded.
double Parse(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

TEST(JsonNumberTest, MinedPosteriorsMatchToChars) {
  struct Case {
    WorldConfig world;
    int authors;
    uint64_t seed;
  };
  Mismatches mismatches;
  int64_t in_fast_path = 0;
  for (const Case& c :
       {Case{MakeTinyWorldConfig(), 8000, 77},
        Case{MakePaperWorldConfig(/*entities_per_type=*/150), 800, 101}}) {
    const World world = World::Generate(c.world).value();
    GeneratorOptions options;
    options.author_population = c.authors;
    options.seed = c.seed;
    SurveyorConfig config;
    config.min_statements = 20;
    const SurveyorPipeline pipeline(&world.kb(), &world.lexicon(), config);
    const StatusOr<PipelineResult> result =
        pipeline.Run(CorpusGenerator(&world, options).Generate());
    ASSERT_TRUE(result.ok()) << result.status();
    // Every posterior, the neutral ones too: a superset of what the
    // snapshot of the run stores.
    for (const PropertyTypeResult& pair : result->pairs) {
      for (const double posterior : pair.posterior) {
        mismatches.Check(posterior);
        if (posterior >= 1e-10 && posterior < 1.0) ++in_fast_path;
      }
    }
  }
  EXPECT_EQ(mismatches.count(), 0) << "of " << mismatches.checked();
  EXPECT_GT(in_fast_path, 1000);
}

TEST(JsonNumberTest, RandomBitPatternsMatchToChars) {
  // A million patterns over all of (0, 1), where most have exponents far
  // below the integer path's, and a million over the path's own domain.
  std::mt19937_64 rng(20151);
  Mismatches mismatches;
  const auto bits = [](double value) {
    return std::bit_cast<uint64_t>(value);
  };
  for (const auto& [low, high] :
       {std::pair(bits(std::numeric_limits<double>::denorm_min()), bits(1.0)),
        std::pair(bits(1e-10), bits(1.0))}) {
    std::uniform_int_distribution<uint64_t> pattern(low, high - 1);
    for (int i = 0; i < 1000000; ++i) {
      mismatches.Check(std::bit_cast<double>(pattern(rng)));
    }
  }
  EXPECT_EQ(mismatches.count(), 0) << "of " << mismatches.checked();
}

TEST(JsonNumberTest, NeighboursOfRoundingMidpointsMatchToChars) {
  // For each decimal exponent of the integer path, random ten-digit
  // values d1..d10 and the midpoint d1..d10 5 between two of them: the
  // doubles within 3 ulps of it round either way.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<uint64_t> digits(1000000000, 9999999999);
  Mismatches mismatches;
  for (int exponent = -10; exponent <= -1; ++exponent) {
    for (int i = 0; i < 2000; ++i) {
      const std::string midpoint = std::to_string(digits(rng)) + "5e" +
                                   std::to_string(exponent - 10);
      for (const double value : Neighbourhood(Parse(midpoint), 3)) {
        mismatches.Check(value);
      }
    }
  }
  EXPECT_EQ(mismatches.count(), 0) << "of " << mismatches.checked();
}

TEST(JsonNumberTest, ExactTiesRoundHalfEven) {
  // A midpoint (2D + 1) / 2 x 10^(exponent - 9) is a double when
  // 5^(9 - exponent) divides 2D + 1: it is j / 2^(10 - exponent) for the
  // odd quotient j. Every such tie of the path, and its neighbours.
  Mismatches mismatches;
  int64_t ties = 0;
  for (int exponent = -10; exponent <= -1; ++exponent) {
    uint64_t five_power = 1;
    for (int i = 0; i < 9 - exponent; ++i) five_power *= 5;
    for (uint64_t j = 1; j * five_power < 20000000000ULL; j += 2) {
      if (j * five_power < 2000000000ULL) continue;
      const double tie = std::ldexp(static_cast<double>(j), exponent - 10);
      ++ties;
      for (const double value : Neighbourhood(tie, 3)) mismatches.Check(value);
    }
  }
  // 2^-15 = 3.0517578125e-05 is such a tie: half-even keeps the 2.
  std::string text;
  AppendJsonNumber(std::ldexp(1.0, -15), &text);
  EXPECT_EQ(text, "3.051757812e-05");
  EXPECT_GT(ties, 1000);
  EXPECT_EQ(mismatches.count(), 0) << "of " << mismatches.checked();
}

TEST(JsonNumberTest, RoundingUpToAPowerOfTenMatchesToChars) {
  // Below each power of ten in the path's reach, the doubles that round
  // up to it at ten digits, and a few that do not.
  Mismatches mismatches;
  for (int exponent = -10; exponent <= 0; ++exponent) {
    const double power = Parse("1e" + std::to_string(exponent));
    for (const char* offset : {"5e-11", "4.9999999e-11", "4e-11", "1e-12"}) {
      mismatches.Check(power * (1.0 - Parse(offset)));
    }
    for (const double value : Neighbourhood(power, 8)) mismatches.Check(value);
  }
  double below_one = 1.0;
  for (int i = 0; i < 1000; ++i) {
    below_one = std::nextafter(below_one, 0.0);
    mismatches.Check(below_one);
  }
  EXPECT_EQ(mismatches.count(), 0) << "of " << mismatches.checked();
  EXPECT_EQ(JsonNumber(std::nextafter(1.0, 0.0)), "1");
  EXPECT_EQ(JsonNumber(0.99999999996), "1");
  EXPECT_EQ(JsonNumber(9.9999999999e-6), "1e-05");
  EXPECT_EQ(JsonNumber(9.99999999996e-5), "0.0001");
  EXPECT_EQ(JsonNumber(0.0999999999996), "0.1");
}

TEST(JsonNumberTest, ValuesOutsideThePathKeepTheirText) {
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      2.0,
      42.0,
      1e15,
      9007199254740992.0,
      1e20,
      -0.5,
      -1e-5,
      -3.0,
      -0.97,
      std::numeric_limits<double>::denorm_min(),
      1e-310,
      std::numeric_limits<double>::min(),
      9.99999999e-11,
      std::nextafter(1e-10, 0.0),
      1.5,
      123.456,
      1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::quiet_NaN(),
      kInf,
      -kInf};
  Mismatches mismatches;
  for (const double value : values) mismatches.Check(value);
  EXPECT_EQ(mismatches.count(), 0);
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(-kInf), "null");
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(1.0), "1");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(0.97), "0.97");
  EXPECT_EQ(JsonNumber(1.5e-7), "1.5e-07");
  EXPECT_EQ(JsonNumber(0.0001234), "0.0001234");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.3333333333");
}

TEST(JsonEscapeTest, EveryByteEscapesAsJsonRequires) {
  for (int c = 0; c < 256; ++c) {
    const std::string text = {'a', static_cast<char>(c), 'b'};
    std::string out = "x";
    AppendJsonEscaped(text, &out);
    ASSERT_EQ(out.size(), 1 + JsonEscapedSize(text)) << c;
    std::string expected = "xa";
    if (c == '"') {
      expected += "\\\"";
    } else if (c == '\\') {
      expected += "\\\\";
    } else if (c == '\n') {
      expected += "\\n";
    } else if (c == '\r') {
      expected += "\\r";
    } else if (c == '\t') {
      expected += "\\t";
    } else if (c < 0x20) {
      char escape[7];
      std::snprintf(escape, sizeof(escape), "\\u%04x", c);
      expected += escape;
    } else {
      expected += static_cast<char>(c);
    }
    EXPECT_EQ(out, expected + "b") << c;
  }
  std::string out;
  AppendJsonEscaped("", &out);
  EXPECT_EQ(out, "");
  EXPECT_EQ(JsonEscapedSize("say \"hi\"\n"), 12u);
}

TEST(JsonEscapeTest, LongTextsAreSizedAtEveryPosition) {
  // Texts of eight bytes or more are checked a word at a time: one byte
  // that needs an escape, or one that does not, at every position.
  for (const size_t length : {8, 9, 15, 16, 17, 23, 24, 31}) {
    for (size_t at = 0; at < length; ++at) {
      for (const int c : {0x00, 0x0a, 0x1f, 0x20, int{'"'}, int{'\\'},
                          int{'A'}, 0x7f, 0x80, 0xa2, 0xdc, 0xff}) {
        std::string text(length, 'k');
        text[at] = static_cast<char>(c);
        std::string out;
        AppendJsonEscaped(text, &out);
        const size_t plain_escape = c == 0x0a || c == '"' || c == '\\' ? 1 : 0;
        const size_t escape = c < 0x20 && c != 0x0a ? 5 : plain_escape;
        ASSERT_EQ(JsonEscapedSize(text), length + escape)
            << length << " " << at << " " << c;
        ASSERT_EQ(out.size(), length + escape) << length << " " << at;
      }
    }
  }
}

}  // namespace
}  // namespace obs
}  // namespace surveyor
