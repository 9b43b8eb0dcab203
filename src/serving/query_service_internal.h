#ifndef SURVEYOR_SERVING_QUERY_SERVICE_INTERNAL_H_
#define SURVEYOR_SERVING_QUERY_SERVICE_INTERNAL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// The /v1/query/batch body parser, exposed so tests can drive it on its
// own. Callers use serving/query_service.h.

namespace surveyor {
namespace serving {
namespace query_service_internal {

/// Strict scanner for the one JSON shape /v1/query/batch accepts:
/// {"queries":[{"entity":"..","property":".."}, ...]}. Unknown string
/// keys inside a query object are ignored; anything else is a parse
/// error — a query API should reject what it would silently drop. Strings
/// come back as views into the body; one holding an escape is decoded
/// onto the end of `scratch`, reserved for the whole body on first use,
/// so no earlier view moves.
class BatchParser {
 public:
  using Query = std::pair<std::string_view, std::string_view>;

  BatchParser(std::string_view text, std::string* scratch)
      : text_(text), scratch_(scratch) {}

  /// Parses the whole body into `out`, reserving room for up to
  /// `expected` queries.
  bool Parse(size_t expected, std::vector<Query>* out);

 private:
  void SkipWs();
  bool Consume(char c);
  /// A string from its opening quote: a view into the body, or into the
  /// scratch when it holds an escape.
  bool ParseString(std::string_view* out);
  /// ParseString for a string holding an escape, from its first byte.
  bool DecodeString(std::string_view* out);
  bool ParseQueryObject(Query* query);

  std::string_view text_;
  std::string* scratch_;
  size_t pos_ = 0;
};

}  // namespace query_service_internal
}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_SERVING_QUERY_SERVICE_INTERNAL_H_
