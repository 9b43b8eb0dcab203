#ifndef SURVEYOR_OBS_JSON_WRITER_H_
#define SURVEYOR_OBS_JSON_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace surveyor {
namespace obs {

/// Minimal streaming JSON writer: handles commas, nesting and string
/// escaping so exporters and the run report cannot emit malformed JSON.
/// Usage:
///   JsonWriter w;
///   w.BeginObject().Key("n").Value(3).Key("xs").BeginArray()
///       .Value("a").EndArray().EndObject();
///   w.str();  // {"n":3,"xs":["a"]}
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be followed by a value or container.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(double value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }
  JsonWriter& Value(uint64_t value);
  JsonWriter& Value(bool value);
  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value) {
    return Value(std::string_view(value));
  }

  /// Embeds `json` verbatim as one value — it must already be exactly one
  /// well-formed JSON value (e.g. another JsonWriter's str()). Commas and
  /// key bookkeeping are handled; the content is not validated.
  JsonWriter& RawValue(std::string_view json);

  /// The document so far. Call after every container has been closed.
  const std::string& str() const { return out_; }

 private:
  /// Emits a separating comma when needed (before a sibling element).
  void Prefix();

  std::string out_;
  /// One flag per open container: has it emitted an element yet?
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

/// Appends `text` to `out` with JSON string escaping (no quotes added):
/// quote, backslash and control bytes are escaped, every other byte
/// (UTF-8 included) is copied as is.
void AppendJsonEscaped(std::string_view text, std::string* out);

/// The bytes AppendJsonEscaped appends for `text`.
size_t JsonEscapedSize(std::string_view text);

/// Writes what AppendJsonEscaped appends for `text` to `out`, which holds
/// JsonEscapedSize(text) bytes; returns the end of what it wrote.
char* WriteJsonEscaped(std::string_view text, char* out);

/// Appends a double the way JSON expects: integral values as integers,
/// others with 10 significant digits (printf's "%.10g"), non-finite
/// values as null.
void AppendJsonNumber(double value, std::string* out);

/// Room FormatJsonNumber needs.
inline constexpr size_t kJsonNumberBufferSize = 32;

/// Writes what AppendJsonNumber appends for `value` to `buffer`, which
/// holds kJsonNumberBufferSize bytes; returns its length. A finite value
/// in [1e-10, 1), where a mined posterior almost always lies, is printed
/// from its exact binary value by integer arithmetic; every other value
/// goes through std::to_chars. Both give the same bytes
/// (tests/obs/json_writer_test.cc).
size_t FormatJsonNumber(double value, char* buffer);

/// AppendJsonNumber into a fresh string.
std::string JsonNumber(double value);

}  // namespace obs
}  // namespace surveyor

#endif  // SURVEYOR_OBS_JSON_WRITER_H_
