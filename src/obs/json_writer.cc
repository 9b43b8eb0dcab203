#include "obs/json_writer.h"

#include <charconv>
#include <cmath>

#include "util/hotpath.h"
#include "util/logging.h"

namespace surveyor {
namespace obs {

SURVEYOR_HOT_FUNCTION
void AppendJsonEscaped(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  // Appends each run of bytes that need no escape in one call.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
}

SURVEYOR_HOT_FUNCTION
void AppendJsonNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buffer[32];
  std::to_chars_result result;
  // Integral values print without a fraction so counters stay readable.
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    result = std::to_chars(buffer, buffer + sizeof(buffer),
                           static_cast<long long>(value));
  } else {
    // The same digits as printf("%.10g").
    result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                           std::chars_format::general, 10);
  }
  out->append(buffer, static_cast<size_t>(result.ptr - buffer));
}

std::string JsonNumber(double value) {
  std::string out;
  AppendJsonNumber(value, &out);
  return out;
}

void JsonWriter::Prefix() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Prefix();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  SURVEYOR_CHECK(!has_element_.empty());
  has_element_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Prefix();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  SURVEYOR_CHECK(!has_element_.empty());
  has_element_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Prefix();
  out_ += '"';
  AppendJsonEscaped(key, &out_);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  Prefix();
  AppendJsonNumber(value, &out_);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t value) {
  Prefix();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t value) {
  Prefix();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  Prefix();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::RawValue(std::string_view json) {
  Prefix();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  Prefix();
  out_ += '"';
  AppendJsonEscaped(value, &out_);
  out_ += '"';
  return *this;
}

}  // namespace obs
}  // namespace surveyor
