#ifndef SURFER_OBS_JSON_H_
#define SURFER_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"

namespace surfer {
namespace obs {

/// A minimal JSON document model: enough to emit the observability artifacts
/// (run reports, Chrome traces, metric snapshots) and to parse them back in
/// tests and loaders. Objects preserve insertion order so serialized output
/// is deterministic.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}                       // null
  JsonValue(std::nullptr_t) : value_(nullptr) {}        // NOLINT
  JsonValue(bool b) : value_(b) {}                      // NOLINT
  JsonValue(double d) : value_(d) {}                    // NOLINT
  JsonValue(int i) : value_(static_cast<double>(i)) {}  // NOLINT
  JsonValue(int64_t i) : value_(static_cast<double>(i)) {}   // NOLINT
  JsonValue(uint64_t u) : value_(static_cast<double>(u)) {}  // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}  // NOLINT
  JsonValue(std::string s) : value_(std::move(s)) {}    // NOLINT
  JsonValue(Array a) : value_(std::move(a)) {}          // NOLINT
  JsonValue(Object o) : value_(std::move(o)) {}         // NOLINT

  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  Array& as_array() { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }
  Object& as_object() { return std::get<Object>(value_); }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // Where these inline into a caller that built `v` from a scalar, GCC 12
  // warns (-Wmaybe-uninitialized) that the moved variant's vector and
  // string alternatives may be uninitialized: it follows every arm of the
  // variant's move, though only the held alternative's arm runs.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  /// Appends to an array value.
  void Append(JsonValue v) { as_array().push_back(std::move(v)); }
  /// Sets (appends) an object member; does not deduplicate keys.
  void Set(std::string key, JsonValue v) {
    as_object().emplace_back(std::move(key), std::move(v));
  }
#pragma GCC diagnostic pop

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  std::string Write(int indent = 0) const;

 private:
  void WriteTo(std::string* out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

/// Parses a JSON document (strict: no comments or trailing commas).
Result<JsonValue> ParseJson(std::string_view text);

/// Escapes a string for embedding inside a JSON string literal (no quotes).
std::string JsonEscape(std::string_view s);

}  // namespace obs
}  // namespace surfer

#endif  // SURFER_OBS_JSON_H_
