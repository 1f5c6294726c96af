// Minimal JSON value: parse, inspect, serialize.
//
// The observability layer speaks JSON in two places — Chrome trace files
// and the BENCH_*.json perf artifacts bench_diff compares across commits —
// and the tests must be able to load both back. This is a deliberately
// small recursive-descent implementation (objects keep insertion order,
// numbers are doubles, \uXXXX decodes to UTF-8) rather than a third-party
// dependency: the container builds offline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gridsched::obs {

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Shared by every writer in the repo so
/// a parameterized label can never corrupt an artifact.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Renders a double as a JSON number literal. JSON has no NaN/Inf, so
/// non-finite values serialize as `null` — the convention the BENCH
/// artifacts established (a degenerate statistic must not corrupt the
/// file).
[[nodiscard]] std::string json_number(double value);

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered members: the artifacts are stable, diffable files,
  /// so round-tripping must not reorder keys.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  explicit JsonValue(bool value) : type_(Type::kBool), bool_(value) {}
  explicit JsonValue(double value) : type_(Type::kNumber), number_(value) {}
  explicit JsonValue(std::string value)
      : type_(Type::kString), string_(std::move(value)) {}
  explicit JsonValue(Array value)
      : type_(Type::kArray), array_(std::move(value)) {}
  explicit JsonValue(Object value)
      : type_(Type::kObject), object_(std::move(value)) {}

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type_ == Type::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] const std::string& as_string() const noexcept {
    return string_;
  }
  [[nodiscard]] const Array& as_array() const noexcept { return array_; }
  [[nodiscard]] const Object& as_object() const noexcept { return object_; }
  [[nodiscard]] Array& as_array() noexcept { return array_; }
  [[nodiscard]] Object& as_object() noexcept { return object_; }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Appends a member (objects only; no duplicate-key check — callers own
  /// their schemas).
  void set(std::string key, JsonValue value);

  /// Parses one JSON document. Trailing non-whitespace is an error.
  /// Returns nullopt on malformed input; `error` (when given) receives a
  /// byte offset + message.
  [[nodiscard]] static std::optional<JsonValue> parse(
      std::string_view text, std::string* error = nullptr);

  /// Serializes. `indent` < 0 renders compact one-line JSON; >= 0 pretty-
  /// prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace gridsched::obs
