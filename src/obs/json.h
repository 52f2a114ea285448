// The one JSON writer behind every BENCH_*.json and CAMPAIGN_*.json.
//
// A Json is a value tree: null, bool, int64, uint64, double, string, array
// or insertion-ordered object. Reports build their whole document as one
// tree, and Dump() prints it under one rule: integers exactly, doubles to
// ten significant digits (printf %g style) with NaN as null, strings through
// JsonQuote; containers at depth 0 and 1 one member per line, indented two
// spaces per depth, deeper ones inline with ", " and ": ", and empty ones as
// {} and []. Dumping is a pure function of the tree, so same-seed runs give
// byte-identical files.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace fbufs {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  Json(bool b) : value_(b) {}
  template <std::signed_integral T>
  Json(T v) : value_(static_cast<std::int64_t>(v)) {}
  template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
  Json(T v) : value_(static_cast<std::uint64_t>(v)) {}
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  // The text of this value nested |depth| levels down: Dump(1) prints a
  // report section exactly as it sits in its report.
  std::string Dump(int depth = 0) const;

 private:
  std::variant<std::monostate, bool, std::int64_t, std::uint64_t, double,
               std::string, Array, Object>
      value_;
};

// |s| as a JSON string literal, quotes included: '"' and '\' are
// backslash-escaped, newline and tab print as \n and \t, and other control
// characters as \u00XX.
std::string JsonQuote(const std::string& s);

// Writes |text| to |path|; false when the file cannot be opened, written or
// flushed. The one file writer behind every BENCH, CAMPAIGN and TRACE file.
bool WriteTextFile(const std::string& path, const std::string& text);

// Writes value.Dump() and a newline to |path|; false on I/O failure.
bool WriteJsonFile(const std::string& path, const Json& value);

}  // namespace fbufs

#endif  // SRC_OBS_JSON_H_
