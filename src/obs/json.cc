#include "src/obs/json.h"

#include <cstdio>

namespace fbufs {

namespace {

// |members| between |open| and |close|, each printed by |print|: one per
// line at depth 0 and 1, inline below that.
template <typename Members, typename Print>
std::string DumpMembers(int depth, char open, char close, const Members& members,
                        Print print) {
  std::string out(1, open);
  if (members.empty()) {
    return out + close;
  }
  const bool lines = depth <= 1;
  const std::string indent(2 * depth, ' ');
  for (std::size_t i = 0; i < members.size(); ++i) {
    out += i == 0 ? "" : (lines ? "," : ", ");
    out += lines ? "\n  " + indent : "";
    out += print(members[i]);
  }
  return out + (lines ? "\n" + indent : "") + close;
}

}  // namespace

std::string Json::Dump(int depth) const {
  if (const bool* b = std::get_if<bool>(&value_)) {
    return *b ? "true" : "false";
  }
  if (const std::int64_t* i = std::get_if<std::int64_t>(&value_)) {
    return std::to_string(*i);
  }
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value_)) {
    return std::to_string(*u);
  }
  if (const double* d = std::get_if<double>(&value_); d != nullptr && *d == *d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", *d);
    return buf;
  }
  if (const std::string* s = std::get_if<std::string>(&value_)) {
    return JsonQuote(*s);
  }
  if (const Array* a = std::get_if<Array>(&value_)) {
    return DumpMembers(depth, '[', ']', *a,
                       [&](const Json& v) { return v.Dump(depth + 1); });
  }
  if (const Object* o = std::get_if<Object>(&value_)) {
    return DumpMembers(depth, '{', '}', *o, [&](const auto& member) {
      return JsonQuote(member.first) + ": " + member.second.Dump(depth + 1);
    });
  }
  return "null";  // null, and NaN
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && written;
}

bool WriteJsonFile(const std::string& path, const Json& value) {
  return WriteTextFile(path, value.Dump() + "\n");
}

}  // namespace fbufs
