#include "src/common/value.h"

#include <cstdlib>
#include <functional>

namespace xvu {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return "int";
    case ValueType::kString: return "string";
    case ValueType::kBool: return "bool";
  }
  return "?";
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return std::to_string(as_int());
    case ValueType::kString: return as_str();
    case ValueType::kBool: return as_bool() ? "true" : "false";
  }
  return "?";
}

size_t Value::Hash() const {
  // Mix the type tag so that Int(1) and Bool(true) hash apart.
  size_t seed = static_cast<size_t>(type()) * 0x9e3779b97f4a7c15ULL;
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      seed ^= std::hash<int64_t>()(as_int()) + 0x9e3779b9 + (seed << 6);
      break;
    case ValueType::kString:
      seed ^= std::hash<std::string>()(as_str()) + 0x9e3779b9 + (seed << 6);
      break;
    case ValueType::kBool:
      seed ^= std::hash<bool>()(as_bool()) + 0x9e3779b9 + (seed << 6);
      break;
  }
  return seed;
}

size_t TupleHash::operator()(const Tuple& t) const {
  size_t seed = t.size();
  for (const Value& v : t) {
    seed ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  }
  return seed;
}

std::string TupleToString(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += t[i].ToString();
  }
  out += ")";
  return out;
}

Value ParseValueAs(const std::string& text, ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      char* end = nullptr;
      int64_t v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') return Value::Null();
      return Value::Int(v);
    }
    case ValueType::kString:
      return Value::Str(text);
    case ValueType::kBool:
      if (text == "true" || text == "T" || text == "1") {
        return Value::Bool(true);
      }
      if (text == "false" || text == "F" || text == "0") {
        return Value::Bool(false);
      }
      return Value::Null();
  }
  return Value::Null();
}

}  // namespace xvu
