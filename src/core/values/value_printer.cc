// Rendering of values in the paper's notation:
//   null                     null
//   integers                 42
//   reals                    3.5
//   bools                    true / false
//   chars                    c'x' (c, then the character single-quoted)
//   strings                  'IDEA' (single-quoted, escaped)
//   time                     t17 / tnow
//   oids                     i4
//   sets                     {v1,...,vn}
//   lists                    [v1,...,vn]
//   records                  (a1:v1,...,an:vn)
//   temporal functions       {<[20,45],i4>,<[46,now],i9>}
#include <cstdio>

#include "common/string_util.h"
#include "core/values/temporal_function.h"
#include "core/values/value.h"

namespace tchimera {
namespace {

void AppendEscapedQuoted(std::string_view s, std::string* out) {
  out->push_back('\'');
  for (char c : s) {
    switch (c) {
      case '\'':
        out->append("\\'");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('\'');
}

void AppendReal(double v, std::string* out) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  const std::string_view s(buf, static_cast<size_t>(n));
  out->append(s);
  // Ensure the token re-parses as a real, not an integer.
  if (s.find_first_of(".eEnN") == std::string_view::npos) out->append(".0");
}

}  // namespace

void Value::AppendTo(std::string* out) const {
  switch (kind_) {
    case ValueKind::kNull:
      out->append("null");
      return;
    case ValueKind::kInteger:
      AppendDecimal(scalar_, out);
      return;
    case ValueKind::kReal:
      AppendReal(real_, out);
      return;
    case ValueKind::kBool:
      out->append(scalar_ != 0 ? "true" : "false");
      return;
    case ValueKind::kChar: {
      const char c = static_cast<char>(scalar_);
      out->push_back('c');
      AppendEscapedQuoted(std::string_view(&c, 1), out);
      return;
    }
    case ValueKind::kString:
      AppendEscapedQuoted(AsString(), out);
      return;
    case ValueKind::kTime:
      out->push_back('t');
      AppendInstant(scalar_, out);
      return;
    case ValueKind::kOid:
      AsOid().AppendTo(out);
      return;
    case ValueKind::kSet:
    case ValueKind::kList: {
      out->push_back(kind_ == ValueKind::kSet ? '{' : '[');
      const auto& elems = Elements();
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out->push_back(',');
        elems[i].AppendTo(out);
      }
      out->push_back(kind_ == ValueKind::kSet ? '}' : ']');
      return;
    }
    case ValueKind::kRecord: {
      out->push_back('(');
      const auto& fields = Fields();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out->push_back(',');
        out->append(fields[i].first);
        out->push_back(':');
        fields[i].second.AppendTo(out);
      }
      out->push_back(')');
      return;
    }
    case ValueKind::kTemporal:
      AsTemporal().AppendTo(out);
      return;
  }
  out->push_back('?');
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

}  // namespace tchimera
