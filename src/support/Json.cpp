//===- Json.cpp -----------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Support/Json.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace defacto;

//===----------------------------------------------------------------------===//
// Document-tree parser
//===----------------------------------------------------------------------===//

namespace {

/// Recursive-descent parser building JsonValue trees (RFC 8259 grammar).
/// Syntax errors are reported as Status with a byte offset.
class Parser {
public:
  Parser(const std::string &Text) : S(Text) {}

  Expected<JsonValue> run() {
    JsonValue V;
    if (Status E = value(V); !E.isOk())
      return E;
    skipWs();
    if (Pos != S.size())
      return fail("trailing content after value");
    return V;
  }

private:
  Status fail(const std::string &Why) const {
    return Status::error(ErrorCode::InvalidInput,
                         "invalid JSON at byte " + std::to_string(Pos) +
                             ": " + Why);
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  Status literal(const char *Lit) {
    for (const char *P = Lit; *P; ++P, ++Pos)
      if (Pos >= S.size() || S[Pos] != *P)
        return fail(std::string("bad literal (expected ") + Lit + ")");
    return Status::ok();
  }

  Status string(std::string &Out) {
    if (Pos >= S.size() || S[Pos] != '"')
      return fail("expected string");
    ++Pos;
    Out.clear();
    while (Pos < S.size()) {
      unsigned char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return Status::ok();
      }
      if (C == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return fail("truncated escape");
        char E = S[Pos];
        switch (E) {
        case '"':  Out += '"';  break;
        case '\\': Out += '\\'; break;
        case '/':  Out += '/';  break;
        case 'b':  Out += '\b'; break;
        case 'f':  Out += '\f'; break;
        case 'n':  Out += '\n'; break;
        case 'r':  Out += '\r'; break;
        case 't':  Out += '\t'; break;
        case 'u': {
          unsigned Code = 0;
          for (int I = 0; I != 4; ++I) {
            ++Pos;
            if (Pos >= S.size() ||
                !std::isxdigit(static_cast<unsigned char>(S[Pos])))
              return fail("bad \\u escape");
            char H = S[Pos];
            Code = Code * 16 +
                   (std::isdigit(static_cast<unsigned char>(H))
                        ? static_cast<unsigned>(H - '0')
                        : static_cast<unsigned>(std::tolower(H) - 'a') + 10);
          }
          // UTF-8 encode the code point (surrogate pairs are left as two
          // independently-encoded units; our writers never emit them).
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape");
        }
        ++Pos;
        continue;
      }
      if (C < 0x20)
        return fail("raw control character in string");
      Out += static_cast<char>(C);
      ++Pos;
    }
    return fail("unterminated string");
  }

  /// Consumes a run of digits; false when there is none.
  bool digits() {
    size_t From = Pos;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    return Pos > From;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, kept as raw text.
  Status number(std::string &Out) {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    if (Pos < S.size() && S[Pos] == '0')
      ++Pos;
    else if (!digits())
      return fail("expected digit");
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      if (!digits())
        return fail("expected fraction digit");
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      if (!digits())
        return fail("expected exponent digit");
    }
    Out = S.substr(Start, Pos - Start);
    return Status::ok();
  }

  Status value(JsonValue &V) {
    if (++Depth > 256)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= S.size())
      return fail("expected value");
    Status E = Status::ok();
    switch (S[Pos]) {
    case '{':
      V.ValueKind = JsonValue::Kind::Object;
      E = object(V);
      break;
    case '[':
      V.ValueKind = JsonValue::Kind::Array;
      E = array(V);
      break;
    case '"':
      V.ValueKind = JsonValue::Kind::String;
      E = string(V.Text);
      break;
    case 't':
      V.ValueKind = JsonValue::Kind::Bool;
      V.Boolean = true;
      E = literal("true");
      break;
    case 'f':
      V.ValueKind = JsonValue::Kind::Bool;
      V.Boolean = false;
      E = literal("false");
      break;
    case 'n':
      V.ValueKind = JsonValue::Kind::Null;
      E = literal("null");
      break;
    default:
      V.ValueKind = JsonValue::Kind::Number;
      E = number(V.Text);
    }
    --Depth;
    return E;
  }

  Status object(JsonValue &V) {
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return Status::ok();
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (Status E = string(Key); !E.isOk())
        return E;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return fail("expected ':'");
      ++Pos;
      JsonValue Member;
      if (Status E = value(Member); !E.isOk())
        return E;
      V.Members.emplace_back(std::move(Key), std::move(Member));
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Pos < S.size() && S[Pos] == '}') {
        ++Pos;
        return Status::ok();
      }
      return fail("expected ',' or '}'");
    }
  }

  Status array(JsonValue &V) {
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return Status::ok();
    }
    for (;;) {
      JsonValue Element;
      if (Status E = value(Element); !E.isOk())
        return E;
      V.Elements.push_back(std::move(Element));
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Pos < S.size() && S[Pos] == ']') {
        ++Pos;
        return Status::ok();
      }
      return fail("expected ',' or ']'");
    }
  }

  const std::string &S;
  size_t Pos = 0;
  int Depth = 0;
};

} // namespace

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (!isObject())
    return nullptr;
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

std::string JsonValue::str(const std::string &Key,
                           const std::string &Default) const {
  const JsonValue *V = find(Key);
  return V && V->isString() ? V->Text : Default;
}

double JsonValue::num(const std::string &Key, double Default) const {
  const JsonValue *V = find(Key);
  if (!V || (!V->isNumber() && !V->isString()))
    return Default;
  const char *Begin = V->Text.c_str();
  char *End = nullptr;
  double Parsed = std::strtod(Begin, &End);
  return End == Begin ? Default : Parsed;
}

Expected<uint64_t> JsonValue::checkedUint(const std::string &Key,
                                          uint64_t Max,
                                          uint64_t Default) const {
  const JsonValue *V = find(Key);
  if (!V)
    return Default;
  Expected<uint64_t> N = V->checkedUint(Max);
  if (!N)
    return Status::error(ErrorCode::InvalidInput,
                         "\"" + Key + "\" " + N.status().message());
  return N;
}

Expected<uint64_t> JsonValue::checkedUint(uint64_t Max) const {
  auto reject = [](const std::string &Why) {
    return Status::error(ErrorCode::InvalidInput, "must be " + Why);
  };
  if (!isNumber() && !isString())
    return reject("an integer");
  if (Text.empty() ||
      Text.find_first_not_of("0123456789") != std::string::npos)
    return reject("a non-negative integer (got '" + Text + "')");
  errno = 0;
  unsigned long long Parsed = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno == ERANGE || Parsed > Max)
    return reject("at most " + std::to_string(Max) + " (got " + Text + ")");
  return static_cast<uint64_t>(Parsed);
}

uint64_t JsonValue::uint(const std::string &Key, uint64_t Default) const {
  const JsonValue *V = find(Key);
  if (!V || (!V->isNumber() && !V->isString()))
    return Default;
  const char *Begin = V->Text.c_str();
  char *End = nullptr;
  unsigned long long Parsed = std::strtoull(Begin, &End, 10);
  return End == Begin ? Default : Parsed;
}

bool JsonValue::boolean(const std::string &Key, bool Default) const {
  const JsonValue *V = find(Key);
  return V && V->ValueKind == Kind::Bool ? V->Boolean : Default;
}

Expected<JsonValue> defacto::parseJson(const std::string &Text) {
  return Parser(Text).run();
}

bool defacto::isValidJson(const std::string &Text, std::string *Error) {
  Expected<JsonValue> Parsed = parseJson(Text);
  if (!Parsed && Error)
    *Error = Parsed.status().message();
  return Parsed.hasValue();
}

std::string defacto::jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\b': Out += "\\b";  break;
    case '\f': Out += "\\f";  break;
    case '\n': Out += "\\n";  break;
    case '\r': Out += "\\r";  break;
    case '\t': Out += "\\t";  break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  Out += '"';
  return Out;
}
