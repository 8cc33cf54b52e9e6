#include "verify/certificate_io.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "util/number.hpp"

namespace tevot::verify {

namespace {

// Minimal recursive-descent JSON reader, enough for the certificate
// grammar (objects, arrays, strings, numbers, booleans, null). Kept
// private to this translation unit; errors throw StatusError with the
// byte offset so a truncated certificate names where it broke off.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  /// Raw source slice of this value, so embedded documents (the
  /// counterexample box) survive verbatim.
  std::string raw;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view input) : input_(input) {}

  JsonValue parseDocument() {
    JsonValue value = parseValue();
    skipSpace();
    if (pos_ != input_.size()) {
      fail("trailing bytes after the JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: " + what + " at byte " + std::to_string(pos_)));
  }

  void skipSpace() {
    while (pos_ < input_.size() &&
           (input_[pos_] == ' ' || input_[pos_] == '\t' ||
            input_[pos_] == '\n' || input_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= input_.size()) fail("unexpected end of input");
    return input_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consumeLiteral(std::string_view literal) {
    if (input_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parseValue() {
    skipSpace();
    const std::size_t start = pos_;
    JsonValue value;
    switch (peek()) {
      case '{': value = parseObject(); break;
      case '[': value = parseArray(); break;
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.text = parseString();
        break;
      case 't':
        if (!consumeLiteral("true")) fail("bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        break;
      case 'f':
        if (!consumeLiteral("false")) fail("bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
        break;
      case 'n':
        if (!consumeLiteral("null")) fail("bad literal");
        value.kind = JsonValue::Kind::kNull;
        break;
      default:
        value.kind = JsonValue::Kind::kNumber;
        value.number = parseNumber();
        break;
    }
    value.raw = std::string(input_.substr(start, pos_ - start));
    return value;
  }

  JsonValue parseObject() {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    expect('{');
    skipSpace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skipSpace();
      std::string key = parseString();
      skipSpace();
      expect(':');
      value.object[std::move(key)] = parseValue();
      skipSpace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parseArray() {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    expect('[');
    skipSpace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.array.push_back(parseValue());
      skipSpace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= input_.size()) fail("unterminated string");
      const char c = input_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= input_.size()) fail("unterminated escape");
      const char escape = input_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The writer only emits \u00XX control escapes; decode the
          // low byte and reject anything wider than Latin-1.
          if (pos_ + 4 > input_.size()) fail("truncated \\u escape");
          std::uint8_t code = 0;
          if (!util::parseWhole(input_.substr(pos_, 4), &code, 16)) {
            fail("unsupported \\u escape");
          }
          pos_ += 4;
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  double parseNumber() {
    const std::size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) != 0 ||
            input_[pos_] == '-' || input_[pos_] == '+' ||
            input_[pos_] == '.' || input_[pos_] == 'e' ||
            input_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string_view text = input_.substr(start, pos_ - start);
    double value = 0.0;
    if (!util::parseWhole(text, &value)) {
      pos_ = start;
      fail("malformed number '" + std::string(text) + "'");
    }
    return value;
  }

  std::string_view input_;
  std::size_t pos_ = 0;
};

const JsonValue& field(const JsonValue& object, const std::string& key,
                       JsonValue::Kind kind, const char* kind_name) {
  const auto it = object.object.find(key);
  if (it == object.object.end()) {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: missing field '" + key + "'"));
  }
  if (it->second.kind != kind) {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: field '" + key + "' is not " + kind_name));
  }
  return it->second;
}

double numberField(const JsonValue& object, const std::string& key) {
  const double value =
      field(object, key, JsonValue::Kind::kNumber, "a number").number;
  if (!std::isfinite(value)) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: field '" + key + "' is not finite"));
  }
  return value;
}

std::size_t countField(const JsonValue& object, const std::string& key) {
  const double value = numberField(object, key);
  if (value < 0.0 || value != std::floor(value)) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: field '" + key +
        "' is not a non-negative integer"));
  }
  return static_cast<std::size_t>(value);
}

/// [lo, hi] pair with lo <= hi, both finite.
std::pair<double, double> rangeField(const JsonValue& object,
                                     const std::string& key) {
  const JsonValue& range =
      field(object, key, JsonValue::Kind::kArray, "an array");
  if (range.array.size() != 2 ||
      range.array[0].kind != JsonValue::Kind::kNumber ||
      range.array[1].kind != JsonValue::Kind::kNumber) {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: field '" + key +
        "' is not a two-number array"));
  }
  const double lo = range.array[0].number;
  const double hi = range.array[1].number;
  if (!std::isfinite(lo) || !std::isfinite(hi) || lo > hi) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: field '" + key + "' range [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "] is invalid"));
  }
  return {lo, hi};
}

SafeTclkCertificate certificateFromJson(const JsonValue& root) {
  if (root.kind != JsonValue::Kind::kObject) {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: document is not an object"));
  }
  const std::string& schema =
      field(root, "schema", JsonValue::Kind::kString, "a string").text;
  if (schema != "tevot-safe-tclk-certificate-v1") {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: unsupported schema '" + schema + "'"));
  }

  SafeTclkCertificate cert;
  cert.model_path =
      field(root, "model", JsonValue::Kind::kString, "a string").text;
  cert.history =
      field(root, "history", JsonValue::Kind::kBool, "a boolean").boolean;
  cert.feature_count = countField(root, "features");
  cert.tree_count = countField(root, "trees");
  if (cert.feature_count == 0 || cert.tree_count == 0) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: zero features or trees"));
  }

  const JsonValue& box = field(root, "operating_box",
                               JsonValue::Kind::kObject, "an object");
  std::tie(cert.v_lo, cert.v_hi) = rangeField(box, "voltage");
  std::tie(cert.t_lo, cert.t_hi) = rangeField(box, "temperature");

  cert.tclk_ps = numberField(root, "tclk_ps");
  if (cert.tclk_ps <= 0.0) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: tclk_ps must be positive, got " +
        std::to_string(cert.tclk_ps)));
  }
  cert.certified =
      field(root, "certified", JsonValue::Kind::kBool, "a boolean").boolean;

  const JsonValue& bound = field(root, "delay_bound_ps",
                                 JsonValue::Kind::kObject, "an object");
  cert.bound_lo_ps = static_cast<float>(numberField(bound, "min"));
  cert.bound_hi_ps = static_cast<float>(numberField(bound, "max"));
  if (cert.bound_lo_ps > cert.bound_hi_ps) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: delay bound min exceeds max"));
  }
  cert.box_evals = countField(root, "box_evals");

  const auto counterexample = root.object.find("counterexample");
  if (counterexample == root.object.end()) {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: missing field 'counterexample'"));
  }
  if (counterexample->second.kind == JsonValue::Kind::kNull) {
    cert.counterexample_json.clear();
  } else if (counterexample->second.kind == JsonValue::Kind::kObject) {
    cert.counterexample_json = counterexample->second.raw;
  } else {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: field 'counterexample' is neither null nor "
        "an object"));
  }
  return cert;
}

}  // namespace

util::Status loadCertificate(std::string_view json,
                             SafeTclkCertificate* out) {
  try {
    JsonParser parser(json);
    *out = certificateFromJson(parser.parseDocument());
    return util::Status::okStatus();
  } catch (const util::StatusError& error) {
    return error.status();
  }
}

util::Status loadCertificateFile(const std::string& path,
                                 SafeTclkCertificate* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return util::ioErrorFor("open certificate", path, errno);
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) {
    return util::ioErrorFor("read certificate", path, errno);
  }
  util::Status status = loadCertificate(buffer.str(), out);
  if (!status.ok()) {
    status.message += " (" + path + ")";
  }
  return status;
}

}  // namespace tevot::verify
