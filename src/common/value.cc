#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>

namespace sieve {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kBool:
      return "bool";
    case DataType::kInt:
      return "int";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
    case DataType::kTime:
      return "time";
    case DataType::kDate:
      return "date";
  }
  return "unknown";
}

namespace {

// Type family used for cross-type comparisons: numbers compare numerically,
// everything else compares within its own family only.
int Family(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt:
    case DataType::kDouble:
      return 2;
    case DataType::kTime:
      return 3;
    case DataType::kDate:
      return 4;
    case DataType::kString:
      return 5;
  }
  return 6;
}

// Days-from-civil algorithm (Howard Hinnant): days since 1970-01-01.
int64_t DaysFromCivil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097LL + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(yy + (*m <= 2));
}

}  // namespace

Result<Value> Value::ParseTime(const std::string& text) {
  int h = 0, m = 0, s = 0;
  int n = std::sscanf(text.c_str(), "%d:%d:%d", &h, &m, &s);
  if (n < 2 || h < 0 || h > 23 || m < 0 || m > 59 || s < 0 || s > 59) {
    return Status::InvalidArgument("bad time literal: " + text);
  }
  return Value::Time(h * 3600 + m * 60 + s);
}

Result<Value> Value::ParseDate(const std::string& text) {
  int y = 0, mo = 0, d = 0;
  int n = std::sscanf(text.c_str(), "%d-%d-%d", &y, &mo, &d);
  if (n != 3 || mo < 1 || mo > 12 || d < 1 || d > 31) {
    return Status::InvalidArgument("bad date literal: " + text);
  }
  return Value::Date(DaysFromCivil(y, static_cast<unsigned>(mo),
                                   static_cast<unsigned>(d)));
}

int Value::Compare(const Value& other) const {
  int fa = Family(type_);
  int fb = Family(other.type_);
  if (fa != fb) return fa < fb ? -1 : 1;
  switch (type_) {
    case DataType::kNull:
      return 0;
    case DataType::kString: {
      int c = str_.compare(other.str_);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case DataType::kInt:
    case DataType::kDouble: {
      if (type_ == DataType::kInt && other.type_ == DataType::kInt) {
        if (num_ != other.num_) return num_ < other.num_ ? -1 : 1;
        return 0;
      }
      double a = AsDouble();
      double b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    default: {
      if (num_ != other.num_) return num_ < other.num_ ? -1 : 1;
      return 0;
    }
  }
}

size_t Value::Hash() const {
  // Compare matches an int and a double by value, so both hash by one
  // rule: a whole number below 2^53 in magnitude (exact either way) by its
  // integer, anything else by its double. An int of 2^53 or more compares
  // through its rounded double, so it hashes through it too.
  constexpr int64_t kExact = int64_t{1} << 53;
  auto hash_number = [](int64_t n) {
    return std::hash<int64_t>()(n) ^
           (static_cast<size_t>(Family(DataType::kInt)) << 1);
  };
  switch (type_) {
    case DataType::kNull:
      return 0x9e3779b9;
    case DataType::kString:
      return std::hash<std::string>()(str_);
    case DataType::kInt:
      return num_ > -kExact && num_ < kExact
                 ? hash_number(num_)
                 : std::hash<double>()(static_cast<double>(num_));
    case DataType::kDouble:
      return std::fabs(real_) < static_cast<double>(kExact) &&
                     std::trunc(real_) == real_
                 ? hash_number(static_cast<int64_t>(real_))
                 : std::hash<double>()(real_);
    default:
      // Fold the family so that Time(5) and Int(5) do not collide silently
      // in heterogeneous hash tables.
      return std::hash<int64_t>()(num_) ^
             (static_cast<size_t>(Family(type_)) << 1);
  }
}

std::string Value::ToString() const {
  char buf[64];
  switch (type_) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return num_ ? "true" : "false";
    case DataType::kInt:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(num_));
      return buf;
    case DataType::kDouble:
      std::snprintf(buf, sizeof(buf), "%g", real_);
      return buf;
    case DataType::kString:
      return str_;
    case DataType::kTime: {
      int64_t s = num_;
      std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d",
                    static_cast<int>(s / 3600), static_cast<int>((s / 60) % 60),
                    static_cast<int>(s % 60));
      return buf;
    }
    case DataType::kDate: {
      int y;
      unsigned m, d;
      CivilFromDays(num_, &y, &m, &d);
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
      return buf;
    }
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  switch (type_) {
    case DataType::kString:
    case DataType::kTime:
    case DataType::kDate: {
      std::string body = ToString();
      std::string out = "'";
      for (char c : body) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
    default:
      return ToString();
  }
}

}  // namespace sieve
