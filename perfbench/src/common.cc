#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = std::clamp(q, 0.0, 1.0) * (values_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  return values_[lo] + (values_[hi] - values_[lo]) * (pos - lo);
}

double Samples::TailPercent(size_t beyond) const {
  if (values_.size() <= beyond) return 0;
  return 100.0 * (1.0 - static_cast<double>(beyond) / values_.size());
}

void SpanLog::Append(std::vector<Span>* spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans->begin(), spans->end());
  spans->clear();
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"spans\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 MicrosBetween(origin, s.start_ns),
                 MicrosBetween(origin, s.end_ns));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
