#include "trace.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

std::map<std::string, double> Tracer::totals() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += (s.endNs - s.startNs) * 1e-9;
  return out;
}

std::map<std::string, double> Tracer::layerSelf() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].endNs - spans_[i].startNs;
  // Children of one parent run one after another on the tracing thread, so
  // their durations never overlap and subtract directly.
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const char* dot = std::strchr(spans_[i].name, '.');
    const std::string layer =
        dot ? std::string(spans_[i].name, dot) : std::string(spans_[i].name);
    out[layer] += self[i] * 1e-9;
  }
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"parent\":%d}}\n",
                 i ? "," : "", s.name, s.startNs * 1e-3,
                 (s.endNs - s.startNs) * 1e-3,
                 static_cast<unsigned long long>(s.op), s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
