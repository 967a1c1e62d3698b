#include "spans.h"

#include <cstdio>
#include <unordered_map>

namespace ecbench {

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  // A request's spans come from one thread and its child calls run one
  // after another, so the time children cover is the sum of their
  // durations.
  std::unordered_map<std::uint64_t, double> child_time;
  child_time.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0) child_time[s.parent] += static_cast<double>(s.end - s.start);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    SelfTime& t = out[s.name];
    const auto it = child_time.find(s.id);
    t.total += static_cast<double>(s.end - s.start) -
               (it == child_time.end() ? 0.0 : it->second);
    ++t.count;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const char* clock_unit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "request,id,parent,name,start_%s,end_%s\n", clock_unit,
               clock_unit);
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start), static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace ecbench
