// Request spans for the traced run: (name, start, end, parent, request id)
// kept in memory by each load thread and written out when the run ends.
// The benchmark records them around its own calls into each layer's
// public functions; the program under test carries no tracing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ecbench {

struct Span {
  std::uint64_t request = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 for a request's root span
  const char* name = "";     // a string literal
  std::int64_t start = 0;    // clock units of the owning log
  std::int64_t end = 0;
};

/// One thread's spans. Not synchronized: each load thread owns one. Ids
/// carry the log's index in their high bits, so logs merge without
/// clashes.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t index) : next_(std::uint64_t{index} << 40) {}

  std::uint64_t NewId() { return ++next_; }
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_;
  std::vector<Span> spans_;
};

/// Nanoseconds on the steady clock: the wall-time span clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times its own lifetime as one wall-clock span of `request`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::uint64_t request, std::uint64_t parent,
             const char* name)
      : log_(log),
        span_{request, log.NewId(), parent, name, NowNs(), 0} {}
  ~ScopedSpan() {
    span_.end = NowNs();
    log_.Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

/// Per span name: summed self time (duration minus the time its child
/// spans cover) and number of spans, in the logs' clock units.
struct SelfTime {
  double total = 0;
  std::uint64_t count = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// Writes spans as CSV (request,id,parent,name,start,end); false on an
/// I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const char* clock_unit);

}  // namespace ecbench
