// The benchmark's own trace: spans recorded around the public calls it
// makes into each layer, kept in memory during the run and written out
// when it ends. No span is recorded inside the program under test.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval. `name` points at a string literal.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // index of the enclosing span, -1 for a root
  uint32_t request = 0;  // shared by every span of one request
};

/// Append-only span log for one thread. Spans opened while another is
/// open become its children.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Starts a span now, as a child of the innermost open span.
  int32_t Open(const char* name, uint32_t request);
  /// Ends span `index` now; it must be the innermost open span.
  void Close(int32_t index);
  /// Appends a finished span with explicit times and parent.
  int32_t Add(const Span& span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of its interval that its
  /// direct children cover (children clipped to the parent, overlaps
  /// between siblings counted once).
  std::vector<int64_t> SelfTimesNs() const;

  /// Self times in milliseconds, grouped by span name, in span order.
  std::map<std::string, std::vector<double>> SelfMillisByName() const;
  /// Durations in milliseconds, grouped by span name, in span order.
  std::map<std::string, std::vector<double>> MillisByName() const;

  /// Writes one CSV row per span (index, parent, request, name, start,
  /// end; times in ns). Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null recorder records nothing and reads no clock, which
/// is how untraced phases run the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint32_t request)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
