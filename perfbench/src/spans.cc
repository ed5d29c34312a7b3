#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanRecorder::Open(const char* name, uint32_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  const int32_t index = Add(span);
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(int32_t index) {
  WEBTAB_CHECK(!open_.empty() && open_.back() == index)
      << "span closed out of order";
  open_.pop_back();
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

int32_t SpanRecorder::Add(const Span& span) {
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<int64_t> SpanRecorder::SelfTimesNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0, run_end = 0;
    bool in_run = false;
    for (auto [start, end] : kids) {
      start = std::max(start, s.start_ns);
      end = std::min(end, s.end_ns);
      if (end <= start) continue;
      if (in_run && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::vector<double>> SpanRecorder::SelfMillisByName()
    const {
  const std::vector<int64_t> self = SelfTimesNs();
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(static_cast<double>(self[i]) * 1e-6);
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanRecorder::MillisByName()
    const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) *
                          1e-6);
  }
  return out;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,parent,request,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%u,%s,%lld,%lld\n", i, s.parent, s.request,
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
