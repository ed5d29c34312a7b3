#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace webtab {
namespace obs {

TimeSeriesStore::TimeSeriesStore(const TimeSeriesOptions& options)
    : options_(options) {
  if (options_.tick_seconds <= 0.0) options_.tick_seconds = 1.0;
  if (options_.capacity < 1) options_.capacity = 1;
  if (options_.max_series < 1) options_.max_series = 1;
}

void TimeSeriesStore::Tick(const std::vector<MetricDump>& dump) {
  std::lock_guard<std::mutex> lock(mu_);
  const int cap = options_.capacity;
  const int64_t tick = ticks_;
  const int slot = static_cast<int>(tick % cap);
  for (const MetricDump& m : dump) {
    auto it = series_.find(m.name);
    if (it == series_.end()) {
      if (series_.size() >= static_cast<size_t>(options_.max_series)) {
        ++dropped_updates_;
        continue;
      }
      Series s;
      s.kind = m.kind;
      s.first_tick = tick;
      if (m.kind == MetricDump::Kind::kHistogram) {
        s.hbuckets.assign(static_cast<size_t>(cap) * Histogram::kBuckets, 0);
        s.hsum.assign(cap, 0.0);
        s.prev_buckets.assign(Histogram::kBuckets, 0);
      } else {
        s.slots.assign(cap, 0);
      }
      it = series_.emplace(m.name, std::move(s)).first;
    }
    Series& s = it->second;
    switch (s.kind) {
      case MetricDump::Kind::kCounter: {
        // Delta vs the previous tick; a drop in the raw value means the
        // counter restarted, so the new raw value is the whole delta.
        int64_t delta = m.value;
        if (s.has_prev && m.value >= s.prev_raw) delta = m.value - s.prev_raw;
        s.slots[slot] = delta;
        s.prev_raw = m.value;
        break;
      }
      case MetricDump::Kind::kGauge: {
        s.slots[slot] = m.value;
        s.prev_raw = m.value;
        break;
      }
      case MetricDump::Kind::kHistogram: {
        uint32_t* out = s.hbuckets.data() +
                        static_cast<size_t>(slot) * Histogram::kBuckets;
        const size_t nb = std::min<size_t>(Histogram::kBuckets,
                                           m.histogram.buckets.size());
        double tick_sum = m.histogram.sum;
        if (s.has_prev && m.histogram.sum >= s.prev_sum) {
          tick_sum = m.histogram.sum - s.prev_sum;
        }
        for (size_t b = 0; b < Histogram::kBuckets; ++b) {
          const uint64_t cur = b < nb ? m.histogram.buckets[b] : 0;
          uint64_t delta = cur;
          if (s.has_prev && cur >= s.prev_buckets[b]) {
            delta = cur - s.prev_buckets[b];
          }
          out[b] = static_cast<uint32_t>(
              std::min<uint64_t>(delta, std::numeric_limits<uint32_t>::max()));
          s.prev_buckets[b] = cur;
        }
        s.hsum[slot] = tick_sum;
        s.prev_sum = m.histogram.sum;
        break;
      }
    }
    s.has_prev = true;
  }
  ++ticks_;
}

int TimeSeriesStore::WindowSlots(double window_s) const {
  if (ticks_ == 0) return 0;
  const int64_t retained = std::min<int64_t>(ticks_, options_.capacity);
  // Clamp in double before converting: a huge window's tick count does
  // not fit an int.
  const double want = std::round(window_s / options_.tick_seconds);
  if (!(want > 1.0)) return 1;  // also NaN
  if (want >= static_cast<double>(retained)) {
    return static_cast<int>(retained);
  }
  return static_cast<int>(want);
}

void TimeSeriesStore::RollupLocked(const std::string& name, const Series& s,
                                   int slots, SeriesRollup* out) const {
  out->name = name;
  out->kind = s.kind;
  const int cap = options_.capacity;
  // Absolute tick range [begin, ticks_), clipped to the series' life.
  int64_t begin = ticks_ - slots;
  if (begin < s.first_tick) begin = s.first_tick;
  const int n = static_cast<int>(ticks_ - begin);
  out->samples = n;
  out->window_s = n * options_.tick_seconds;
  if (n <= 0) return;

  if (s.kind == MetricDump::Kind::kHistogram) {
    out->hist.buckets.assign(Histogram::kBuckets, 0);
    double sum = 0.0;
    uint64_t count = 0;
    for (int64_t t = begin; t < ticks_; ++t) {
      const size_t slot = static_cast<size_t>(t % cap);
      const uint32_t* row = s.hbuckets.data() + slot * Histogram::kBuckets;
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        out->hist.buckets[b] += row[b];
        count += row[b];
      }
      sum += s.hsum[slot];
    }
    out->hist.count = count;
    out->hist.sum = sum;
    out->avg = count > 0 ? sum / static_cast<double>(count) : 0.0;
    return;
  }

  int64_t total = 0;
  int64_t mn = std::numeric_limits<int64_t>::max();
  int64_t mx = std::numeric_limits<int64_t>::min();
  for (int64_t t = begin; t < ticks_; ++t) {
    const int64_t v = s.slots[static_cast<size_t>(t % cap)];
    total += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  out->min = mn;
  out->max = mx;
  out->avg = static_cast<double>(total) / n;
  out->last = s.prev_raw;
  if (s.kind == MetricDump::Kind::kCounter) {
    out->delta = total;
    out->rate_per_s = out->window_s > 0
                          ? static_cast<double>(total) / out->window_s
                          : 0.0;
  }
}

std::vector<SeriesRollup> TimeSeriesStore::Query(double window_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SeriesRollup> out;
  const int slots = WindowSlots(window_s);
  if (slots == 0) return out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    out.emplace_back();
    RollupLocked(name, s, slots, &out.back());
  }
  return out;
}

bool TimeSeriesStore::QueryOne(std::string_view name, double window_s,
                               SeriesRollup* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) return false;
  const int slots = WindowSlots(window_s);
  if (slots == 0) return false;
  *out = SeriesRollup();
  RollupLocked(it->first, it->second, slots, out);
  return true;
}

int64_t TimeSeriesStore::ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

size_t TimeSeriesStore::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

int64_t TimeSeriesStore::dropped_updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_updates_;
}

size_t TimeSeriesStore::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& [name, s] : series_) {
    bytes += name.size() + sizeof(Series);
    bytes += s.slots.capacity() * sizeof(int64_t);
    bytes += s.hbuckets.capacity() * sizeof(uint32_t);
    bytes += s.hsum.capacity() * sizeof(double);
    bytes += s.prev_buckets.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace obs
}  // namespace webtab
