// Fixed-memory latency histogram with ~3% resolution.
//
// Log-linear buckets: 32 linear sub-buckets per power of two of nanoseconds
// (exact below 32 ns), up to about one second. Memory does not grow with the
// number of samples, so the benchmark's own bookkeeping never shows up in
// the peak RSS it reports, and histograms of different threads merge
// exactly. Percentiles interpolate linearly inside the bucket that holds the
// requested rank.
#ifndef ASR_PERFBENCH_LATENCY_HISTOGRAM_H_
#define ASR_PERFBENCH_LATENCY_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>

namespace asr::perfbench {

class LatencyHistogram {
 public:
  void Add(std::chrono::nanoseconds d) {
    const uint64_t ns = static_cast<uint64_t>(std::max<int64_t>(0, d.count()));
    ++counts_[Index(std::min(ns, kMaxNs))];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  // The q-quantile (0 < q <= 1) in microseconds; 0 when empty.
  double PercentileUs(double q) const {
    if (count_ == 0) return 0;
    const double rank =
        std::max(1.0, std::ceil(q * static_cast<double>(count_)));
    uint64_t below = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (static_cast<double>(below + counts_[b]) >= rank) {
        const double within =
            (rank - static_cast<double>(below) - 0.5) / counts_[b];
        return (Lower(b) + within * Width(b)) / 1000.0;
      }
      below += counts_[b];
    }
    return Lower(kBuckets - 1) / 1000.0;
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kMaxBits = 30;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr uint64_t kMaxNs = (uint64_t{1} << kMaxBits) - 1;
  static constexpr size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  // Octave e = 0 holds [0, 32) exactly; octave e >= 1 holds
  // [32 << (e-1), 64 << (e-1)) in 32 buckets of width 2^(e-1).
  static size_t Index(uint64_t ns) {
    if (ns < kSub) return static_cast<size_t>(ns);
    const int e = std::bit_width(ns) - kSubBits;
    return static_cast<size_t>(e) * kSub + ((ns >> (e - 1)) - kSub);
  }
  static double Lower(size_t b) {
    const size_t e = b / kSub;
    if (e == 0) return static_cast<double>(b);
    return static_cast<double>((kSub + b % kSub) << (e - 1));
  }
  static double Width(size_t b) {
    const size_t e = b / kSub;
    return e == 0 ? 1.0 : static_cast<double>(uint64_t{1} << (e - 1));
  }

  std::array<uint32_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

}  // namespace asr::perfbench

#endif  // ASR_PERFBENCH_LATENCY_HISTOGRAM_H_
