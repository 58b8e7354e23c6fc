// Small statistics and output helpers shared by the end-to-end and traced
// passes.

#ifndef CAMPAIGNBENCH_STATS_UTIL_H_
#define CAMPAIGNBENCH_STATS_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace campaignbench {

// Quantile with linear interpolation between closest ranks.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// One named metric in the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  // `"metrics": {...}` body, values with full precision.
  std::string Json() const {
    std::string out = "{";
    char buf[512];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               i == 0 ? "" : ", ", metrics_[i].name.c_str(), v, metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// Named pass/fail checks; any failure marks the run incorrect. A check name
// is "<subject>.<kind>": failures print at once, and Summary() prints one
// line per kind with how often it was evaluated and how often it failed.
class CheckList {
 public:
  void Add(const std::string& name, bool pass, const std::string& detail) {
    if (!pass) {
      printf("check %s FAIL  %s\n", name.c_str(), detail.c_str());
    }
    const std::string kind = name.substr(name.rfind('.') + 1);
    auto it = std::find_if(kinds_.begin(), kinds_.end(),
                           [&](const Kind& k) { return k.name == kind; });
    if (it == kinds_.end()) {
      kinds_.push_back(Kind{kind, 0, 0});
      it = kinds_.end() - 1;
    }
    ++it->evaluated;
    it->failed += pass ? 0 : 1;
    all_pass_ = all_pass_ && pass;
  }
  bool all_pass() const { return all_pass_; }

  void Summary() const {
    for (const Kind& kind : kinds_) {
      printf("check %-26s evaluated %4d  failed %d  %s\n", kind.name.c_str(), kind.evaluated,
             kind.failed, kind.failed == 0 ? "pass" : "FAIL");
    }
  }

 private:
  struct Kind {
    std::string name;
    int evaluated;
    int failed;
  };
  std::vector<Kind> kinds_;
  bool all_pass_ = true;
};

}  // namespace campaignbench

#endif  // CAMPAIGNBENCH_STATS_UTIL_H_
