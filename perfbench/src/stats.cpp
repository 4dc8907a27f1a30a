#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

void check(bool ok, const std::string& what) {
  if (!ok) {
    throw CheckFailure(what);
  }
}

double median(std::vector<double> values) {
  check(!values.empty(), "median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double lowestQuarter(std::vector<double> rounds) {
  check(!rounds.empty(), "lowest quarter of zero rounds");
  std::sort(rounds.begin(), rounds.end());
  rounds.resize((rounds.size() + 3) / 4);
  return median(std::move(rounds));
}

std::string roundsNote(const std::string& name,
                       const std::vector<double>& rounds) {
  std::string out = name + ":";
  char buf[32];
  for (const double v : rounds) {
    std::snprintf(buf, sizeof buf, " %.6g", v);
    out += buf;
  }
  if (rounds.size() >= 2) {
    const std::array<double, 3> q = quartiles(rounds);
    std::snprintf(buf, sizeof buf, " | quartiles %.6g", q[0]);
    out += buf;
    for (std::size_t i = 1; i < q.size(); ++i) {
      std::snprintf(buf, sizeof buf, " %.6g", q[i]);
      out += buf;
    }
  }
  return out;
}

std::array<double, 3> quartiles(std::vector<double> values) {
  check(values.size() >= 2, "quartiles need at least two values");
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long long>(values.size());
  const long long m = ld + 1;
  std::array<double, 3> out{};
  for (long long i = 1; i < 4; ++i) {
    long long j = i * m / 4;
    j = std::clamp(j, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] *
             static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

double percentile(std::vector<double> samples, double p) {
  check(p > 0.0 && p < 1.0, "percentile rank outside (0, 1)");
  const double n = static_cast<double>(samples.size());
  // Small tolerance: 1000 samples support p99 exactly.
  check(n * (1.0 - p) >= 10.0 - 1e-9,
        "percentile rule: fewer than 10 samples beyond p" +
            std::to_string(p) + " (n=" + std::to_string(samples.size()) +
            ")");
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  const double value = samples[std::max<std::size_t>(rank, 1) - 1];
  check(std::isfinite(value),
        "percentile p" + std::to_string(p) + " falls on lost windows");
  return value;
}

double latenessP99Us(const std::vector<std::int64_t>& dueNs,
                     const std::vector<std::int64_t>& sentNs) {
  check(dueNs.size() == sentNs.size(), "lateness: schedule size mismatch");
  std::vector<double> lagUs;
  lagUs.reserve(dueNs.size());
  for (std::size_t i = 0; i < dueNs.size(); ++i) {
    lagUs.push_back(
        static_cast<double>(std::max<std::int64_t>(sentNs[i] - dueNs[i], 0)) /
        1000.0);
  }
  return percentile(std::move(lagUs), 0.99);
}

namespace {

bool isAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool validMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !isAlnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return isAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool validUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return isAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

std::string sanitizeName(std::string_view name) {
  std::string out;
  for (const char c : name) {
    if (isAlnum(c)) {
      out.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                         : c);
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') {
    out.pop_back();
  }
  return out;
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  check(validMetricName(name), "invalid metric name '" + name + "'");
  check(validUnit(unit), "invalid unit '" + unit + "' of " + name);
  check(std::isfinite(value), "non-finite value of " + name);
  check(std::none_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; }),
        "duplicate metric " + name);
  entries_.push_back({name, value, unit});
}

std::string MetricSet::toJson() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof buf, "%.17g", e.value);
    out += (i > 0 ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

void selfTest() {
  const auto near = [](double a, double b) {
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
  };
  // Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
  // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0];
  // statistics.quantiles([1.5, 9], n=4) == [-0.375, 5.25, 10.875].
  {
    std::vector<double> v;
    for (int i = 10; i >= 1; --i) {
      v.push_back(i);
    }
    const auto q = quartiles(v);
    check(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
          "self-test: quartiles of 1..10");
    const auto q3 = quartiles({3.0, 1.0, 2.0});
    check(near(q3[0], 1.0) && near(q3[1], 2.0) && near(q3[2], 3.0),
          "self-test: quartiles of three values");
    const auto q2 = quartiles({1.5, 9.0});
    check(near(q2[0], -0.375) && near(q2[1], 5.25) && near(q2[2], 10.875),
          "self-test: quartiles of two values");
  }
  check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5) && near(median({7.0}), 7.0),
        "self-test: median");
  // Lowest quarter: of 8 rounds the lowest 2 (median = their mean); of 3
  // rounds the single lowest.
  check(near(lowestQuarter({5, 1, 8, 2, 7, 3, 6, 4}), 1.5) &&
            near(lowestQuarter({2, 9, 4}), 2.0),
        "self-test: lowest-quarter estimate");
  // Percentile rule: 1000 samples support p99 (10 beyond), 999 do not.
  {
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i) {
      v.push_back(i);
    }
    check(near(percentile(v, 0.99), 990.0) && near(percentile(v, 0.5), 500.0),
          "self-test: nearest-rank percentile");
    v.pop_back();
    bool refused = false;
    try {
      (void)percentile(v, 0.99);
    } catch (const CheckFailure&) {
      refused = true;
    }
    check(refused, "self-test: percentile rule accepted 9 samples beyond");
    // Lost windows are +inf: beyond every percentile, never reported.
    std::vector<double> lost(1000, 1.0);
    for (int i = 0; i < 5; ++i) {
      lost[static_cast<std::size_t>(i)] =
          std::numeric_limits<double>::infinity();
    }
    check(near(percentile(lost, 0.99), 1.0), "self-test: p99 with 0.5% lost");
    for (int i = 0; i < 20; ++i) {
      lost[static_cast<std::size_t>(i)] =
          std::numeric_limits<double>::infinity();
    }
    refused = false;
    try {
      (void)percentile(lost, 0.99);
    } catch (const CheckFailure&) {
      refused = true;
    }
    check(refused, "self-test: p99 reported on lost windows");
  }
  // Lateness: sends 0..999 us late by index, 100 early (count on time).
  {
    std::vector<std::int64_t> due;
    std::vector<std::int64_t> sent;
    for (std::int64_t i = 0; i < 1100; ++i) {
      due.push_back(i * 1'000'000);
      sent.push_back(i < 1000 ? i * 1'000'000 + i * 1000
                              : i * 1'000'000 - 5000);
    }
    // 1100 samples: 101 zeros, then 1..999; rank ceil(0.99*1100) = 1089
    // -> the 1089th smallest is 1089 - 101 = 988 us.
    check(near(latenessP99Us(due, sent), 988.0), "self-test: lateness p99");
  }
  check(validMetricName("node.session.offer_us") &&
            validMetricName("0p") && !validMetricName("_x") &&
            !validMetricName("") && !validMetricName("a b") &&
            !validMetricName(std::string(65, 'a')) &&
            validMetricName(std::string(64, 'a')),
        "self-test: metric name validation");
  check(validUnit("1/s") && validUnit("%") && validUnit("us") &&
            !validUnit("") && !validUnit("per window") &&
            !validUnit(std::string(17, 'u')),
        "self-test: unit validation");
  check(sanitizeName("EBBI+KF") == "ebbi_kf" &&
            sanitizeName("EBBINNOT-Hybrid") == "ebbinnot_hybrid" &&
            sanitizeName("EBMS") == "ebms" && sanitizeName("a++") == "a",
        "self-test: variant name sanitising");
  {
    MetricSet set;
    set.add("x.y", 1.5, "ms");
    bool refused = false;
    try {
      set.add("x.y", 2.0, "ms");
    } catch (const CheckFailure&) {
      refused = true;
    }
    check(refused && set.toJson() ==
                         "{\"x.y\": {\"value\": 1.5, \"unit\": \"ms\"}}",
          "self-test: metric set");
  }
}

}  // namespace perfbench
