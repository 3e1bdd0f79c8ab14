#include "harness/common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "obs/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

std::string Outcome::to_json() const {
  brics::JsonWriter w;
  w.begin_object();
  w.field("correct", correct);
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.key("metrics").begin_object();
  for (const auto& [name, v] : metrics) w.field(name, v);
  w.end_object();
  w.key("problems").begin_array();
  for (const std::string& p : problems) w.value(p);
  w.end_array();
  w.end_object();
  return w.str();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

namespace {

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t llc_bytes() {
  for (int idx = 4; idx >= 0; --idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream size_in(dir + "/size");
    std::string size;
    if (!(size_in >> size) || size.empty()) continue;
    std::uint64_t mult = 1;
    if (size.back() == 'K') mult = 1024;
    if (size.back() == 'M') mult = 1024 * 1024;
    return std::strtoull(size.c_str(), nullptr, 10) * mult;
  }
  const long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

}  // namespace

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

double peak_rss_mb_of(pid_t pid) {
  return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return brics::mix64(seed * 0x9e3779b97f4a7c15ull + salt);
}

std::vector<brics::NodeId> pick_probes(brics::NodeId n, std::size_t k,
                                       std::uint64_t seed) {
  brics::Rng rng(seed);
  return brics::sample_without_replacement(
      n, static_cast<brics::NodeId>(std::min<std::size_t>(k, n)), rng);
}

SpanLog::SpanLog(Clock::time_point origin) : origin_(origin) {}

int SpanLog::begin(std::string name, int parent) {
  spans_.push_back(Span{std::move(name), parent, Clock::now(), {}});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

double SpanLog::seconds(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return seconds_between(s.start, s.end);
}

std::string SpanLog::to_json_array() const {
  brics::JsonWriter w;
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .field("id", static_cast<std::uint64_t>(i))
        .field("name", s.name)
        .field("parent", static_cast<std::int64_t>(s.parent))
        .field("start_s", seconds_between(origin_, s.start))
        .field("end_s", seconds_between(origin_, s.end))
        .end_object();
  }
  w.end_array();
  return w.str();
}

std::string env_json(const std::string& artifact_json) {
  brics::JsonValue doc;
  brics::JsonWriter w;
  w.begin_object();
  if (brics::json_parse(artifact_json, doc)) {
    if (const brics::JsonValue* env = doc.get("env")) {
      for (const auto& [k, v] : env->obj) {
        if (v.is_string()) w.field(k, v.str_v);
        if (v.is_number()) w.field(k, v.num_v);
      }
    }
  }
  w.field("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  w.field("llc_bytes", llc_bytes());
  w.end_object();
  return w.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
