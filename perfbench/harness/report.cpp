#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Result::set(const std::string& name, double value, const char* unit) {
  metrics_[name] = Metric{value, unit};
}

double Result::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) throw std::logic_error("metric not set: " + name);
  return it->second.value;
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) violations_.push_back(what);
}

void Result::note(const std::string& line) { notes_.push_back(line); }

void Result::print(const RunRecord& r) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const std::string& v : violations_) std::printf("CHECK FAILED: %s\n", v.c_str());
  std::string json = "{\"record\":{";
  json += "\"workload\":" + quoted(r.workload);
  json += ",\"seed\":" + std::to_string(r.seed);
  json += ",\"seconds\":" + number(r.seconds);
  json += ",\"trace\":" + std::string(r.trace ? "true" : "false");
  json += ",\"client_threads\":" + std::to_string(r.client_threads);
  json += ",\"library_lanes\":" + std::to_string(r.library_lanes);
  json += ",\"nproc\":" + std::to_string(r.nproc);
  json += ",\"cpu_model\":" + quoted(r.cpu_model);
  json += ",\"build_type\":" + quoted(r.build_type);
  json += ",\"flush_policy\":" + quoted(r.flush_policy);
  json += ",\"transport\":" + quoted(r.transport);
  json += "},\"correct\":" + std::string(correct() ? "true" : "false");
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"violations\":[";
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    if (i > 0) json += ',';
    json += quoted(violations_[i]);
  }
  json += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) json += ',';
    json += quoted(name);
    json += ":{\"value\":" + number(m.value);
    json += ",\"unit\":" + quoted(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

}  // namespace perfbench
