#include "src/base/metrics_registry.h"

#include <cctype>

namespace vscale {

int64_t& MetricsRegistry::Counter(const std::string& name) { return counters_[name]; }

bool MetricsRegistry::Has(const std::string& name) const {
  return counters_.count(name) > 0;
}

int64_t MetricsRegistry::Value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::Collect() const {
  return {counters_.begin(), counters_.end()};
}

void MetricsRegistry::WriteCsv(std::ostream& os) const {
  os << "metric,value\n";
  for (const auto& [name, value] : counters_) {
    os << name << ',' << value << '\n';
  }
}

void MetricsRegistry::Clear() { counters_.clear(); }

MetricsRegistry& MetricsRegistry::Global() {
  // vslint: allow(observer-global, the perfbench-only sink declared in the header)
  static MetricsRegistry registry;
  return registry;
}

std::string SanitizeMetricName(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    const unsigned char u = static_cast<unsigned char>(ch);
    if (std::isalnum(u)) {
      out.push_back(static_cast<char>(std::tolower(u)));
    } else if (ch == '.' || ch == '_') {
      out.push_back(ch);
    } else {
      out.push_back('_');
    }
  }
  return out;
}

}  // namespace vscale
