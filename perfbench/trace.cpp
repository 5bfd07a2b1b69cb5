#include "trace.hpp"

#include <cstdio>

namespace perfbench {

Trace* Trace::active = nullptr;

std::map<std::string, Trace::Aggregate> Trace::aggregate() const {
  std::vector<std::uint64_t> child_ns(records_.size(), 0);
  for (const Record& record : records_) {
    if (record.parent >= 0) {
      child_ns[static_cast<std::size_t>(record.parent)] += record.end_ns - record.start_ns;
    }
  }
  std::map<std::string, Aggregate> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    const std::uint64_t duration = record.end_ns - record.start_ns;
    Aggregate& entry = out[record.name];
    entry.total_ns += duration;
    entry.self_ns += duration > child_ns[i] ? duration - child_ns[i] : 0;
    ++entry.count;
  }
  return out;
}

bool Trace::write_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::uint64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", file);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,\"unit\":%lld}}\n",
                 i == 0 ? "" : ",", record.name,
                 static_cast<double>(record.start_ns - origin) / 1000.0,
                 static_cast<double>(record.end_ns - record.start_ns) / 1000.0, i,
                 static_cast<long long>(record.parent), static_cast<long long>(record.unit));
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
