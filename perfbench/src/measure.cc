#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / values_.size();
}

void Outcome::Detail(const std::string& key, double value) {
  detail[key] = Num(value);
}

void Outcome::Detail(const std::string& key, const std::string& text) {
  detail[key] = Quote(text);
}

void Outcome::Detail(const std::string& key,
                     const std::vector<double>& values) {
  std::string text = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text += ", ";
    text += Num(values[i]);
  }
  detail[key] = text + "]";
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  // Every round repeats the same checks: report each problem once.
  if (problems.size() < 20 &&
      std::find(problems.begin(), problems.end(), why) == problems.end()) {
    problems.push_back(why);
  }
}

int SpanLog::Begin(uint64_t op, int parent, const char* name,
                   const char* op_class) {
  Span span;
  span.op = op;
  span.parent = parent;
  span.name = name;
  span.op_class = op_class;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Append(const SpanLog& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"name\":" << Quote(s.name) << ",\"class\":" << Quote(s.op_class)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

uint64_t DirBytes(tdb::Env* env, const std::string& dir) {
  uint64_t total = 0;
  auto names = env->ListDir(dir);
  if (!names.ok()) return 0;
  for (const std::string& name : *names) {
    const std::string path = dir + "/" + name;
    if (!env->FileExists(path)) continue;
    auto file = env->OpenOrCreate(path);
    if (!file.ok()) continue;
    auto size = (*file)->Size();
    if (size.ok()) total += *size;
  }
  return total;
}

uint64_t CounterDelta(const tdb::obs::MetricsSnapshot& before,
                      const tdb::obs::MetricsSnapshot& after,
                      const std::string& prefix, const std::string& suffix) {
  return after.SumCounters(prefix, suffix) - before.SumCounters(prefix, suffix);
}

PageReadCost ProbePageReads(tdb::Env* env, const std::string& path,
                            const tdb::StorageOptions& storage, Outcome* out) {
  PageReadCost cost;
  tdb::IoCounters counters;
  auto opened = tdb::Pager::Open(env, path, &counters, /*frames=*/1,
                                 /*journal=*/nullptr, storage);
  if (!opened.ok()) {
    out->Fail("page probe open: " + opened.status().ToString());
    return cost;
  }
  std::unique_ptr<tdb::Pager> pager = std::move(opened).value();
  for (int i = 0; i < 2; ++i) {
    if (!pager->AllocatePage(tdb::IoCategory::kData).ok()) {
      out->Fail("page probe allocate failed");
      return cost;
    }
  }
  constexpr int kBatches = 15;
  constexpr int kHitsPerBatch = 20000;
  constexpr int kMissesPerBatch = 4000;
  Samples hit, miss;
  for (int b = 0; b < kBatches; ++b) {
    int64_t t0 = NowNs();
    for (int i = 0; i < kHitsPerBatch; ++i) {
      if (!pager->ReadPage(0, tdb::IoCategory::kData).ok()) {
        out->Fail("page probe hit read failed");
        return cost;
      }
    }
    int64_t t1 = NowNs();
    for (int i = 0; i < kMissesPerBatch; ++i) {
      if (!pager->ReadPage(i & 1, tdb::IoCategory::kData).ok()) {
        out->Fail("page probe miss read failed");
        return cost;
      }
    }
    int64_t t2 = NowNs();
    hit.Add(static_cast<double>(t1 - t0) / kHitsPerBatch);
    miss.Add(static_cast<double>(t2 - t1) / kMissesPerBatch);
  }
  cost.hit_ns = hit.Median();
  cost.miss_ns = miss.Median();
  pager.reset();
  (void)env->DeleteFile(path);
  return cost;
}

void StampDatabase(tdb::Database* db, Outcome* out) {
  out->Detail("options.page_size", db->storage().page_size);
  out->Detail("options.page_checksum", db->storage().checksum ? 1.0 : 0.0);
  out->Detail("options.buffer_pool", db->buffer_pool() != nullptr ? 1.0 : 0.0);
  out->Detail("options.plan_cache", db->plan_cache_enabled() ? 1.0 : 0.0);
  out->Detail("options.metrics", db->metrics() != nullptr ? 1.0 : 0.0);
  out->Detail("options.vacuum_partition", db->vacuum_partition());
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

}  // namespace perfbench
