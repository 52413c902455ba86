// paper_sweep: Ahn & Snodgrass's Fig. 6 methodology, embedded.
//
// Each round builds the paper's temporal database at 100% loading (1024
// tuples of 108 bytes; bench_h hashed and bench_i ISAM on id) through
// BenchmarkDb, then, at every update count from 0 to 15, runs Q01..Q12 and
// one UniformUpdateRound (two whole-relation replaces).  Every query starts
// from cold buffers: DropAllBuffers runs before the timer starts, and a
// write's timed span includes flushing its dirty pages.  Durability is off
// and the engine runs with BenchmarkDb's paper-mode options.
//
// The data set is the paper's one database (BenchmarkDb's default seed),
// so every round does identical work and the golden page counts hold at
// any --seed; the seed permutes the order of the twelve queries within
// each update count.  A data seed would move Q11's cost by up to 7x (it
// depends on how many tuples start in the first four hours), drowning any
// change in the program under a change in the input.

#include <algorithm>
#include <cstdio>
#include <random>

#include "benchlib/workload.h"
#include "core/database.h"
#include "tquel/parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

using tdb::DbType;

struct GoldenRow {
  DbType type;
  int fillfactor;
  int uc;
  int qnum;
  uint64_t input_pages;
  uint64_t output_pages;
};

// clang-format off
const GoldenRow kGolden[] = {
#include "paper_metrics_golden.inc"
};
// clang-format on

constexpr int kMaxUpdateCount = 15;
constexpr int kQueries = 12;

// Q03, Q04 and Q11 read as of a past transaction time; every other query
// reads at the current one.
const char* QueryClass(int q) {
  return (q == 3 || q == 4 || q == 11) ? kReadAsOf : kReadCurrent;
}

// The statements BenchmarkDb::UniformUpdateRound issues; the traced run
// times their parse.
const char* const kWriteTexts[2] = {"replace h (seq = h.seq + 1)",
                                    "replace i (seq = i.seq + 1)"};

/// What one round measured.
struct Round {
  double setup_s = 0;
  double wall_s = 0;     // first query to last write, setup excluded
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t input_pages = 0;  // over every query of the sweep
  Samples read_ms, write_ms;
  uint64_t class_pages[3] = {0, 0, 0};  // page reads per op class
  uint64_t class_ops[3] = {0, 0, 0};
  uint64_t write_pages_written = 0;
  uint64_t parses = 0, plan_builds = 0, plancache_hits = 0;
  uint64_t journal_bytes = 0;
  uint64_t db_bytes = 0;
  uint64_t q15_input_pages[kQueries + 1] = {};
  double q15_query_us[kQueries + 1] = {};
};

std::string Label(int q, int uc) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "Q%02d at update count %d", q, uc);
  return buf;
}

/// Checks one query's counts and rows: the golden page counts at update
/// counts 0, 5 and 15, the probe queries' pinned tuples, and row counts
/// equal to the first round's.
void CheckQuery(const tdb::bench::BenchmarkDb& bench, int q, int uc,
                const tdb::IoCounters& io, const tdb::ResultSet& rows,
                std::vector<int64_t>* expected_rows, Outcome* out) {
  const std::string where = Label(q, uc) + ": ";
  for (const GoldenRow& g : kGolden) {
    if (g.type != DbType::kTemporal || g.fillfactor != 100 || g.uc != uc ||
        g.qnum != q) {
      continue;
    }
    if (io.TotalReads() != g.input_pages ||
        io.TotalWrites() != g.output_pages) {
      out->Fail(where + "pages " + std::to_string(io.TotalReads()) + "/" +
                std::to_string(io.TotalWrites()) + ", golden " +
                std::to_string(g.input_pages) + "/" +
                std::to_string(g.output_pages));
    }
  }
  auto ids_are = [&](int64_t id) {
    for (const tdb::Row& row : rows.rows) {
      if (row.empty() || row[0].AsInt() != id) return false;
    }
    return true;
  };
  const size_t n = rows.num_rows();
  bool pinned = true;
  switch (q) {
    case 1:
    case 2:
    case 12:  // every version of the probe tuple
      pinned = n == static_cast<size_t>(uc + 1) && ids_are(bench.probe_id());
      break;
    case 5:
    case 6:  // its current version, updated uc times
      pinned = n == 1 && ids_are(bench.probe_id()) &&
               rows.rows[0][1].AsInt() == uc;
      break;
    case 7:
      pinned = n == 1 && ids_are(bench.amount_q7_id());
      break;
    case 8:
      pinned = n == 1 && ids_are(bench.amount_q8_id());
      break;
    default:
      break;
  }
  if (!pinned) out->Fail(where + "probe tuple missing or wrong");
  int64_t& expect = (*expected_rows)[uc * (kQueries + 1) + q];
  if (expect < 0) expect = static_cast<int64_t>(n);
  if (expect != static_cast<int64_t>(n)) {
    out->Fail(where + std::to_string(n) + " rows, first round had " +
              std::to_string(expect));
  }
}

/// Runs one full sweep on a fresh database.  Returns false when set-up
/// fails, which ends the run.
bool RunRound(const std::vector<std::vector<int>>& order, bool traced,
              uint64_t* next_op, SpanLog* spans, Round* r,
              std::vector<int64_t>* expected_rows, Outcome* out,
              PageReadCost* page_cost) {
  const int64_t setup0 = NowNs();
  auto created = tdb::bench::BenchmarkDb::Create(tdb::bench::WorkloadConfig{});
  r->setup_s = (NowNs() - setup0) / 1e9;
  if (!created.ok()) {
    out->Fail("BenchmarkDb::Create: " + created.status().ToString());
    return false;
  }
  std::unique_ptr<tdb::bench::BenchmarkDb> bench = std::move(created).value();
  tdb::Database* db = bench->db();
  std::vector<std::string> texts(kQueries + 1);
  for (int q = 1; q <= kQueries; ++q) texts[q] = bench->QueryText(q);

  const tdb::obs::MetricsSnapshot before = db->Snapshot();
  const int64_t round0 = NowNs();
  for (int uc = 0; uc <= kMaxUpdateCount; ++uc) {
    for (int q : order[uc]) {
      const std::string& text = texts[q];
      const char* cls = QueryClass(q);
      const uint64_t op = (*next_op)++;
      int op_span = -1;
      if (traced) {
        op_span = spans->Begin(op, -1, "op", cls);
        int s = spans->Begin(op, op_span, "tquel.parse", cls);
        auto parsed = tdb::Parser::ParseStatement(text);
        spans->End(s);
        s = spans->Begin(op, op_span, "exec.plan", cls);
        auto planned = db->Execute("explain " + text);
        spans->End(s);
        if (!parsed.ok() || !planned.ok()) {
          out->Fail(Label(q, uc) + ": parse or explain failed");
        }
      }
      const tdb::Status dropped = db->DropAllBuffers();
      db->io()->ResetAll();
      const int session = traced
                              ? spans->Begin(op, op_span, "core.session", cls)
                              : -1;
      const int64_t t0 = NowNs();
      auto result = db->Execute(text);
      const int64_t t1 = NowNs();
      if (traced) {
        spans->End(session);
        spans->End(op_span);
      }
      ++out->attempted;
      ++r->ops;
      ++r->reads;
      r->read_ms.Add((t1 - t0) / 1e6);  // failed or not: keeps positions
      if (!dropped.ok() || !result.ok()) {
        ++out->failed;
        out->Fail(Label(q, uc) + " failed: " +
                  (dropped.ok() ? result.status() : dropped).ToString());
        continue;
      }
      const tdb::IoCounters io = db->io()->Total();
      r->input_pages += io.TotalReads();
      r->class_pages[ClassIndex(cls)] += io.TotalReads();
      ++r->class_ops[ClassIndex(cls)];
      if (uc == kMaxUpdateCount) {
        r->q15_input_pages[q] = io.TotalReads();
        r->q15_query_us[q] = (t1 - t0) / 1e3;
      }
      CheckQuery(*bench, q, uc, io, result->result, expected_rows, out);
    }

    const uint64_t op = (*next_op)++;
    int op_span = -1;
    if (traced) {
      op_span = spans->Begin(op, -1, "op", kWrite);
      for (const char* text : kWriteTexts) {
        int s = spans->Begin(op, op_span, "tquel.parse", kWrite);
        auto parsed = tdb::Parser::ParseStatement(text);
        spans->End(s);
        if (!parsed.ok()) out->Fail("write parse failed");
      }
    }
    db->io()->ResetAll();
    const int session =
        traced ? spans->Begin(op, op_span, "core.session", kWrite) : -1;
    const int64_t t0 = NowNs();
    tdb::Status s = bench->UniformUpdateRound();
    if (s.ok()) s = db->DropAllBuffers();  // the write's dirty pages
    const int64_t t1 = NowNs();
    if (traced) {
      spans->End(session);
      spans->End(op_span);
    }
    ++out->attempted;
    ++r->ops;
    ++r->writes;
    r->write_ms.Add((t1 - t0) / 1e6);
    if (!s.ok()) {
      ++out->failed;
      out->Fail("update round " + std::to_string(uc) + ": " + s.ToString());
      continue;
    }
    const tdb::IoCounters io = db->io()->Total();
    r->class_pages[2] += io.TotalReads();
    ++r->class_ops[2];
    r->write_pages_written += io.TotalWrites();
  }
  r->wall_s = (NowNs() - round0) / 1e9;

  const tdb::obs::MetricsSnapshot after = db->Snapshot();
  r->parses = CounterDelta(before, after, "sql.parses", "");
  r->plan_builds = CounterDelta(before, after, "plan.builds", "");
  r->plancache_hits = CounterDelta(before, after, "plancache.hits", "");
  r->journal_bytes = CounterDelta(before, after, "journal.pre_image_bytes", "");
  r->db_bytes = DirBytes(db->env(), db->dir());
  StampDatabase(db, out);
  out->Detail("options.durability", "off");
  out->Detail("options.buffer_frames", 1);
  if (page_cost != nullptr) {
    *page_cost = ProbePageReads(db->env(), "/perfbench_page_probe.dat",
                                db->storage(), out);
  }
  return true;
}

/// For each operation position within a round, the fastest of its samples
/// over all rounds.
Samples BestPerOperation(const std::vector<Round>& rounds,
                         Samples Round::*field) {
  Samples figures;
  const size_t n = (rounds.front().*field).size();
  for (size_t i = 0; i < n; ++i) {
    Samples at;
    for (const Round& r : rounds) {
      const std::vector<double>& v = (r.*field).values();
      if (i < v.size()) at.Add(v[i]);
    }
    figures.Add(at.Quantile(0));
  }
  return figures;
}

}  // namespace

Outcome RunPaperSweep(const RunConfig& config) {
  Outcome out;
  // The seed's only input: the order of Q01..Q12 at each update count.
  std::mt19937_64 rng(config.seed);
  std::vector<std::vector<int>> order(kMaxUpdateCount + 1);
  for (std::vector<int>& qs : order) {
    for (int q = 1; q <= kQueries; ++q) qs.push_back(q);
    for (int i = kQueries - 1; i > 0; --i) {
      std::swap(qs[i], qs[rng() % (i + 1)]);
    }
  }

  // Rounds run until the time is up, at least three of them (untraced and
  // traced alternate in a traced run, so it gets at least two of each).
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  const int min_rounds = config.trace ? 4 : 3;
  std::vector<Round> plain, traced;
  std::vector<int64_t> expected_rows((kMaxUpdateCount + 1) * (kQueries + 1),
                                     -1);
  SpanLog spans;
  PageReadCost page_cost;
  uint64_t next_op = 0;
  // Round -1 warms caches and the allocator and is not reported.
  for (int i = -1;; ++i) {
    if (i >= min_rounds && NowNs() >= deadline) break;
    const bool trace_round =
        config.trace && i % 2 == 1 && traced.size() < kTracedRounds;
    Round r;
    if (!RunRound(order, trace_round, &next_op, &spans, &r, &expected_rows,
                  &out, trace_round && traced.empty() ? &page_cost : nullptr)) {
      return out;
    }
    if (i >= 0) (trace_round ? traced : plain).push_back(std::move(r));
  }
  for (const Round& r : plain) {
    if (r.input_pages != plain.front().input_pages) {
      out.Fail("input pages differ between rounds");
    }
  }
  std::vector<double> round_wall_s;
  for (const Round& r : plain) round_wall_s.push_back(r.wall_s);
  out.Detail("round_wall_s", round_wall_s);

  if (!config.trace) {
    // Every round runs the same statements in the same order on the same
    // data in one thread, so each operation does identical work in every
    // round, and its latency is the fastest of its samples over the
    // rounds; the quantiles are taken over those per-operation minima.
    // On a shared host this memory-bound thread runs up to 1.8x slower in
    // phases that last seconds to minutes.  A median over rounds reports
    // whichever phase held most of the run; the minimum reports the fast
    // phase, which nearly every run reaches.
    const Samples reads = BestPerOperation(plain, &Round::read_ms);
    const Samples writes = BestPerOperation(plain, &Round::write_ms);
    Samples setup;
    for (const Round& r : plain) setup.Add(r.setup_s);
    const double op_s = (reads.Mean() * reads.size() +
                         writes.Mean() * writes.size()) / 1e3;
    out.Metric("throughput_ops_s", Ratio(reads.size() + writes.size(), op_s),
               "ops/s");
    out.Metric("read_p50_ms", reads.Quantile(0.50), "ms");
    out.Metric("read_p99_ms", reads.Quantile(0.99), "ms");
    out.Metric("write_p50_ms", writes.Quantile(0.50), "ms");
    out.Metric("write_p99_ms", writes.Quantile(0.99), "ms");
    out.Metric("ok_frac", 1.0 - Ratio(out.failed, out.attempted), "frac");
    out.Metric("setup_s", setup.Median(), "s");
    out.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    out.Metric("db_bytes", plain.back().db_bytes, "bytes");
    out.Metric("paper_input_pages", plain.back().input_pages, "pages");
    out.Detail("samples.read_ops", static_cast<double>(reads.size()));
    out.Detail("samples.write_ops", static_cast<double>(writes.size()));
    return out;
  }

  // Traced run: counters from the untraced rounds, span times from the
  // traced ones.
  const Round& r = plain.front();
  const NetCost net = ProbeNetLayer(config, &out);
  out.Metric("net.ping_us", net.ping_us, "us");
  out.Metric("net.self_us", net.self_us, "us");
  EmitLayerTimes(DeriveLayerTimes(spans), &out);
  out.Metric("tquel.parses_per_op", Ratio(r.parses, r.ops), "count");
  out.Metric("exec.plan_builds_per_read", Ratio(r.plan_builds, r.reads),
             "count");
  out.Metric("core.plancache_hit_ratio", Ratio(r.plancache_hits, r.reads),
             "frac");
  const char* classes[3] = {kReadCurrent, kReadAsOf, kWrite};
  for (int c = 0; c < 3; ++c) {
    out.Metric(std::string("storage.pages_read.") + classes[c],
               Ratio(r.class_pages[c], r.class_ops[c]), "pages");
  }
  out.Metric("storage.update_pages_written",
             Ratio(r.write_pages_written, r.writes), "pages");
  out.Metric("storage.page_read_ns.hit", page_cost.hit_ns, "ns");
  out.Metric("storage.page_read_ns.miss", page_cost.miss_ns, "ns");
  out.Metric("storage.journal_bytes_per_write",
             Ratio(r.journal_bytes, r.writes), "bytes");
  // Traced round k runs right after untraced round k; comparing the two
  // keeps a shift in the host's speed out of the ratio.
  Samples slowdown;
  for (size_t k = 0; k < traced.size(); ++k) {
    slowdown.Add(traced[k].wall_s / plain[k].wall_s);
  }
  out.Metric("trace.overhead_frac", slowdown.Median() - 1.0, "frac");
  for (int q = 1; q <= kQueries; ++q) {
    char name[48];
    std::snprintf(name, sizeof name, "paper.Q%02d.uc15_input_pages", q);
    out.Detail(name, static_cast<double>(r.q15_input_pages[q]));
    Samples query_us;
    for (const Round& p : plain) query_us.Add(p.q15_query_us[q]);
    std::snprintf(name, sizeof name, "paper.Q%02d.uc15_query_us", q);
    out.Detail(name, query_us.Median());
  }
  if (!spans.WriteJsonLines(config.trace_path)) {
    out.Fail("cannot write spans to " + config.trace_path);
  }
  return out;
}

}  // namespace perfbench
