// oltp_server: a closed loop of short statements through the wire.
//
// Each round loads one temporal relation of 1024 keys with the paper's
// 108-byte tuple, hashed on id, into a fresh database at `journal`
// durability, starts an in-process Server on a unix socket and connects two
// clients.  Each client then sends its own
// pre-built list of statements, waiting for every reply before the next:
// 60% current point reads, 20% point reads as of a past transaction time,
// and 20% single-key replaces, with keys drawn uniformly.  A round is a
// fixed number of statements, never a fixed time: every replace lengthens
// a history chain, so a timed round would hand faster code a bigger
// database.
//
// Two connections: on four cores, four connections to the default server
// swung between 4.4k and 12.3k statements/s from run to run; two held a
// steady rate.  `journal`, not `sync`: on a shared virtual disk the fsync
// behind `sync` spread throughput by 25% from run to run, `journal` by 2%.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <random>
#include <thread>

#include "core/database.h"
#include "net/client.h"
#include "net/server.h"
#include "tquel/parser.h"
#include "types/timepoint.h"
#include "workloads.h"

namespace perfbench {

namespace {

using tdb::Result;
using tdb::net::Client;
using tdb::net::DatabaseRegistry;
using tdb::net::Server;

constexpr int kKeys = 1024;
constexpr int kConnections = 2;
constexpr int kOpsPerConnection = 5000;
constexpr int kReadCurrentPct = 60;
constexpr int kReadAsOfPct = 20;  // the remaining 20% are writes
constexpr int kNetProbeReads = 400;

// The paper's calendar: tuples start between Jan 1 and Feb 15 1980 and the
// database clock starts on Mar 1 1980, after all of them.
constexpr int64_t kEpoch1980 = 315532800;
constexpr int64_t kLoadWindowSeconds = 45LL * 86400;
constexpr int64_t kClockStart = kEpoch1980 + 60LL * 86400;

const char* const kDbName = "oltp";
const char* const kCreate =
    "create persistent interval acct (id = i4, amount = i4, seq = i4, "
    "string = c96)";
const char* const kRange = "range of a is acct";
const char* const kCurrentRows =
    "retrieve (a.id, a.seq) when a overlap \"now\"";

std::string TimeText(int64_t seconds) {
  return tdb::TimePoint(static_cast<int32_t>(seconds))
      .ToString(tdb::TimeResolution::kSecond);
}

std::string CurrentRead(int key) {
  return "retrieve (a.id, a.seq) where a.id = " + std::to_string(key) +
         " when a overlap \"now\"";
}

/// The load file: every key once, seq 0, seeded amount, string and start
/// time.
std::string LoadFile(uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5DEECE66DULL);
  std::string tsv;
  for (int id = 0; id < kKeys; ++id) {
    std::string text(96, ' ');
    for (char& ch : text) ch = static_cast<char>('a' + rng() % 26);
    const std::string start =
        TimeText(kEpoch1980 + static_cast<int64_t>(rng() % kLoadWindowSeconds));
    tsv += std::to_string(id) + "\t" + std::to_string(rng() % 100000) +
           "\t0\t" + text + "\t" + start + "\tforever\t" + start +
           "\tforever\n";
  }
  return tsv;
}

struct Op {
  const char* cls;
  std::string text;
};

/// Each connection's statements.  An `as of` read picks a time between
/// the clock's start and the number of writes its own connection has sent
/// by then, so it never lies in the database's future.
std::vector<std::vector<Op>> BuildOps(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<Op>> ops(kConnections);
  for (std::vector<Op>& list : ops) {
    int64_t writes = 0;
    for (int i = 0; i < kOpsPerConnection; ++i) {
      const int pick = static_cast<int>(rng() % 100);
      const int key = static_cast<int>(rng() % kKeys);
      if (pick < kReadCurrentPct) {
        list.push_back({kReadCurrent, CurrentRead(key)});
      } else if (pick < kReadCurrentPct + kReadAsOfPct) {
        const int64_t at =
            kClockStart + static_cast<int64_t>(rng() % (writes + 1));
        list.push_back({kReadAsOf, "retrieve (a.id, a.seq) where a.id = " +
                                       std::to_string(key) + " as of \"" +
                                       TimeText(at) + "\""});
      } else {
        ++writes;
        list.push_back({kWrite, "replace a (seq = a.seq + 1) where a.id = " +
                                    std::to_string(key)});
      }
    }
  }
  return ops;
}

Result<std::unique_ptr<Client>> Connect(const std::string& socket) {
  auto client = Client::ConnectUnix(socket, kDbName);
  if (!client.ok()) return client.status();
  TDB_RETURN_NOT_OK((*client)->Execute(kRange).status());
  return client;
}

/// A freshly loaded database behind a running server, with connected
/// clients.  A client whose connect fails stays null; its worker retries
/// before each statement and counts every failed attempt.
///
/// The database lives in a MemEnv, as BenchmarkDb's does: the journal and
/// page writes still run, but a stall of the host's disk cannot stall a
/// round (on a shared virtual disk one run in ten ran 10x slower).
struct Fixture {
  static constexpr const char* kRoot = "/oltp";
  std::unique_ptr<tdb::MemEnv> env;
  std::string socket;
  std::unique_ptr<DatabaseRegistry> registry;
  tdb::Database* db = nullptr;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Client>> clients;

  tdb::Status SetUp(const std::string& socket_path, const std::string& tsv,
                    int connections) {
    socket = socket_path;
    std::error_code ec;
    std::filesystem::remove(socket, ec);
    env = std::make_unique<tdb::MemEnv>();
    tdb::DatabaseOptions options;
    options.env = env.get();
    options.durability = tdb::DurabilityMode::kJournal;
    options.start_time = tdb::TimePoint(static_cast<int32_t>(kClockStart));
    registry = std::make_unique<DatabaseRegistry>(kRoot, options);
    TDB_ASSIGN_OR_RETURN(db, registry->GetOrOpen(kDbName));
    const std::string load = std::string(kRoot) + "/load.tsv";
    TDB_RETURN_NOT_OK(env->WriteStringToFile(load, tsv));
    TDB_RETURN_NOT_OK(db->Execute(kCreate).status());
    TDB_RETURN_NOT_OK(
        db->Execute("copy acct from \"" + load + "\"").status());
    TDB_RETURN_NOT_OK(
        db->Execute("modify acct to hash on id where fillfactor = 100")
            .status());
    tdb::net::ServerOptions server_options;
    server_options.unix_path = socket;
    server = std::make_unique<Server>(registry.get(), server_options);
    TDB_RETURN_NOT_OK(server->Start());
    clients.resize(connections);
    for (auto& client : clients) {
      auto connected = Connect(socket);
      if (connected.ok()) client = std::move(connected).value();
    }
    return tdb::Status::OK();
  }

  /// Bytes of the database's files.
  uint64_t DbBytes() {
    return DirBytes(env.get(), std::string(kRoot) + "/" + kDbName);
  }

  void TearDown() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    registry.reset();
    db = nullptr;
    env.reset();
    std::error_code ec;
    std::filesystem::remove(socket, ec);
  }

  ~Fixture() { TearDown(); }
};

/// What one connection saw in one round.
struct Worker {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t acked_writes = 0;
  uint64_t bad_current_reads = 0;  // a current point read without 1 row
  Samples read_ms, write_ms;
  uint64_t class_pages[2] = {0, 0};  // in-process reads, traced rounds
  uint64_t class_ops[2] = {0, 0};
  std::string first_error;
  SpanLog spans;
};

/// One statement, timed end to end.  In a traced round the statement's
/// layers are timed first as child spans: parse, plan and (for reads) an
/// in-process execution, then a ping and the client call itself.  Returns
/// false when the statement failed.
bool RunOp(const Op& op, uint64_t op_id, bool traced, Client* client,
           tdb::Session* session, Worker* w) {
  const bool write = op.cls == kWrite;
  int op_span = -1;
  if (traced) {
    op_span = w->spans.Begin(op_id, -1, "op", op.cls);
    int s = w->spans.Begin(op_id, op_span, "tquel.parse", op.cls);
    const bool parsed = tdb::Parser::ParseStatement(op.text).ok();
    w->spans.End(s);
    bool local = parsed;
    if (!write) {
      s = w->spans.Begin(op_id, op_span, "exec.plan", op.cls);
      local = local && session->Execute("explain " + op.text).ok();
      w->spans.End(s);
      const uint64_t pages0 = session->io()->Total().TotalReads();
      s = w->spans.Begin(op_id, op_span, "core.session", op.cls);
      local = local && session->Execute(op.text).ok();
      w->spans.End(s);
      const int c = op.cls == kReadCurrent ? 0 : 1;
      w->class_pages[c] += session->io()->Total().TotalReads() - pages0;
      ++w->class_ops[c];
    }
    s = w->spans.Begin(op_id, op_span, "net.ping", op.cls);
    local = client->Ping().ok() && local;
    w->spans.End(s);
    if (!local && w->first_error.empty()) {
      w->first_error = "traced layer call failed: " + op.text;
    }
  }
  const int wire = traced ? w->spans.Begin(op_id, op_span, "net.wire", op.cls)
                          : -1;
  const int64_t t0 = NowNs();
  auto result = client->Execute(op.text);
  const int64_t t1 = NowNs();
  if (traced) {
    w->spans.End(wire);
    w->spans.End(op_span);
  }
  ++w->attempted;
  if (!result.ok() || result->size() != 1) {
    ++w->failed;
    if (w->first_error.empty()) {
      w->first_error = op.text + ": " + result.status().ToString();
    }
    return false;
  }
  (write ? w->write_ms : w->read_ms).Add((t1 - t0) / 1e6);
  if (write) {
    ++w->acked_writes;
  } else if (op.cls == kReadCurrent && (*result)[0].rows.size() != 1) {
    ++w->bad_current_reads;
  }
  return true;
}

struct Round {
  double setup_s = 0;
  double wall_s = 0;
  uint64_t attempted = 0, failed = 0, acked_writes = 0, reads[2] = {0, 0};
  // Latency quantiles of the round.  The raw samples are dropped once
  // these are taken, so the process's memory does not grow with the
  // number of rounds.
  double read_p50_ms = 0, read_p99_ms = 0, write_p50_ms = 0, write_p99_ms = 0;
  size_t read_samples = 0, write_samples = 0;
  uint64_t class_pages[2] = {0, 0}, class_ops[2] = {0, 0};
  uint64_t input_pages = 0, pages_written = 0;
  uint64_t parses = 0, plan_builds = 0, plancache_hits = 0;
  uint64_t journal_bytes = 0;
  uint64_t db_bytes = 0;
  SpanLog spans;
};

/// Sums the current version of every key: each key has exactly one, and
/// the seq values add up to the writes the server acknowledged.
void CheckFinalState(Fixture* f, uint64_t acked_writes, Outcome* out) {
  auto checker = Connect(f->socket);
  if (!checker.ok()) {
    out->Fail("final check connect: " + checker.status().ToString());
    return;
  }
  auto result = (*checker)->Execute(kCurrentRows);
  if (!result.ok() || result->size() != 1) {
    out->Fail("final check query failed");
    return;
  }
  const std::vector<tdb::Row>& rows = (*result)[0].rows;
  uint64_t sum = 0;
  for (const tdb::Row& row : rows) sum += row[1].AsInt();
  if (rows.size() != kKeys || sum != acked_writes) {
    out->Fail("final state: " + std::to_string(rows.size()) +
              " current rows with seq sum " + std::to_string(sum) + ", want " +
              std::to_string(kKeys) + " and " + std::to_string(acked_writes));
  }
}

bool RunRound(const RunConfig& config, const std::string& tsv,
              const std::vector<std::vector<Op>>& ops, int index, bool traced,
              Round* r, Outcome* out, PageReadCost* page_cost) {
  Fixture f;
  const int64_t setup0 = NowNs();
  tdb::Status status = f.SetUp(
      config.run_dir + "/r" + std::to_string(index) + ".sock", tsv,
      kConnections);
  r->setup_s = (NowNs() - setup0) / 1e9;
  if (!status.ok()) {
    out->Fail("set-up: " + status.ToString());
    return false;
  }
  // In-process twins of the connections, for the traced layer spans.
  std::vector<std::unique_ptr<tdb::Session>> sessions;
  if (traced) {
    for (int c = 0; c < kConnections; ++c) {
      sessions.push_back(f.db->CreateSession());
      if (!sessions.back()->Execute(kRange).ok()) out->Fail("session range");
    }
  }

  std::vector<Worker> workers(kConnections);
  std::latch start(kConnections + 1);
  std::vector<std::thread> threads;
  const tdb::obs::MetricsSnapshot before = f.db->Snapshot();
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Worker* w = &workers[c];
      std::unique_ptr<Client>& client = f.clients[c];
      start.arrive_and_wait();
      for (size_t i = 0; i < ops[c].size(); ++i) {
        if (client == nullptr) {
          auto connected = Connect(f.socket);
          if (!connected.ok()) {
            ++w->attempted;
            ++w->failed;
            if (w->first_error.empty()) {
              w->first_error = "connect: " + connected.status().ToString();
            }
            continue;
          }
          client = std::move(connected).value();
        }
        const uint64_t op_id = (static_cast<uint64_t>(index) << 32) |
                               (static_cast<uint64_t>(c) << 24) | i;
        if (!RunOp(ops[c][i], op_id, traced, client.get(),
                   traced ? sessions[c].get() : nullptr, w) &&
            !client->Ping().ok()) {
          client.reset();  // the connection is gone: reconnect next time
        }
      }
    });
  }
  start.arrive_and_wait();
  const int64_t t0 = NowNs();
  for (std::thread& t : threads) t.join();
  r->wall_s = (NowNs() - t0) / 1e9;
  const tdb::obs::MetricsSnapshot after = f.db->Snapshot();

  uint64_t bad_current_reads = 0;
  Samples read_ms, write_ms;
  for (Worker& w : workers) {
    r->attempted += w.attempted;
    r->failed += w.failed;
    r->acked_writes += w.acked_writes;
    read_ms.Append(w.read_ms);
    write_ms.Append(w.write_ms);
    for (int c = 0; c < 2; ++c) {
      r->class_pages[c] += w.class_pages[c];
      r->class_ops[c] += w.class_ops[c];
    }
    bad_current_reads += w.bad_current_reads;
    r->spans.Append(w.spans);
    if (!w.first_error.empty()) {
      std::fprintf(stderr, "oltp_server: %s\n", w.first_error.c_str());
    }
  }
  r->read_p50_ms = read_ms.Quantile(0.50);
  r->read_p99_ms = read_ms.Quantile(0.99);
  r->write_p50_ms = write_ms.Quantile(0.50);
  r->write_p99_ms = write_ms.Quantile(0.99);
  r->read_samples = read_ms.size();
  r->write_samples = write_ms.size();
  for (const std::vector<Op>& list : ops) {
    for (const Op& op : list) {
      if (op.cls == kReadCurrent) ++r->reads[0];
      if (op.cls == kReadAsOf) ++r->reads[1];
    }
  }
  out->attempted += r->attempted;
  out->failed += r->failed;
  if (bad_current_reads != 0) {
    out->Fail(std::to_string(bad_current_reads) +
              " current point reads did not return exactly one row");
  }
  r->input_pages = CounterDelta(before, after, "pager.", ".read_pages");
  r->pages_written = CounterDelta(before, after, "pager.", ".write_pages");
  r->parses = CounterDelta(before, after, "sql.parses", "");
  r->plan_builds = CounterDelta(before, after, "plan.builds", "");
  r->plancache_hits = CounterDelta(before, after, "plancache.hits", "");
  r->journal_bytes = CounterDelta(before, after, "journal.pre_image_bytes", "");
  if (r->input_pages == 0) {
    out->Fail("no pager read counters: the database's metrics are off");
  }
  CheckFinalState(&f, r->acked_writes, out);
  r->db_bytes = f.DbBytes();
  StampDatabase(f.db, out);
  out->Detail("options.durability", "journal");
  out->Detail("options.server_epoll", f.server->epoll_mode() ? 1.0 : 0.0);
  if (page_cost != nullptr) {
    *page_cost = ProbePageReads(f.env.get(), "/page_probe.dat",
                                f.db->storage(), out);
  }
  sessions.clear();
  return true;
}

}  // namespace

NetCost ProbeNetLayer(const RunConfig& config, Outcome* out) {
  NetCost cost;
  Fixture f;
  tdb::Status status =
      f.SetUp(config.run_dir + "/netprobe.sock", LoadFile(config.seed), 1);
  if (!status.ok() || f.clients[0] == nullptr) {
    out->Fail("net probe set-up: " + status.ToString());
    return cost;
  }
  std::unique_ptr<tdb::Session> session = f.db->CreateSession();
  if (!session->Execute(kRange).ok()) out->Fail("net probe range");
  Samples ping_us, self_us;
  for (int i = 0; i < kNetProbeReads; ++i) {
    const std::string text = CurrentRead((i * 37) % kKeys);
    int64_t t0 = NowNs();
    const bool pinged = f.clients[0]->Ping().ok();
    int64_t t1 = NowNs();
    const bool local = session->Execute(text).ok();
    int64_t t2 = NowNs();
    const bool remote = f.clients[0]->Execute(text).ok();
    int64_t t3 = NowNs();
    if (!pinged || !local || !remote) {
      out->Fail("net probe read failed");
      break;
    }
    ping_us.Add((t1 - t0) / 1e3);
    self_us.Add(((t3 - t2) - (t2 - t1)) / 1e3);
  }
  session.reset();
  cost.ping_us = ping_us.Median();
  cost.self_us = self_us.Median();
  return cost;
}

Outcome RunOltpServer(const RunConfig& config) {
  Outcome out;
  const std::string tsv = LoadFile(config.seed);
  const std::vector<std::vector<Op>> ops = BuildOps(config.seed);

  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  const int min_rounds = config.trace ? 4 : 3;
  std::vector<Round> plain, traced;
  PageReadCost page_cost;
  // Round -1 warms caches and the allocator and is not reported.
  for (int i = -1;; ++i) {
    if (i >= min_rounds && NowNs() >= deadline) break;
    const bool trace_round =
        config.trace && i % 2 == 1 && traced.size() < kTracedRounds;
    Round r;
    if (!RunRound(config, tsv, ops, i, trace_round, &r, &out,
                  trace_round && traced.empty() ? &page_cost : nullptr)) {
      return out;
    }
    if (i >= 0) (trace_round ? traced : plain).push_back(std::move(r));
  }
  std::vector<double> round_wall_s;
  for (const Round& r : plain) round_wall_s.push_back(r.wall_s);
  out.Detail("round_wall_s", round_wall_s);

  if (!config.trace) {
    // The host's speed shifts between phases that last seconds to
    // minutes, so no figure is a mean over rounds, which would blend in
    // every slow phase a run happened to catch.  Throughput is the median
    // of the rounds' values.  A latency quantile is the first quartile of
    // the rounds' values: a slow phase overlapping a round inflates its
    // tail most, so the quieter quarter of the rounds moves less from run
    // to run than their median does.
    Samples setup, throughput, read_p50, read_p99, write_p50, write_p99,
        input_pages;
    std::vector<double> read_samples, write_samples;
    for (const Round& r : plain) {
      setup.Add(r.setup_s);
      throughput.Add(Ratio(r.attempted - r.failed, r.wall_s));
      read_p50.Add(r.read_p50_ms);
      read_p99.Add(r.read_p99_ms);
      write_p50.Add(r.write_p50_ms);
      write_p99.Add(r.write_p99_ms);
      input_pages.Add(static_cast<double>(r.input_pages));
      read_samples.push_back(static_cast<double>(r.read_samples));
      write_samples.push_back(static_cast<double>(r.write_samples));
    }
    out.Metric("throughput_ops_s", throughput.Median(), "ops/s");
    out.Metric("read_p50_ms", read_p50.Quantile(0.25), "ms");
    out.Metric("read_p99_ms", read_p99.Quantile(0.25), "ms");
    out.Metric("write_p50_ms", write_p50.Quantile(0.25), "ms");
    out.Metric("write_p99_ms", write_p99.Quantile(0.25), "ms");
    out.Metric("ok_frac", 1.0 - Ratio(out.failed, out.attempted), "frac");
    out.Metric("setup_s", setup.Median(), "s");
    out.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    out.Metric("db_bytes", plain.back().db_bytes, "bytes");
    out.Metric("paper_input_pages", input_pages.Median(), "pages");
    out.Detail("rounds.read_samples", read_samples);
    out.Detail("rounds.write_samples", write_samples);
    return out;
  }

  // Traced run: counters from the untraced rounds, span times and
  // in-process page counts from the traced ones.
  const Round& r = plain.front();
  const Round& t = traced.front();
  SpanLog spans;
  for (const Round& tr : traced) spans.Append(tr.spans);
  const LayerTimes times = DeriveLayerTimes(spans);
  out.Metric("net.ping_us", times.ping_us.Median(), "us");
  out.Metric("net.self_us", times.net_self_us.Median(), "us");
  EmitLayerTimes(times, &out);
  const uint64_t writes = r.attempted - r.reads[0] - r.reads[1];
  out.Metric("tquel.parses_per_op", Ratio(r.parses, r.attempted), "count");
  out.Metric("exec.plan_builds_per_read",
             Ratio(r.plan_builds, r.reads[0] + r.reads[1]), "count");
  out.Metric("core.plancache_hit_ratio",
             Ratio(r.plancache_hits, r.reads[0] + r.reads[1]), "frac");
  const double per_read[2] = {Ratio(t.class_pages[0], t.class_ops[0]),
                              Ratio(t.class_pages[1], t.class_ops[1])};
  out.Metric("storage.pages_read.read_current", per_read[0], "pages");
  out.Metric("storage.pages_read.read_asof", per_read[1], "pages");
  // The server's sessions are out of reach, so a write's page reads are
  // the database-wide reads of an untraced round less what its reads cost
  // in-process.
  const double write_pages =
      static_cast<double>(r.input_pages) - per_read[0] * r.reads[0] -
      per_read[1] * r.reads[1];
  out.Metric("storage.pages_read.write",
             Ratio(std::max(write_pages, 0.0), writes), "pages");
  out.Metric("storage.update_pages_written", Ratio(r.pages_written, writes),
             "pages");
  out.Metric("storage.page_read_ns.hit", page_cost.hit_ns, "ns");
  out.Metric("storage.page_read_ns.miss", page_cost.miss_ns, "ns");
  out.Metric("storage.journal_bytes_per_write",
             Ratio(r.journal_bytes, r.acked_writes), "bytes");
  // Traced round k runs right after untraced round k; comparing the two
  // keeps a shift in the host's speed out of the ratio.
  Samples slowdown;
  for (size_t k = 0; k < traced.size(); ++k) {
    slowdown.Add(traced[k].wall_s / plain[k].wall_s);
  }
  out.Metric("trace.overhead_frac", slowdown.Median() - 1.0, "frac");
  if (!spans.WriteJsonLines(config.trace_path)) {
    out.Fail("cannot write spans to " + config.trace_path);
  }
  return out;
}

}  // namespace perfbench
