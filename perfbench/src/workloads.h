#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "measure.h"

namespace perfbench {

/// One invocation's settings, straight from the command line.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;     // scratch directory the run owns (relative path)
  std::string trace_path;  // where a traced run writes its spans
};

/// A traced run alternates untraced and traced rounds until it has this
/// many traced ones, then runs untraced rounds for the rest of its time:
/// three rounds give thousands of spans per operation class, and an
/// oltp_server round records 50k of them.
inline constexpr size_t kTracedRounds = 3;

/// The paper's Fig. 6 methodology, embedded (see paper_sweep.cc).
Outcome RunPaperSweep(const RunConfig& config);

/// Closed-loop mixed reads and writes against an in-process server over a
/// unix socket (see oltp_server.cc).
Outcome RunOltpServer(const RunConfig& config);

/// Round-trip costs of the wire layer, measured on the oltp_server data
/// set: median Client::Ping, and the median of (current point read through
/// Client::Execute) minus (the same read through an in-process Session).
struct NetCost {
  double ping_us = 0;
  double self_us = 0;
};
NetCost ProbeNetLayer(const RunConfig& config, Outcome* out);

/// Operation classes shared by both workloads: reads at the current
/// transaction time, reads as of a past transaction time, and writes.
inline constexpr const char* kReadCurrent = "read_current";
inline constexpr const char* kReadAsOf = "read_asof";
inline constexpr const char* kWrite = "write";

/// 0, 1, 2 for read_current, read_asof, write.
int ClassIndex(const char* op_class);

/// Derives the per-layer metrics both workloads share from the traced
/// rounds' spans.  Every operation span has these children, each with the
/// operation's id:
///   tquel.parse   Parser::ParseStatement on the statement text
///   exec.plan     `explain <text>` in-process (parse + bind + plan)
///   core.session  the statement through an in-process Session
///   net.ping      Client::Ping (oltp_server)
///   net.wire      the statement through Client::Execute (oltp_server)
/// Writes execute once: through the client on oltp_server (no
/// core.session span; its server-side time is the wire time minus the
/// median ping) and embedded on paper_sweep (no exec.plan span).
struct LayerTimes {
  Samples parse_us[3];    // indexed read_current, read_asof, write
  Samples plan_us[2];     // explain minus parse
  Samples execute_us[3];  // session minus explain (writes: minus parse)
  Samples session_us[3];
  Samples ping_us;
  Samples net_self_us;  // wire minus session, reads only
};
LayerTimes DeriveLayerTimes(const SpanLog& spans);

/// Emits the shared span-derived per-layer metrics.
void EmitLayerTimes(const LayerTimes& times, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
