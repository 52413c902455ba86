#include <cstring>
#include <map>

#include "workloads.h"

namespace perfbench {

int ClassIndex(const char* op_class) {
  if (std::strcmp(op_class, kReadCurrent) == 0) return 0;
  if (std::strcmp(op_class, kReadAsOf) == 0) return 1;
  return 2;
}

LayerTimes DeriveLayerTimes(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  // Child durations per operation span, summed by child name (a paper
  // write parses two statements).
  std::map<int, std::map<std::string, double>> children;
  for (const Span& span : spans) {
    if (span.parent >= 0) children[span.parent][span.name] += span.Micros();
  }
  struct ClientOnly {
    int c;
    double parse_us;
    double wire_us;
  };
  std::vector<ClientOnly> client_only;
  LayerTimes t;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    const int c = ClassIndex(spans[i].op_class);
    const std::map<std::string, double>& child = children[static_cast<int>(i)];
    auto get = [&](const char* name) -> const double* {
      auto it = child.find(name);
      return it == child.end() ? nullptr : &it->second;
    };
    const double* parse = get("tquel.parse");
    const double* plan = get("exec.plan");
    const double* session = get("core.session");
    const double* ping = get("net.ping");
    const double* wire = get("net.wire");
    const double parse_us = parse != nullptr ? *parse : 0;
    if (parse != nullptr) t.parse_us[c].Add(parse_us);
    if (plan != nullptr && c < 2) t.plan_us[c].Add(*plan - parse_us);
    if (ping != nullptr) t.ping_us.Add(*ping);
    if (session != nullptr) {
      t.session_us[c].Add(*session);
      t.execute_us[c].Add(*session - (plan != nullptr ? *plan : parse_us));
      if (wire != nullptr) t.net_self_us.Add(*wire - *session);
    } else if (wire != nullptr) {
      client_only.push_back({c, parse_us, *wire});
    }
  }
  // A statement sent only through the client (an oltp_server write) has
  // no in-process twin: its server-side time is its round trip minus the
  // wire's own round trip, the median ping.
  const double ping_us = t.ping_us.Median();
  for (const ClientOnly& w : client_only) {
    t.session_us[w.c].Add(w.wire_us - ping_us);
    t.execute_us[w.c].Add(w.wire_us - ping_us - w.parse_us);
  }
  return t;
}

void EmitLayerTimes(const LayerTimes& t, Outcome* out) {
  const char* classes[3] = {kReadCurrent, kReadAsOf, kWrite};
  for (int c = 0; c < 3; ++c) {
    out->Metric(std::string("tquel.parse_us.") + classes[c],
                t.parse_us[c].Median(), "us");
  }
  for (int c = 0; c < 2; ++c) {
    out->Metric(std::string("exec.plan_us.") + classes[c],
                t.plan_us[c].Median(), "us");
  }
  for (int c = 0; c < 3; ++c) {
    out->Metric(std::string("exec.execute_us.") + classes[c],
                t.execute_us[c].Median(), "us");
  }
  for (int c = 0; c < 3; ++c) {
    out->Metric(std::string("core.session_us.") + classes[c],
                t.session_us[c].Median(), "us");
    out->Detail(std::string("samples.traced.") + classes[c],
                static_cast<double>(t.session_us[c].size()));
  }
}

}  // namespace perfbench
