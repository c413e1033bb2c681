#include "obs/trace.hpp"

#include <cstdio>

namespace f3d::obs {

Json make_bench_report(const std::string& experiment, Json series) {
  Json meta = Json::object();
  meta.set("schema", kBenchSchema).set("experiment", experiment);
  Json root = Json::object();
  root.set("meta", std::move(meta)).set("series", std::move(series));
  return root;
}

bool is_bench_report(const Json& v) {
  const Json* meta = v.find("meta");
  if (meta == nullptr || !meta->is_object()) return false;
  const Json* schema = meta->find("schema");
  const Json* experiment = meta->find("experiment");
  return schema != nullptr && schema->is_string() && schema->s == kBenchSchema &&
         experiment != nullptr && experiment->is_string() &&
         v.find("series") != nullptr;
}

namespace {

// Flattened into the meta object as counters/gauges members.
void embed_snapshot(Json& meta, const Snapshot& s) {
  Json counters = Json::object();
  for (const auto& [k, v] : s.counters) counters.set(k, v);
  Json gauges = Json::object();
  for (const auto& [k, v] : s.gauges) gauges.set(k, v);
  meta.set("counters", std::move(counters)).set("gauges", std::move(gauges));
}

}  // namespace

Json chrome_trace_json(const std::vector<SpanEvent>& events,
                       const Snapshot* registry) {
  Json trace_events = Json::array();
  for (const SpanEvent& e : events) {
    Json ev = Json::object();
    Json args = Json::object();
    args.set("depth", e.depth);
    ev.set("name", e.name)
        .set("ph", "X")
        .set("ts", static_cast<double>(e.t0_ns) * 1e-3)
        .set("dur", e.duration_us())
        .set("pid", 1)
        .set("tid", e.tid)
        .set("args", std::move(args));
    trace_events.push(std::move(ev));
  }
  Json meta = Json::object();
  meta.set("schema", kTraceSchema)
      .set("span_count", static_cast<long long>(events.size()));
  if (registry != nullptr && !registry->empty())
    embed_snapshot(meta, *registry);
  Json root = Json::object();
  root.set("traceEvents", std::move(trace_events))
      .set("displayTimeUnit", "ms")
      .set("meta", std::move(meta));
  return root;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanEvent>& events,
                        const Snapshot* registry) {
  return write_json_file(path, chrome_trace_json(events, registry));
}

std::string spans_csv(const std::vector<SpanEvent>& events) {
  std::string out = "name,tid,depth,t0_us,dur_us\n";
  char buf[160];
  for (const SpanEvent& e : events) {
    std::snprintf(buf, sizeof buf, "%s,%d,%d,%.3f,%.3f\n", e.name, e.tid,
                  e.depth, static_cast<double>(e.t0_ns) * 1e-3,
                  e.duration_us());
    out += buf;
  }
  return out;
}

std::string snapshot_csv(const Snapshot& s) {
  std::string out = "kind,name,value\n";
  char buf[256];
  for (const auto& [k, v] : s.counters) {
    std::snprintf(buf, sizeof buf, "counter,%s,%lld\n", k.c_str(), v);
    out += buf;
  }
  for (const auto& [k, v] : s.gauges) {
    std::snprintf(buf, sizeof buf, "gauge,%s,%.17g\n", k.c_str(), v);
    out += buf;
  }
  return out;
}

void flush_env_trace() {
  if (!trace_env_requested()) return;
  std::vector<SpanEvent> events = Tracer::global().drain();
  if (events.empty()) return;
  const Snapshot registry = Registry::global().snapshot();
  const std::string path = trace_env_path();
  if (!write_chrome_trace(path, events, &registry))
    std::fprintf(stderr, "f3d::obs: cannot write trace to %s\n", path.c_str());
}

}  // namespace f3d::obs
