#include "common/table.hpp"

#include <cstdio>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace f3d {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  F3D_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> row) {
  F3D_CHECK_MSG(row.size() == header_.size(), "row arity mismatch");
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::num(long long v) { return std::to_string(v); }

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      if (r[c].size() > width[c]) width[c] = r[c].size();

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << "| " << r[c];
      for (std::size_t p = r[c].size(); p < width[c]; ++p) os << ' ';
      os << ' ';
    }
    os << "|\n";
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << "|";
    for (std::size_t p = 0; p < width[c] + 2; ++p) os << '-';
  }
  os << "|\n";
  for (const auto& r : rows_) emit_row(r);
  return os.str();
}

void Table::print() const { std::fputs(to_string().c_str(), stdout); }

Table registry_table(const obs::Snapshot& snapshot) {
  Table t({"kind", "name", "value"});
  for (const auto& [k, v] : snapshot.counters)
    t.add_row({"counter", k, Table::num(v)});
  for (const auto& [k, v] : snapshot.gauges)
    t.add_row({"gauge", k, Table::num(v, 3)});
  return t;
}

Table spans_table(const std::vector<obs::SpanEvent>& events) {
  // Exclusive ("self") time is a span's duration minus that of its direct
  // children on the same thread. Events arrive sorted by start, so per
  // thread the still-open ancestors of each event form a stack.
  std::vector<double> child_us(events.size(), 0.0);
  std::map<int, std::vector<std::size_t>> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    auto& stack = open[e.tid];
    while (!stack.empty() && (events[stack.back()].depth >= e.depth ||
                              events[stack.back()].t1_ns < e.t1_ns))
      stack.pop_back();
    if (!stack.empty()) child_us[stack.back()] += e.duration_us();
    stack.push_back(i);
  }

  // Aggregate by name, preserving first-appearance order.
  std::vector<std::string> order;
  struct Agg {
    long long count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::vector<Agg> aggs;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    std::size_t k = 0;
    for (; k < order.size(); ++k)
      if (order[k] == e.name) break;
    if (k == order.size()) {
      order.emplace_back(e.name);
      aggs.emplace_back();
    }
    ++aggs[k].count;
    aggs[k].total_us += e.duration_us();
    aggs[k].self_us += e.duration_us() - child_us[i];
  }
  Table t({"span", "count", "total", "self", "mean"});
  for (std::size_t k = 0; k < order.size(); ++k) {
    t.add_row({order[k], Table::num(aggs[k].count),
               Table::num(aggs[k].total_us * 1e-3, 3) + "ms",
               Table::num(aggs[k].self_us * 1e-3, 3) + "ms",
               Table::num(aggs[k].count > 0
                              ? aggs[k].total_us / static_cast<double>(
                                                       aggs[k].count)
                              : 0.0,
                          1) +
                   "us"});
  }
  return t;
}

}  // namespace f3d
