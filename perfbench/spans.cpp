#include "spans.hpp"

#include "common/error.hpp"

namespace perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanLog::open(const char* name) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.id = static_cast<int>(spans_.size());
  rec.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(rec);
  open_.push_back(rec.id);
  spans_.back().t0_s = now_s();  // last, so bookkeeping is outside the span
  return rec.id;
}

void SpanLog::close(int id) {
  if (!enabled_) return;
  const double t1 = now_s();
  F3D_CHECK_MSG(!open_.empty() && open_.back() == id,
                "perfbench: spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].t1_s = t1;
}

f3d::obs::Json SpanLog::to_json(const std::string& run_id) const {
  using f3d::obs::Json;
  Json list = Json::array();
  for (const SpanRecord& s : spans_)
    list.push(Json::object()
                  .set("name", s.name)
                  .set("id", s.id)
                  .set("parent", s.parent)
                  .set("t0", s.t0_s)
                  .set("t1", s.t1_s)
                  .set("run", run_id));
  return Json::object().set("run", run_id).set("spans", std::move(list));
}

}  // namespace perfbench
