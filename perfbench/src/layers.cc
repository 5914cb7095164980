#include "perfbench/src/layers.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/exec/plan.h"

namespace perfbench {

using gerenuk::TraceEvent;
using gerenuk::TraceEventKind;
using gerenuk::TraceEventType;

LayerSample& LayerSample::operator+=(const LayerSample& o) {
  engine += o.engine;
  driver_self_s += o.driver_self_s;
  stages += o.stages;
  task_s += o.task_s;
  stage_s += o.stage_s;
  idle_s += o.idle_s;
  fast_s += o.fast_s;
  wasted_s += o.wasted_s;
  slow_s += o.slow_s;
  slow_tasks += o.slow_tasks;
  gc_pauses += o.gc_pauses;
  return *this;
}

int64_t VecDispatches(const gerenuk::EngineStats& stats) {
  int64_t total = 0;
  for (int op = 0; op < static_cast<int>(gerenuk::PlanOpCode::kCount); ++op) {
    if (gerenuk::IsVecOp(static_cast<gerenuk::PlanOpCode>(op))) {
      total += stats.plan_ops.dispatches[op];
    }
  }
  return total;
}

double PhaseSeconds(const gerenuk::EngineStats& stats, gerenuk::Phase phase) {
  return static_cast<double>(stats.times.Get(phase)) * 1e-9;
}

namespace {

bool IsSpan(const TraceEvent& ev, TraceEventType type) {
  return ev.type == type && ev.kind == TraceEventKind::kSpan;
}

// Total length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  for (const auto& [start, end] : intervals) {
    if (start > cur_end) {
      if (cur_end > cur_start) {
        total += cur_end - cur_start;
      }
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end > cur_start) {
    total += cur_end - cur_start;
  }
  return total;
}

}  // namespace

void TraceWindow::AddTo(int workers, LayerSample* out) const {
  if (trace_ == nullptr) {
    return;
  }
  const int64_t end_ns = end_ns_;
  std::vector<const TraceEvent*> in_window;
  for (const TraceEvent& ev : trace_->events()) {
    if (ev.ts_ns >= start_ns_ && ev.ts_ns <= end_ns) {
      in_window.push_back(&ev);
    }
  }

  std::vector<std::pair<int64_t, int64_t>> stages;
  std::vector<std::pair<int64_t, int64_t>> tasks;  // (start, duration)
  std::vector<const TraceEvent*> fast_spans;
  std::vector<const TraceEvent*> abort_instants;
  for (const TraceEvent* ev : in_window) {
    if (IsSpan(*ev, TraceEventType::kStage)) {
      stages.emplace_back(ev->ts_ns, ev->ts_ns + ev->dur_ns);
    } else if (IsSpan(*ev, TraceEventType::kTask)) {
      tasks.emplace_back(ev->ts_ns, ev->dur_ns);
      out->task_s += static_cast<double>(ev->dur_ns) * 1e-9;
    } else if (IsSpan(*ev, TraceEventType::kFastPath)) {
      fast_spans.push_back(ev);
      out->fast_s += static_cast<double>(ev->dur_ns) * 1e-9;
    } else if (IsSpan(*ev, TraceEventType::kSlowPath)) {
      out->slow_s += static_cast<double>(ev->dur_ns) * 1e-9;
      out->slow_tasks += 1;
    } else if (IsSpan(*ev, TraceEventType::kGcPause)) {
      out->gc_pauses += 1;
    } else if (ev->type == TraceEventType::kAbort) {
      abort_instants.push_back(ev);
    }
  }

  const int64_t window_ns = end_ns - start_ns_;
  out->driver_self_s += static_cast<double>(window_ns - UnionLength(stages)) * 1e-9;
  out->stages += static_cast<int64_t>(stages.size());

  // Worker idle time per stage: what the pool could have run during the
  // stage span minus what its task spans cover.
  std::sort(tasks.begin(), tasks.end());
  for (const auto& [start, end] : stages) {
    out->stage_s += static_cast<double>(end - start) * 1e-9;
    int64_t busy = 0;
    auto it = std::lower_bound(tasks.begin(), tasks.end(), std::make_pair(start, int64_t{0}));
    for (; it != tasks.end() && it->first <= end; ++it) {
      busy += it->second;
    }
    int64_t idle = static_cast<int64_t>(workers) * (end - start) - busy;
    out->idle_s += static_cast<double>(std::max<int64_t>(idle, 0)) * 1e-9;
  }

  // Wasted speculation: a fast-path span of the same worker and attempt
  // that encloses an abort instant (the engine emits the instant before
  // closing the span).
  std::vector<bool> counted(fast_spans.size(), false);
  for (const TraceEvent* abort : abort_instants) {
    for (size_t i = 0; i < fast_spans.size(); ++i) {
      const TraceEvent* span = fast_spans[i];
      if (!counted[i] && span->worker == abort->worker && span->task == abort->task &&
          span->attempt == abort->attempt && abort->ts_ns >= span->ts_ns &&
          abort->ts_ns <= span->ts_ns + span->dur_ns) {
        counted[i] = true;
        out->wasted_s += static_cast<double>(span->dur_ns) * 1e-9;
        break;
      }
    }
  }
}

}  // namespace perfbench
