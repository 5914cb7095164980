// Per-layer attribution, taken from outside the engine: EngineStats
// counters read after each job, and the spans the engine already emits into
// its trace, cut to the window of one job call.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>

#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace perfbench {

// What one pass of a workload spent per layer: the engine's own counters,
// summed over the pass's jobs, plus what only the trace spans give. Times are
// seconds; task, fast-path and slow-path times are summed over workers.
struct LayerSample {
  gerenuk::EngineStats engine;
  double driver_self_s = 0;  // job wall time minus the union of stage spans
  int64_t stages = 0;
  double task_s = 0;
  double stage_s = 0;
  double idle_s = 0;  // stage span x workers minus task spans
  double fast_s = 0;
  double wasted_s = 0;  // fast-path time of attempts that aborted
  double slow_s = 0;
  int64_t slow_tasks = 0;
  int64_t gc_pauses = 0;

  LayerSample& operator+=(const LayerSample& o);
};

// Plan-op dispatches of the vector tier's batch opcodes.
int64_t VecDispatches(const gerenuk::EngineStats& stats);

// A phase's time in seconds.
double PhaseSeconds(const gerenuk::EngineStats& stats, gerenuk::Phase phase);

// Brackets one job call on one engine's trace clock: construct it right
// before the call and Close() it right after. A null trace (tracing off)
// makes every member a no-op.
class TraceWindow {
 public:
  explicit TraceWindow(gerenuk::Trace* trace)
      : trace_(trace), start_ns_(trace != nullptr ? trace->driver()->Now() : 0) {}

  void Close() {
    if (trace_ != nullptr) {
      end_ns_ = trace_->driver()->Now();
    }
  }

  // Adds the closed window's span-derived layers: driver self time, stage
  // count and time, task time, worker idle time, fast/slow path time, wasted
  // speculative time and GC pause count. `workers` is the engine's pool size.
  void AddTo(int workers, LayerSample* out) const;

 private:
  gerenuk::Trace* trace_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
