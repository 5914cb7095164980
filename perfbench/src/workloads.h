// The benchmark's four workloads. Each generates its inputs from the seed,
// computes the reference results apart from the engine, builds its engines
// (the timed set-up), and runs passes of jobs through the public APIs of
// src/workloads, src/dataflow, src/mapreduce and src/service, checking every
// job's output against the references.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/layers.h"
#include "src/dataflow/dataset.h"
#include "src/exec/plan_cache.h"
#include "src/support/trace.h"

namespace perfbench {

struct JobRecord {
  const char* name = "";
  double latency_s = 0;
  std::string error;  // empty = the output matched the reference
};

struct PassRecord {
  std::vector<JobRecord> jobs;
  int64_t peak_tracked_bytes = 0;  // max engine MemoryTracker peak over the jobs
  int max_threads = 0;
  LayerSample layers;
  // service-mix only, one entry per job
  std::vector<double> queue_wait_ms;
  std::vector<double> exec_ms;
  std::vector<double> handoff_ms;
};

// The seed, and where the engines may write (shuffle spill files).
struct RunEnv {
  uint64_t seed = 1;
  std::string scratch_dir;
};

class ProbeEngines;

class Workload {
 public:
  virtual ~Workload() = default;

  // One line naming the workload's inputs and engine settings.
  virtual std::string Describe() const = 0;
  // Builds the engines and registers types and UDFs (the timed set-up).
  // `traced` turns on the engine trace and the sampled plan-op profiler.
  virtual void Setup(bool traced) = 0;
  // Destroys what Setup built; every engine thread has ended on return.
  virtual void Teardown() = 0;
  // Runs one pass of the workload's jobs and checks each output. `spans`
  // (null when untraced) receives one span per job call.
  virtual void RunPass(BenchSpans* spans, PassRecord* pass) = 0;
  // Engine traces of the current set-up (empty when untraced).
  virtual std::vector<const gerenuk::Trace*> Traces() const = 0;
  // Plan-cache lookups since Setup; zero for engines without a cache.
  virtual gerenuk::PlanCache::Stats PlanCacheStats() const { return {}; }

  // Spark UDFs the workload runs, by name (the compile probe).
  virtual std::vector<std::string> SparkUdfNames() const = 0;
  // One pass's input datasets, converted by `probe`'s engines the way the
  // jobs convert them.
  virtual std::vector<gerenuk::DatasetPtr> BuildInputs(ProbeEngines& probe) const = 0;
};

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, const RunEnv& env);

struct CompileProbe {
  double seconds = 0;    // median over repetitions of compiling every UDF
  int64_t plan_ops = 0;  // ops of the compiled plans
};
// Compiles each of the workload's Spark UDFs with the public
// CompileSingleFunction + CompilePlan, on engines built for the probe.
CompileProbe RunCompileProbe(const Workload& workload, const RunEnv& env, BenchSpans* spans);

struct InputProbe {
  int64_t bytes = 0;
  int64_t records = 0;
  double seal_ns_per_kb = 0;
  double verify_ns_per_kb = 0;
};
// Converts one pass's inputs with Source and times Seal/VerifyChecksum over
// every partition.
InputProbe RunInputProbe(const Workload& workload, const RunEnv& env, BenchSpans* spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
