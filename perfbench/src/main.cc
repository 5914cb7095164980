// perfbench_driver: runs one workload of the end-to-end benchmark.
//
//   perfbench_driver --workload spark-ml --seed 1 --seconds 10 --trace 0
//       [--scratch DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 makes
// the traced run that attributes a pass to layers (and measures, untraced,
// the baseline for the tracing overhead). Informational lines start with
// '#'; the last line of stdout is the JSON result. Exit status 1 means an
// output did not match its reference (or the run could not complete).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

// Set-ups per run; the median is reported.
constexpr int kSetupRepetitions = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".";
};

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n",
               problem);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value != "0";
      } else if (flag == "--scratch") {
        opt.scratch = value;
      } else {
        Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (opt.workload.empty()) {
    Usage("--workload is required");
  }
  if (!(opt.seconds > 0 && opt.seconds <= 60)) {
    Usage("--seconds must be in (0, 60]");
  }
  return opt;
}

struct SetupStats {
  double seconds = 0;  // median
  double faults = 0;   // median
  int max_threads = 0;
};

// Builds the workload's engines `repetitions` times (tearing down the
// previous build first) and leaves the last build in place.
SetupStats MeasureSetups(Workload& workload, bool traced, int repetitions, BenchSpans* spans) {
  std::vector<double> seconds;
  std::vector<double> faults;
  SetupStats out;
  for (int i = 0; i < repetitions; ++i) {
    if (i > 0) {
      workload.Teardown();
    }
    const int64_t faults_before = MinorFaults();
    const double start = WallSeconds();
    {
      ScopedBenchSpan span(spans, "setup");
      workload.Setup(traced);
    }
    seconds.push_back(WallSeconds() - start);
    faults.push_back(static_cast<double>(MinorFaults() - faults_before));
    out.max_threads = std::max(out.max_threads, ThreadCount());
  }
  out.seconds = Median(seconds);
  out.faults = Median(faults);
  return out;
}

struct PhaseStats {
  std::vector<PassRecord> passes;  // timed passes only
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> faults;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

void CountJobs(const PassRecord& pass, PhaseStats* phase) {
  for (const JobRecord& job : pass.jobs) {
    phase->attempted += 1;
    if (!job.error.empty()) {
      phase->failed += 1;
      if (phase->errors.size() < 5) {
        phase->errors.push_back(std::string(job.name) + ": " + job.error);
      }
    }
  }
}

// One checked warm-up pass, then whole timed passes until `seconds` elapse.
// `after_first` runs once after the first timed pass.
template <typename AfterFirst>
void RunPhase(Workload& workload, double seconds, BenchSpans* spans, PhaseStats* phase,
              AfterFirst&& after_first) {
  PassRecord warmup;
  workload.RunPass(spans, &warmup);
  CountJobs(warmup, phase);
  const double deadline = WallSeconds() + seconds;
  do {
    PassRecord pass;
    const int64_t faults_before = MinorFaults();
    const double cpu_before = ProcessCpuSeconds();
    const double start = WallSeconds();
    workload.RunPass(spans, &pass);
    phase->wall_s.push_back(WallSeconds() - start);
    phase->cpu_s.push_back(ProcessCpuSeconds() - cpu_before);
    phase->faults.push_back(static_cast<double>(MinorFaults() - faults_before));
    pass.max_threads = std::max(pass.max_threads, ThreadCount());
    CountJobs(pass, phase);
    phase->passes.push_back(std::move(pass));
    if (phase->passes.size() == 1) {
      after_first();
    }
  } while (WallSeconds() < deadline);
}

// Pass wall times as quartiles, to show the spread the medians hide.
void PrintPassTimes(const PhaseStats& phase) {
  std::vector<double> wall = phase.wall_s;
  std::sort(wall.begin(), wall.end());
  if (wall.empty()) {
    return;
  }
  auto at = [&](double q) {
    return wall[static_cast<size_t>(q * static_cast<double>(wall.size() - 1))];
  };
  std::printf("# pass wall s: min %.4f q1 %.4f median %.4f q3 %.4f max %.4f\n", at(0), at(0.25),
              at(0.5), at(0.75), at(1));
}

void ReportErrors(const PhaseStats& phase) {
  for (const std::string& error : phase.errors) {
    std::printf("# MISMATCH %s\n", error.c_str());
  }
}

std::vector<Metric> EndToEndMetrics(const SetupStats& setup, const PhaseStats& phase) {
  std::vector<double> latencies;
  std::vector<double> peaks;
  double jobs = 0;
  for (const PassRecord& pass : phase.passes) {
    for (const JobRecord& job : pass.jobs) {
      latencies.push_back(job.latency_s * 1e3);
    }
    jobs += static_cast<double>(pass.jobs.size());
    peaks.push_back(static_cast<double>(pass.peak_tracked_bytes));
  }
  double wall_total = 0;
  for (double w : phase.wall_s) {
    wall_total += w;
  }
  double tail = 0;
  double percentile = 0;
  if (Tail(latencies, &tail, &percentile)) {
    std::printf("# job_latency_tail_ms is p%.1f of %zu job latencies\n", percentile * 100,
                latencies.size());
  } else {
    for (double l : latencies) {
      tail = std::max(tail, l);
    }
    std::printf("# job_latency_tail_ms is the maximum: only %zu job latencies (< 40)\n",
                latencies.size());
  }
  return {
      {"setup_s", setup.seconds, "s"},
      {"job_s", Median(phase.wall_s), "s"},
      {"job_cpu_s", Median(phase.cpu_s), "s"},
      {"peak_tracked_bytes", Median(peaks), "bytes"},
      {"peak_rss_bytes", static_cast<double>(PeakRssBytes()), "bytes"},
      {"minor_faults", setup.faults + Median(phase.faults), "count"},
      {"jobs_per_s", wall_total > 0 ? jobs / wall_total : 0, "1/s"},
      {"job_latency_p50_ms", Median(latencies), "ms"},
      {"job_latency_tail_ms", tail, "ms"},
  };
}

// Median over passes of one layer value: a LayerSample member, or a function
// of the sample.
template <typename Field>
double MedianOf(const std::vector<PassRecord>& passes, Field field) {
  std::vector<double> values;
  for (const PassRecord& pass : passes) {
    values.push_back(static_cast<double>(std::invoke(field, pass.layers)));
  }
  return Median(values);
}

// A LayerSample accessor for one EngineStats counter.
template <typename T>
auto EngineField(T gerenuk::EngineStats::*field) {
  return [field](const LayerSample& s) { return s.engine.*field; };
}

// A LayerSample accessor for one phase's time, in seconds.
auto PhaseTime(gerenuk::Phase phase) {
  return [phase](const LayerSample& s) { return PhaseSeconds(s.engine, phase); };
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> PerLayerMetrics(const SetupStats& setup, const PhaseStats& untraced,
                                    const PhaseStats& traced, const CompileProbe& compile,
                                    const InputProbe& input,
                                    const gerenuk::PlanCache::Stats& cache,
                                    int64_t dropped_events, int max_threads) {
  const std::vector<PassRecord>& p = traced.passes;
  LayerSample total;
  std::vector<double> queue_wait;
  std::vector<double> exec;
  std::vector<double> handoff;
  for (const PassRecord& pass : p) {
    total += pass.layers;
    queue_wait.insert(queue_wait.end(), pass.queue_wait_ms.begin(), pass.queue_wait_ms.end());
    exec.insert(exec.end(), pass.exec_ms.begin(), pass.exec_ms.end());
    handoff.insert(handoff.end(), pass.handoff_ms.begin(), pass.handoff_ms.end());
  }
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  const double attempts =
      static_cast<double>(total.engine.fast_path_commits + total.engine.aborts);
  const double passes = static_cast<double>(p.size());
  const double shuffle_bytes = MedianOf(p, EngineField(&gerenuk::EngineStats::shuffle_bytes));
  return {
      {"driver.self_s", MedianOf(p, &LayerSample::driver_self_s), "s"},
      {"driver.stages", MedianOf(p, &LayerSample::stages), "count"},
      {"compile.s", compile.seconds, "s"},
      {"compile.plan_ops", static_cast<double>(compile.plan_ops), "count"},
      {"compile.plans", MedianOf(p, EngineField(&gerenuk::EngineStats::plans_compiled)), "count"},
      {"compile.stmts_transformed",
       MedianOf(p, [](const LayerSample& s) { return s.engine.transform.statements_transformed; }),
       "count"},
      {"compile.aborts_inserted",
       MedianOf(p, [](const LayerSample& s) { return s.engine.transform.aborts_inserted; }),
       "count"},
      {"plan_cache.hits", static_cast<double>(cache.hits), "count"},
      {"plan_cache.misses", static_cast<double>(cache.misses), "count"},
      {"plan_cache.hit_ratio", Ratio(static_cast<double>(cache.hits), lookups), "ratio"},
      {"sched.tasks", MedianOf(p, EngineField(&gerenuk::EngineStats::tasks_run)), "count"},
      {"sched.task_s", MedianOf(p, &LayerSample::task_s), "s"},
      {"sched.stage_s", MedianOf(p, &LayerSample::stage_s), "s"},
      {"sched.retries", MedianOf(p, EngineField(&gerenuk::EngineStats::retries)), "count"},
      {"sched.idle_s", MedianOf(p, &LayerSample::idle_s), "s"},
      {"fast.s", MedianOf(p, &LayerSample::fast_s), "s"},
      {"fast.commits", MedianOf(p, EngineField(&gerenuk::EngineStats::fast_path_commits)), "count"},
      {"plan.dispatches",
       MedianOf(p, [](const LayerSample& s) { return s.engine.plan_ops.total_dispatches(); }),
       "count"},
      {"plan.vec_dispatches",
       MedianOf(p, [](const LayerSample& s) { return VecDispatches(s.engine); }), "count"},
      {"spec.aborts", MedianOf(p, EngineField(&gerenuk::EngineStats::aborts)), "count"},
      {"spec.attempts", Ratio(attempts, passes), "count"},
      {"spec.wasted_s", MedianOf(p, &LayerSample::wasted_s), "s"},
      {"spec.yield", Ratio(static_cast<double>(total.engine.fast_path_commits), attempts), "ratio"},
      {"slow.s", MedianOf(p, &LayerSample::slow_s), "s"},
      {"slow.tasks", MedianOf(p, &LayerSample::slow_tasks), "count"},
      {"serde.ser_s", MedianOf(p, PhaseTime(gerenuk::Phase::kSerialize)), "s"},
      {"serde.deser_s", MedianOf(p, PhaseTime(gerenuk::Phase::kDeserialize)), "s"},
      {"runtime.gc_s", MedianOf(p, PhaseTime(gerenuk::Phase::kGc)), "s"},
      {"runtime.gc_pauses", MedianOf(p, &LayerSample::gc_pauses), "count"},
      {"runtime.setup_faults", setup.faults, "count"},
      {"nativebuf.input_bytes", static_cast<double>(input.bytes), "bytes"},
      {"nativebuf.seal_ns_per_kb", input.seal_ns_per_kb, "ns/KB"},
      {"nativebuf.verify_ns_per_kb", input.verify_ns_per_kb, "ns/KB"},
      {"shuffle.bytes", shuffle_bytes, "bytes"},
      {"shuffle.bytes_per_input_record",
       Ratio(shuffle_bytes, static_cast<double>(input.records)), "bytes"},
      {"shuffle.spill_blocks", MedianOf(p, EngineField(&gerenuk::EngineStats::spill_blocks)), "count"},
      {"shuffle.spill_bytes_stored",
       MedianOf(p, EngineField(&gerenuk::EngineStats::spill_bytes_stored)), "bytes"},
      {"shuffle.compress_ratio",
       Ratio(static_cast<double>(total.engine.spill_bytes_raw),
             static_cast<double>(total.engine.spill_bytes_stored)),
       "ratio"},
      {"shuffle.fetches", MedianOf(p, EngineField(&gerenuk::EngineStats::shuffle_fetches)), "count"},
      {"shuffle.backpressure_waits",
       MedianOf(p, EngineField(&gerenuk::EngineStats::fetch_backpressure_waits)), "count"},
      {"mr.spills", MedianOf(p, EngineField(&gerenuk::EngineStats::spills)), "count"},
      {"mr.combine_calls", MedianOf(p, EngineField(&gerenuk::EngineStats::combine_calls)), "count"},
      {"service.queue_wait_ms", Median(queue_wait), "ms"},
      {"service.exec_ms", Median(exec), "ms"},
      {"service.handoff_ms", Median(handoff), "ms"},
      {"trace.dropped_events", static_cast<double>(dropped_events), "count"},
      {"trace.overhead_ratio", Ratio(Median(traced.wall_s), Median(untraced.wall_s)), "ratio"},
      {"process.max_threads", static_cast<double>(max_threads), "count"},
  };
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

void WriteChromeTrace(const std::string& path, const gerenuk::Trace& trace) {
  std::ofstream out(path);
  gerenuk::TraceExporter(trace).WriteChromeJson(out);
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

int Run(const Options& opt) {
  RunEnv env{opt.seed, opt.scratch};
  std::unique_ptr<Workload> workload = MakeWorkload(opt.workload, env);
  if (workload == nullptr) {
    Usage(("unknown workload " + opt.workload).c_str());
  }
  std::printf("# %s seed=%" PRIu64 " trace=%d: %s\n", opt.workload.c_str(), opt.seed,
              opt.trace ? 1 : 0, workload->Describe().c_str());

  if (!opt.trace) {
    SetupStats setup = MeasureSetups(*workload, false, kSetupRepetitions, nullptr);
    PhaseStats phase;
    RunPhase(*workload, opt.seconds, nullptr, &phase, [] {});
    workload->Teardown();
    std::printf("# %zu timed passes, %" PRId64 " jobs checked\n", phase.passes.size(),
                phase.attempted);
    PrintPassTimes(phase);
    ReportErrors(phase);
    std::printf("%s\n", ResultJson(phase.failed == 0, phase.attempted, phase.failed,
                                   EndToEndMetrics(setup, phase))
                            .c_str());
    return phase.failed == 0 ? 0 : 1;
  }

  // Traced run: an untraced half for the overhead baseline, then a traced
  // half that the per-layer metrics come from, then the probes.
  BenchSpans spans;
  const std::string prefix = opt.scratch + "/" + opt.workload;
  SetupStats setup = MeasureSetups(*workload, false, kSetupRepetitions, nullptr);
  PhaseStats untraced;
  RunPhase(*workload, opt.seconds / 2, nullptr, &untraced, [] {});
  workload->Teardown();

  SetupStats traced_setup = MeasureSetups(*workload, true, 1, &spans);
  PhaseStats traced;
  RunPhase(*workload, opt.seconds / 2, &spans, &traced, [&] {
    std::vector<const gerenuk::Trace*> traces = workload->Traces();
    for (size_t i = 0; i < traces.size(); ++i) {
      WriteChromeTrace(prefix + "-engine" + std::to_string(i) + ".trace.json", *traces[i]);
    }
  });
  int64_t dropped = 0;
  for (const gerenuk::Trace* trace : workload->Traces()) {
    dropped += trace->dropped_events();
  }
  const gerenuk::PlanCache::Stats cache = workload->PlanCacheStats();
  int max_threads = std::max(setup.max_threads, traced_setup.max_threads);
  for (const PhaseStats* phase : {&untraced, &traced}) {
    for (const PassRecord& pass : phase->passes) {
      max_threads = std::max(max_threads, pass.max_threads);
    }
  }
  workload->Teardown();

  CompileProbe compile = RunCompileProbe(*workload, env, &spans);
  InputProbe input = RunInputProbe(*workload, env, &spans);
  WriteChromeTrace(prefix + "-bench.trace.json", spans.trace());

  const int64_t attempted = untraced.attempted + traced.attempted;
  const int64_t failed = untraced.failed + traced.failed;
  std::printf("# %zu untraced + %zu traced passes, %" PRId64 " jobs checked\n",
              untraced.passes.size(), traced.passes.size(), attempted);
  ReportErrors(untraced);
  ReportErrors(traced);
  std::string result =
      ResultJson(failed == 0, attempted, failed,
                 PerLayerMetrics(setup, untraced, traced, compile, input, cache, dropped,
                                 max_threads));
  WriteFile(prefix + "-layers.json", result + "\n");
  std::printf("# traces and layers written under %s-*\n", prefix.c_str());
  std::printf("%s\n", result.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt = perfbench::ParseOptions(argc, argv);
  try {
    return perfbench::Run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
