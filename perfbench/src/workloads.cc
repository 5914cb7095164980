#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "perfbench/src/reference.h"
#include "src/dataflow/spark.h"
#include "src/exec/plan.h"
#include "src/mapreduce/hadoop.h"
#include "src/service/engine_service.h"
#include "src/workloads/datagen.h"
#include "src/workloads/hadoop_workloads.h"
#include "src/workloads/spark_workloads.h"

namespace perfbench {

using gerenuk::DatasetPtr;
using gerenuk::EngineConfig;
using gerenuk::HadoopConfig;
using gerenuk::HadoopEngine;
using gerenuk::HadoopWorkloads;
using gerenuk::Heap;
using gerenuk::Klass;
using gerenuk::ObjRef;
using gerenuk::RootScope;
using gerenuk::SparkEngine;
using gerenuk::SparkWorkloads;
using gerenuk::SyntheticLabeledPoints;
using gerenuk::SyntheticPoints;
using gerenuk::SyntheticPost;
using gerenuk::WorkloadResult;

namespace {

// Trace ring per worker, sized so no workload drops events within a stage
// (the rings drain at every stage barrier); and the plan-op sampling stride.
constexpr size_t kTraceRingEvents = size_t{1} << 18;
constexpr int64_t kProfileStride = 64;

// Independent input streams per workload, derived from the one --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream;
}

// Every Spark shuffle opens a spill file (unlinked at once) even when nothing
// spills, so `scratch_dir` keeps those files inside the benchmark's tree.
EngineConfig EngineSettings(int workers, int partitions, size_t heap_bytes, bool traced,
                            const std::string& scratch_dir) {
  EngineConfig config;
  config.execution.mode = gerenuk::EngineMode::kGerenuk;
  config.execution.num_workers = workers;
  config.execution.num_partitions = partitions;
  config.execution.heap_bytes = heap_bytes;
  config.shuffle.shuffle_spill_dir = scratch_dir;
  if (traced) {
    config.observability.trace = true;
    config.observability.trace_buffer_events = kTraceRingEvents;
    config.observability.plan_profile_stride = kProfileStride;
  }
  return config;
}

std::vector<PostLike> PostFacts(const std::vector<SyntheticPost>& posts) {
  std::vector<PostLike> facts;
  facts.reserve(posts.size());
  for (const SyntheticPost& p : posts) {
    facts.push_back({p.user_id, p.topic, p.score, static_cast<int64_t>(p.text.size())});
  }
  return facts;
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) {
    total += v;
  }
  return total;
}

// --- Source conversions ------------------------------------------------------
// The same records the SparkWorkloads drivers build, for the jobs the
// benchmark drives itself (to see per-key outputs) and for the input probe.

DatasetPtr SourcePoints(SparkEngine& engine, const SparkWorkloads& wl,
                        const SyntheticPoints& data) {
  Heap& heap = engine.heap();
  const Klass* f64_array = heap.klasses().Find("f64[]");
  const Klass* point = wl.point;
  return engine.Source(point, static_cast<int64_t>(data.values.size()),
                       [&](int64_t i, RootScope& scope) {
                         const auto& value = data.values[static_cast<size_t>(i)];
                         size_t arr = scope.Push(heap.AllocArray(f64_array, value.size()));
                         for (size_t d = 0; d < value.size(); ++d) {
                           heap.ASet<double>(scope.Get(arr), static_cast<int64_t>(d), value[d]);
                         }
                         ObjRef rec = heap.AllocObject(point);
                         heap.SetPrim<int32_t>(rec, point->FindField("numActives")->offset,
                                               static_cast<int32_t>(value.size()));
                         heap.SetRef(rec, point->FindField("values")->offset, scope.Get(arr));
                         return rec;
                       });
}

DatasetPtr SourceLabeledPoints(SparkEngine& engine, const SparkWorkloads& wl,
                               const SyntheticLabeledPoints& data) {
  Heap& heap = engine.heap();
  const Klass* f64_array = heap.klasses().Find("f64[]");
  const Klass* dense = wl.dense_vector;
  const Klass* labeled = wl.labeled_point;
  return engine.Source(
      labeled, static_cast<int64_t>(data.features.size()), [&](int64_t i, RootScope& scope) {
        const auto& feature = data.features[static_cast<size_t>(i)];
        size_t arr = scope.Push(heap.AllocArray(f64_array, feature.size()));
        for (size_t d = 0; d < feature.size(); ++d) {
          heap.ASet<double>(scope.Get(arr), static_cast<int64_t>(d), feature[d]);
        }
        size_t vec = scope.Push(heap.AllocObject(dense));
        heap.SetPrim<int32_t>(scope.Get(vec), dense->FindField("numActives")->offset,
                              static_cast<int32_t>(feature.size()));
        heap.SetRef(scope.Get(vec), dense->FindField("values")->offset, scope.Get(arr));
        ObjRef rec = heap.AllocObject(labeled);
        heap.SetPrim<double>(rec, labeled->FindField("label")->offset,
                             data.labels[static_cast<size_t>(i)]);
        heap.SetRef(rec, labeled->FindField("features")->offset, scope.Get(vec));
        return rec;
      });
}

DatasetPtr SourceLines(SparkEngine& engine, const SparkWorkloads& wl,
                       const std::vector<std::string>& lines) {
  Heap& heap = engine.heap();
  const Klass* line = wl.line;
  return engine.Source(line, static_cast<int64_t>(lines.size()),
                       [&](int64_t i, RootScope& scope) {
                         size_t s = scope.Push(
                             engine.wk().AllocString(lines[static_cast<size_t>(i)]));
                         ObjRef rec = heap.AllocObject(line);
                         heap.SetRef(rec, line->FindField("text")->offset, scope.Get(s));
                         return rec;
                       });
}

// One single-post Account per post, as SparkWorkloads::RunAccountGrouping
// builds them: capacity `initial_capacity`, the post's text length first.
DatasetPtr SourceAccounts(SparkEngine& engine, const SparkWorkloads& wl,
                          const std::vector<SyntheticPost>& posts, int64_t initial_capacity) {
  Heap& heap = engine.heap();
  const Klass* i64_array = heap.klasses().Find("i64[]");
  const Klass* account = wl.account;
  return engine.Source(
      account, static_cast<int64_t>(posts.size()), [&](int64_t i, RootScope& scope) {
        const SyntheticPost& post = posts[static_cast<size_t>(i)];
        size_t arr = scope.Push(heap.AllocArray(i64_array, initial_capacity));
        heap.ASet<int64_t>(scope.Get(arr), 0, static_cast<int64_t>(post.text.size()));
        ObjRef rec = heap.AllocObject(account);
        heap.SetPrim<int64_t>(rec, account->FindField("user")->offset, post.user_id);
        heap.SetPrim<int64_t>(rec, account->FindField("size")->offset, 1);
        heap.SetPrim<int64_t>(rec, account->FindField("capacity")->offset, initial_capacity);
        heap.SetRef(rec, account->FindField("lengths")->offset, scope.Get(arr));
        return rec;
      });
}

// --- Output checks ------------------------------------------------------------

std::string Mismatch(const char* what, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: got %.17g, reference %.17g", what, got, want);
  return buf;
}

// Centres (KMeans) and weights (LR) are checked only by the sum of all their
// coordinates, the one value the workload reports, so errors that cancel out
// (coordinates swapped between centres) pass. Merge order differs from the
// reference's, hence the tolerance.
std::string CheckFloatSum(const WorkloadResult& r, double want) {
  if (!NearlyEqual(r.checksum, want)) {
    return Mismatch("sum", r.checksum, want);
  }
  return "";
}

// Integer outputs reported as (sum over keys, number of keys): exact.
std::string CheckCounts(const WorkloadResult& r, int64_t want_sum, int64_t want_keys) {
  if (r.checksum != static_cast<double>(want_sum)) {
    return Mismatch("sum", r.checksum, static_cast<double>(want_sum));
  }
  if (r.records != want_keys) {
    return Mismatch("keys", static_cast<double>(r.records), static_cast<double>(want_keys));
  }
  return "";
}

std::string CheckWordCounts(const std::vector<std::pair<std::string, int64_t>>& got,
                            const WordCounts& ref) {
  std::map<std::string, int64_t> seen;
  int64_t tokens = 0;
  for (const auto& [word, count] : got) {
    if (!seen.emplace(word, count).second) {
      return "word '" + word + "' appears twice in the output";
    }
    auto it = ref.counts.find(word);
    if (it == ref.counts.end()) {
      return "word '" + word + "' is not in the input";
    }
    if (it->second != count) {
      return "word '" + word + "': " + Mismatch("count", static_cast<double>(count),
                                                static_cast<double>(it->second));
    }
    tokens += count;
  }
  if (seen.size() != ref.counts.size()) {
    return Mismatch("distinct words", static_cast<double>(seen.size()),
                    static_cast<double>(ref.counts.size()));
  }
  if (tokens != ref.tokens) {
    return Mismatch("sum of word counts vs tokens generated", static_cast<double>(tokens),
                    static_cast<double>(ref.tokens));
  }
  return "";
}

struct AccountOut {
  int64_t user;
  int64_t size;
  int64_t length_sum;
};

std::string CheckAccounts(const std::vector<AccountOut>& got, const UserGroups& ref) {
  std::map<int64_t, bool> seen;
  int64_t posts = 0;
  for (const AccountOut& a : got) {
    if (!seen.emplace(a.user, true).second) {
      return "user " + std::to_string(a.user) + " has two account groups";
    }
    auto it = ref.posts.find(a.user);
    if (it == ref.posts.end()) {
      return "user " + std::to_string(a.user) + " has no posts";
    }
    if (a.size != it->second) {
      return "user " + std::to_string(a.user) + ": " +
             Mismatch("group size", static_cast<double>(a.size),
                      static_cast<double>(it->second));
    }
    if (a.length_sum != ref.length_sum.at(a.user)) {
      return "user " + std::to_string(a.user) + ": " +
             Mismatch("sum of post lengths", static_cast<double>(a.length_sum),
                      static_cast<double>(ref.length_sum.at(a.user)));
    }
    posts += a.size;
  }
  if (seen.size() != ref.posts.size()) {
    return Mismatch("distinct users", static_cast<double>(seen.size()),
                    static_cast<double>(ref.posts.size()));
  }
  if (posts != ref.total_posts) {
    return Mismatch("sum of account sizes vs posts", static_cast<double>(posts),
                    static_cast<double>(ref.total_posts));
  }
  return "";
}

int64_t SumOf(const std::map<int64_t, int64_t>& m) {
  int64_t total = 0;
  for (const auto& [k, v] : m) {
    total += v;
  }
  return total;
}

// Times `run` as one job (recording a span when traced), then records the
// error `check` returns. A job that throws counts as failed with the
// exception's message.
template <typename Run, typename Check>
void TimedJob(BenchSpans* spans, const char* name, PassRecord* pass, Run&& run, Check&& check) {
  JobRecord job;
  job.name = name;
  const int64_t span_start = spans != nullptr ? spans->Now() : 0;
  const double start = WallSeconds();
  try {
    run();
    job.latency_s = WallSeconds() - start;
    if (spans != nullptr) {
      spans->End(name, span_start);
    }
    job.error = check();
  } catch (const std::exception& e) {
    job.latency_s = WallSeconds() - start;
    job.error = std::string("threw: ") + e.what();
  }
  pass->jobs.push_back(std::move(job));
}

// Reads one collected WordCount/Account output per record, inside the
// timed job (as the workload drivers read theirs).
std::vector<std::pair<std::string, int64_t>> CollectWordCounts(SparkEngine& engine,
                                                               const SparkWorkloads& wl,
                                                               const DatasetPtr& counts) {
  Heap& heap = engine.heap();
  const int word_at = wl.word_count->FindField("word")->offset;
  const int count_at = wl.word_count->FindField("count")->offset;
  std::vector<std::pair<std::string, int64_t>> out;
  RootScope scope(heap);
  for (size_t slot : engine.CollectToHeap(counts, scope)) {
    ObjRef rec = scope.Get(slot);
    out.emplace_back(engine.wk().GetString(heap.GetRef(rec, word_at)),
                     heap.GetPrim<int64_t>(rec, count_at));
  }
  return out;
}

std::vector<AccountOut> CollectAccounts(SparkEngine& engine, const SparkWorkloads& wl,
                                        const DatasetPtr& grouped) {
  Heap& heap = engine.heap();
  const Klass* account = wl.account;
  const int user_at = account->FindField("user")->offset;
  const int size_at = account->FindField("size")->offset;
  const int lengths_at = account->FindField("lengths")->offset;
  std::vector<AccountOut> out;
  RootScope scope(heap);
  for (size_t slot : engine.CollectToHeap(grouped, scope)) {
    ObjRef rec = scope.Get(slot);
    AccountOut a{heap.GetPrim<int64_t>(rec, user_at), heap.GetPrim<int64_t>(rec, size_at), 0};
    ObjRef lengths = heap.GetRef(rec, lengths_at);
    for (int64_t i = 0; i < a.size && i < heap.ArrayLength(lengths); ++i) {
      a.length_sum += heap.AGet<int64_t>(lengths, i);
    }
    out.push_back(a);
  }
  return out;
}

// Runs one job on `engine` inside a trace window, then folds its stats and
// trace window into `layers` and its memory peak into `peak` (a maximum).
template <typename Engine, typename Body>
void EngineJob(Engine& engine, LayerSample* layers, int64_t* peak, Body&& body) {
  TraceWindow window(engine.trace());
  body();
  window.Close();
  layers->engine += engine.stats();
  window.AddTo(engine.num_workers(), layers);
  *peak = std::max(*peak, engine.peak_memory_bytes());
}

}  // namespace

// Engines built only for the compile and input probes: one worker each (no
// worker threads) and no trace.
class ProbeEngines {
 public:
  explicit ProbeEngines(const std::string& scratch_dir)
      : spark(EngineSettings(1, 8, 64u << 20, false, scratch_dir)),
        spark_workloads(spark),
        hadoop(HadoopSettings(scratch_dir)),
        hadoop_workloads(hadoop) {}

  SparkEngine spark;
  SparkWorkloads spark_workloads;
  HadoopEngine hadoop;
  HadoopWorkloads hadoop_workloads;

 private:
  static HadoopConfig HadoopSettings(const std::string& scratch_dir) {
    HadoopConfig config;
    config.engine = EngineSettings(1, 8, 64u << 20, false, scratch_dir);
    return config;
  }
};

namespace {

// ---------------------------------------------------------------------------
// spark-ml: KMeans + LogisticRegression, dispatch over counted feature loops
// ---------------------------------------------------------------------------

class SparkMl : public Workload {
 public:
  // LR gets more points than KMeans so that both jobs take about as long:
  // with two job lengths in equal numbers, the median job latency would fall
  // in the gap between them and jump from run to run.
  static constexpr int64_t kKMeansPoints = 15000;
  static constexpr int64_t kLogisticPoints = 22000;
  static constexpr int kDim = 10;
  static constexpr int kClusters = 5;
  static constexpr int kIterations = 10;
  static constexpr double kRate = 0.5;
  static constexpr int kWorkers = 2;
  static constexpr int kPartitions = 8;
  static constexpr size_t kHeapBytes = 64u << 20;

  explicit SparkMl(const RunEnv& env)
      : scratch_dir_(env.scratch_dir),
        points_(gerenuk::MakeClusteredPoints(kKMeansPoints, kDim, kClusters,
                                             SubSeed(env.seed, 1))),
        labeled_(gerenuk::MakeLabeledPoints(kLogisticPoints, kDim, SubSeed(env.seed, 2))),
        centre_sum_(Sum(KMeansCentres(points_.values, kClusters, kIterations))),
        weight_sum_(
            Sum(LogisticWeights(labeled_.features, labeled_.labels, kIterations, kRate))) {}

  std::string Describe() const override {
    return "KMeans k=5 over 15000 clustered and LR over 22000 labeled 10-feature points, "
           "10 iterations each; 2 workers, 8 partitions, 64 MiB heaps, resident shuffle";
  }

  void Setup(bool traced) override {
    engine_ = std::make_unique<SparkEngine>(
        EngineSettings(kWorkers, kPartitions, kHeapBytes, traced, scratch_dir_));
    workloads_ = std::make_unique<SparkWorkloads>(*engine_);
  }

  void Teardown() override {
    workloads_.reset();
    engine_.reset();
  }

  void RunPass(BenchSpans* spans, PassRecord* pass) override {
    if (engine_->trace() != nullptr) {
      engine_->trace()->ResetMerged();
    }
    WorkloadResult km;
    TimedJob(
        spans, "spark-ml/kmeans", pass,
        [&] {
          EngineJob(*engine_, &pass->layers, &pass->peak_tracked_bytes,
                    [&] { km = workloads_->RunKMeans(points_, kClusters, kIterations); });
        },
        [&] { return CheckFloatSum(km, centre_sum_); });
    WorkloadResult lr;
    TimedJob(
        spans, "spark-ml/logistic-regression", pass,
        [&] {
          EngineJob(*engine_, &pass->layers, &pass->peak_tracked_bytes, [&] {
            lr = workloads_->RunLogisticRegression(labeled_, kIterations, kRate);
          });
        },
        [&] { return CheckFloatSum(lr, weight_sum_); });
  }

  std::vector<const gerenuk::Trace*> Traces() const override {
    if (engine_ == nullptr || engine_->trace() == nullptr) {
      return {};
    }
    return {engine_->trace()};
  }

  std::vector<std::string> SparkUdfNames() const override {
    return {"km_assign", "km_key", "km_merge", "lr_grad", "lr_key", "lr_add"};
  }

  std::vector<DatasetPtr> BuildInputs(ProbeEngines& probe) const override {
    return {SourcePoints(probe.spark, probe.spark_workloads, points_),
            SourceLabeledPoints(probe.spark, probe.spark_workloads, labeled_)};
  }

 private:
  std::string scratch_dir_;
  SyntheticPoints points_;
  SyntheticLabeledPoints labeled_;
  double centre_sum_;
  double weight_sum_;
  std::unique_ptr<SparkEngine> engine_;
  std::unique_ptr<SparkWorkloads> workloads_;
};

// ---------------------------------------------------------------------------
// text-shuffle: string keys, spilling Spark shuffle, spilling Hadoop sort
// ---------------------------------------------------------------------------

class TextShuffle : public Workload {
 public:
  static constexpr int64_t kLines = 6000;
  static constexpr int kWordsPerLine = 12;
  static constexpr int kVocabulary = 3000;
  static constexpr int64_t kPosts = 15000;
  static constexpr int64_t kUsers = 1500;
  static constexpr int kTopics = 16;
  static constexpr int kSparkWorkers = 2;
  static constexpr int kHadoopWorkers = 1;
  static constexpr int kPartitions = 8;
  static constexpr int kReducers = 2;
  static constexpr size_t kHeapBytes = 64u << 20;
  static constexpr size_t kSortBufferBytes = 128u << 10;

  explicit TextShuffle(const RunEnv& env)
      : scratch_dir_(env.scratch_dir),
        lines_(gerenuk::MakeTextLines(kLines, kWordsPerLine, kVocabulary, SubSeed(env.seed, 3))),
        posts_(gerenuk::MakePosts(kPosts, kUsers, kTopics, SubSeed(env.seed, 4))),
        words_(CountWords(lines_)),
        users_(GroupByUser(PostFacts(posts_))),
        best_scores_(BestScorePerTopic(PostFacts(posts_))) {}

  std::string Describe() const override {
    return "Spark WordCount over 6000 Zipfian lines (12 words, vocabulary 3000), resident "
           "shuffle; Hadoop IMC, TFC over the same lines and IUF, CED over "
           "15000 posts by 1500 users, 128 KiB sort buffer, 2 reducers; Spark 2 workers, "
           "Hadoop 1 worker, 8 partitions, 64 MiB heaps";
  }

  void Setup(bool traced) override {
    // The Spark shuffle stays resident: with a spill threshold below its
    // volume, ReduceByKey reads records of spilled blocks after the fetched
    // blocks are freed (see the README), so no seed-independent spilling
    // run exists.
    spark_ = std::make_unique<SparkEngine>(
        EngineSettings(kSparkWorkers, kPartitions, kHeapBytes, traced, scratch_dir_));
    spark_workloads_ = std::make_unique<SparkWorkloads>(*spark_);
    HadoopConfig hadoop;
    hadoop.engine = EngineSettings(kHadoopWorkers, kPartitions, kHeapBytes, traced, scratch_dir_);
    hadoop.num_reducers = kReducers;
    hadoop.sort_buffer_bytes = kSortBufferBytes;
    hadoop_ = std::make_unique<HadoopEngine>(hadoop);
    hadoop_workloads_ = std::make_unique<HadoopWorkloads>(*hadoop_);
  }

  void Teardown() override {
    hadoop_workloads_.reset();
    hadoop_.reset();
    spark_workloads_.reset();
    spark_.reset();
  }

  void RunPass(BenchSpans* spans, PassRecord* pass) override {
    for (gerenuk::Trace* trace : {spark_->trace(), hadoop_->trace()}) {
      if (trace != nullptr) {
        trace->ResetMerged();
      }
    }
    // Spark WordCount, driven here (not through RunWordCount) so that every
    // (word, count) output can be checked.
    std::vector<std::pair<std::string, int64_t>> counts;
    TimedJob(
        spans, "text-shuffle/spark-wordcount", pass,
        [&] {
          EngineJob(*spark_, &pass->layers, &pass->peak_tracked_bytes, [&] {
            DatasetPtr input = SourceLines(*spark_, *spark_workloads_, lines_);
            spark_->ResetMetrics();
            const gerenuk::SerProgram& udfs = spark_workloads_->udfs();
            DatasetPtr out = spark_->ReduceByKey(
                input, udfs,
                {gerenuk::NarrowOp::FlatMap(udfs.FindFunction("wc_tokenize"),
                                            spark_workloads_->word_count)},
                gerenuk::KeySpec{udfs.FindFunction("wc_key"), true},
                udfs.FindFunction("wc_sum"));
            counts = CollectWordCounts(*spark_, *spark_workloads_, out);
          });
        },
        [&] { return CheckWordCounts(counts, words_); });

    const int64_t distinct_words = static_cast<int64_t>(words_.counts.size());
    DatasetPtr text;
    WorkloadResult imc;
    TimedJob(
        spans, "text-shuffle/hadoop-imc", pass,
        [&] {
          EngineJob(*hadoop_, &pass->layers, &pass->peak_tracked_bytes, [&] {
            text = hadoop_workloads_->MakeTextInput(lines_);
            imc = hadoop_workloads_->RunImc(text);
          });
        },
        [&] { return CheckCounts(imc, words_.tokens, distinct_words); });
    WorkloadResult tfc;
    TimedJob(
        spans, "text-shuffle/hadoop-tfc", pass,
        [&] {
          EngineJob(*hadoop_, &pass->layers, &pass->peak_tracked_bytes,
                    [&] { tfc = hadoop_workloads_->RunTfc(text); });
        },
        [&] { return CheckCounts(tfc, words_.tokens, distinct_words); });
    text.reset();

    DatasetPtr posts;
    WorkloadResult iuf;
    TimedJob(
        spans, "text-shuffle/hadoop-iuf", pass,
        [&] {
          EngineJob(*hadoop_, &pass->layers, &pass->peak_tracked_bytes, [&] {
            posts = hadoop_workloads_->MakePostInput(posts_);
            iuf = hadoop_workloads_->RunIuf(posts);
          });
        },
        [&] {
          return CheckCounts(iuf, users_.total_posts, static_cast<int64_t>(users_.posts.size()));
        });
    WorkloadResult ced;
    TimedJob(
        spans, "text-shuffle/hadoop-ced", pass,
        [&] {
          EngineJob(*hadoop_, &pass->layers, &pass->peak_tracked_bytes,
                    [&] { ced = hadoop_workloads_->RunCed(posts); });
        },
        [&] {
          return CheckCounts(ced, SumOf(best_scores_),
                             static_cast<int64_t>(best_scores_.size()));
        });
  }

  std::vector<const gerenuk::Trace*> Traces() const override {
    std::vector<const gerenuk::Trace*> traces;
    if (spark_ != nullptr && spark_->trace() != nullptr) {
      traces.push_back(spark_->trace());
    }
    if (hadoop_ != nullptr && hadoop_->trace() != nullptr) {
      traces.push_back(hadoop_->trace());
    }
    return traces;
  }

  std::vector<std::string> SparkUdfNames() const override {
    return {"wc_tokenize", "wc_key", "wc_sum"};
  }

  std::vector<DatasetPtr> BuildInputs(ProbeEngines& probe) const override {
    return {SourceLines(probe.spark, probe.spark_workloads, lines_),
            probe.hadoop_workloads.MakeTextInput(lines_),
            probe.hadoop_workloads.MakePostInput(posts_)};
  }

 private:
  std::string scratch_dir_;
  std::vector<std::string> lines_;
  std::vector<SyntheticPost> posts_;
  WordCounts words_;
  UserGroups users_;
  std::map<int64_t, int64_t> best_scores_;
  std::unique_ptr<SparkEngine> spark_;
  std::unique_ptr<SparkWorkloads> spark_workloads_;
  std::unique_ptr<HadoopEngine> hadoop_;
  std::unique_ptr<HadoopWorkloads> hadoop_workloads_;
};

// ---------------------------------------------------------------------------
// so-aborts: AccountGrouping whose resize violation aborts the reduce tasks
// ---------------------------------------------------------------------------

class SoAborts : public Workload {
 public:
  static constexpr int64_t kPosts = 12000;
  static constexpr int64_t kUsers = 1200;
  static constexpr int kTopics = 8;
  static constexpr int64_t kInitialCapacity = 4;
  static constexpr int kWorkers = 2;
  static constexpr int kPartitions = 8;
  static constexpr size_t kHeapBytes = 64u << 20;

  explicit SoAborts(const RunEnv& env)
      : scratch_dir_(env.scratch_dir),
        posts_(gerenuk::MakePosts(kPosts, kUsers, kTopics, SubSeed(env.seed, 5))),
        users_(GroupByUser(PostFacts(posts_))) {}

  std::string Describe() const override {
    return "Spark AccountGrouping (Fig. 10a) over 12000 long-tailed posts by 1200 users, "
           "initial capacity 4; 2 workers, 8 partitions, 64 MiB heaps";
  }

  void Setup(bool traced) override {
    engine_ = std::make_unique<SparkEngine>(
        EngineSettings(kWorkers, kPartitions, kHeapBytes, traced, scratch_dir_));
    workloads_ = std::make_unique<SparkWorkloads>(*engine_);
  }

  void Teardown() override {
    workloads_.reset();
    engine_.reset();
  }

  void RunPass(BenchSpans* spans, PassRecord* pass) override {
    if (engine_->trace() != nullptr) {
      engine_->trace()->ResetMerged();
    }
    // Driven here (not through RunAccountGrouping) so that every account
    // group's size and contents can be checked.
    std::vector<AccountOut> accounts;
    TimedJob(
        spans, "so-aborts/account-grouping", pass,
        [&] {
          EngineJob(*engine_, &pass->layers, &pass->peak_tracked_bytes, [&] {
            DatasetPtr singles =
                SourceAccounts(*engine_, *workloads_, posts_, kInitialCapacity);
            engine_->ResetMetrics();
            const gerenuk::SerProgram& udfs = workloads_->udfs();
            DatasetPtr grouped = engine_->ReduceByKey(
                singles, udfs, {}, gerenuk::KeySpec{udfs.FindFunction("acct_key"), false},
                udfs.FindFunction("acct_merge"));
            accounts = CollectAccounts(*engine_, *workloads_, grouped);
          });
        },
        [&] { return CheckAccounts(accounts, users_); });
  }

  std::vector<const gerenuk::Trace*> Traces() const override {
    if (engine_ == nullptr || engine_->trace() == nullptr) {
      return {};
    }
    return {engine_->trace()};
  }

  std::vector<std::string> SparkUdfNames() const override { return {"acct_key", "acct_merge"}; }

  std::vector<DatasetPtr> BuildInputs(ProbeEngines& probe) const override {
    return {SourceAccounts(probe.spark, probe.spark_workloads, posts_, kInitialCapacity)};
  }

 private:
  std::string scratch_dir_;
  std::vector<SyntheticPost> posts_;
  UserGroups users_;
  std::unique_ptr<SparkEngine> engine_;
  std::unique_ptr<SparkWorkloads> workloads_;
};

// ---------------------------------------------------------------------------
// service-mix: two closed-loop tenants over a two-slot EngineService
// ---------------------------------------------------------------------------

class ServiceMix : public Workload {
 public:
  static constexpr int64_t kPoints = 6000;
  static constexpr int kDim = 10;
  static constexpr int kClusters = 5;
  static constexpr int kIterations = 3;
  static constexpr double kRate = 0.5;
  static constexpr int64_t kLines = 1200;
  static constexpr int kWordsPerLine = 10;
  static constexpr int kVocabulary = 500;
  static constexpr int64_t kPosts = 4500;
  static constexpr int64_t kUsers = 450;
  static constexpr int kSlots = 2;
  static constexpr int kPartitions = 4;
  static constexpr size_t kHeapBytes = 32u << 20;

  explicit ServiceMix(const RunEnv& env)
      : scratch_dir_(env.scratch_dir),
        points_(gerenuk::MakeClusteredPoints(kPoints, kDim, kClusters, SubSeed(env.seed, 6))),
        labeled_(gerenuk::MakeLabeledPoints(kPoints, kDim, SubSeed(env.seed, 7))),
        lines_(gerenuk::MakeTextLines(kLines, kWordsPerLine, kVocabulary, SubSeed(env.seed, 8))),
        posts_(gerenuk::MakePosts(kPosts, kUsers, 4, SubSeed(env.seed, 9))),
        centre_sum_(Sum(KMeansCentres(points_.values, kClusters, kIterations))),
        weight_sum_(
            Sum(LogisticWeights(labeled_.features, labeled_.labels, kIterations, kRate))),
        words_(CountWords(lines_)),
        users_(GroupByUser(PostFacts(posts_))) {}

  std::string Describe() const override {
    return "EngineService, 2 slots of 1-worker Spark+Hadoop engines (4 partitions, 32 MiB "
           "heaps); 2 closed-loop tenants, each round KMeans and LR (6000 points, 3 "
           "iterations), WordCount (1200 lines) and IUF (4500 posts)";
  }

  ~ServiceMix() override { Teardown(); }

  void Setup(bool traced) override {
    gerenuk::ServiceConfig config;
    config.engine = EngineSettings(1, kPartitions, kHeapBytes, traced, scratch_dir_);
    config.num_engines = kSlots;
    config.setup = [this](gerenuk::EngineContext& ctx) -> std::shared_ptr<void> {
      // Runs on the constructing thread, before the dispatchers start. (A
      // breaker rebuild would re-run it on a dispatcher; none happens, since
      // no job fails.)
      slot_engines_.emplace_back(ctx.spark, ctx.hadoop);
      return std::make_shared<SlotSetup>(ctx);
    };
    service_ = std::make_unique<gerenuk::EngineService>(config);
    tenants_ = {service_->CreateSession("tenant-a"), service_->CreateSession("tenant-b")};
    client_ = std::thread([this] { ClientLoop(); });
  }

  void Teardown() override {
    if (client_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(client_mu_);
        client_stop_ = true;
      }
      client_cv_.notify_all();
      client_.join();
    }
    client_stop_ = false;
    rounds_requested_ = 0;
    rounds_done_ = 0;
    tenants_.clear();
    service_.reset();
    slot_engines_.clear();
  }

  void RunPass(BenchSpans* spans, PassRecord* pass) override {
    // Tenant B's round runs on the client thread, tenant A's on this one:
    // with the two dispatchers that is four threads in all.
    {
      std::lock_guard<std::mutex> lock(client_mu_);
      client_spans_ = spans;
      rounds_requested_ += 1;
    }
    client_cv_.notify_all();
    pass->max_threads = std::max(pass->max_threads, ThreadCount());
    std::vector<ClientJob> a;
    ClientRound(tenants_[0], spans, &a);
    std::vector<ClientJob> b;
    {
      std::unique_lock<std::mutex> lock(client_mu_);
      client_cv_.wait(lock, [this] { return rounds_done_ == rounds_requested_; });
      b = std::move(client_jobs_);
    }
    for (std::vector<ClientJob>* jobs : {&a, &b}) {
      for (ClientJob& job : *jobs) {
        pass->layers += job.side->layers;
        pass->peak_tracked_bytes = std::max(pass->peak_tracked_bytes, job.side->peak);
        pass->queue_wait_ms.push_back(job.queue_wait_ms);
        pass->exec_ms.push_back(job.exec_ms);
        pass->handoff_ms.push_back(
            std::max(0.0, job.record.latency_s * 1e3 - job.queue_wait_ms - job.exec_ms));
        pass->jobs.push_back(std::move(job.record));
      }
    }
  }

  std::vector<const gerenuk::Trace*> Traces() const override {
    std::vector<const gerenuk::Trace*> traces;
    for (const auto& [spark, hadoop] : slot_engines_) {
      for (const gerenuk::Trace* trace : {spark->trace(), hadoop->trace()}) {
        if (trace != nullptr) {
          traces.push_back(trace);
        }
      }
    }
    return traces;
  }

  gerenuk::PlanCache::Stats PlanCacheStats() const override {
    return service_ != nullptr ? service_->plan_cache_stats() : gerenuk::PlanCache::Stats{};
  }

  std::vector<std::string> SparkUdfNames() const override {
    return {"km_assign", "km_key", "km_merge", "lr_grad", "lr_key",
            "lr_add",    "wc_tokenize", "wc_key", "wc_sum"};
  }

  std::vector<DatasetPtr> BuildInputs(ProbeEngines& probe) const override {
    return {SourcePoints(probe.spark, probe.spark_workloads, points_),
            SourceLabeledPoints(probe.spark, probe.spark_workloads, labeled_),
            SourceLines(probe.spark, probe.spark_workloads, lines_),
            probe.hadoop_workloads.MakePostInput(posts_)};
  }

 private:
  struct SlotSetup {
    explicit SlotSetup(gerenuk::EngineContext& ctx) : spark(*ctx.spark), hadoop(*ctx.hadoop) {}
    SparkWorkloads spark;
    HadoopWorkloads hadoop;
  };

  // What a job body reports besides its output, read by the client after
  // wait() returns (the job's completion orders the body's writes first).
  struct JobSide {
    LayerSample layers;
    int64_t peak = 0;
  };

  struct ClientJob {
    JobRecord record;
    double queue_wait_ms = 0;
    double exec_ms = 0;
    std::shared_ptr<JobSide> side;
  };

  enum class Kind { kKMeans, kLogistic, kWordCount, kIuf };

  static const char* SpanName(Kind kind) {
    switch (kind) {
      case Kind::kKMeans:
        return "service-mix/kmeans";
      case Kind::kLogistic:
        return "service-mix/logistic-regression";
      case Kind::kWordCount:
        return "service-mix/wordcount";
      case Kind::kIuf:
        return "service-mix/iuf";
    }
    return "service-mix/?";
  }

  template <typename Engine, typename Body>
  static std::string RunOnEngine(Engine& engine, JobSide* side, Body&& body) {
    WorkloadResult r;
    EngineJob(engine, &side->layers, &side->peak, [&] { r = body(); });
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g %" PRId64, r.checksum, r.records);
    return buf;
  }

  gerenuk::JobSpec MakeSpec(Kind kind, const std::shared_ptr<JobSide>& side) const {
    gerenuk::JobSpec spec;
    spec.name = SpanName(kind);
    spec.run = [this, kind, side](gerenuk::EngineContext& ctx) -> std::string {
      auto* setup = static_cast<SlotSetup*>(ctx.setup.get());
      switch (kind) {
        case Kind::kKMeans:
          return RunOnEngine(*ctx.spark, side.get(), [&] {
            return setup->spark.RunKMeans(points_, kClusters, kIterations);
          });
        case Kind::kLogistic:
          return RunOnEngine(*ctx.spark, side.get(), [&] {
            return setup->spark.RunLogisticRegression(labeled_, kIterations, kRate);
          });
        case Kind::kWordCount:
          return RunOnEngine(*ctx.spark, side.get(),
                             [&] { return setup->spark.RunWordCount(lines_); });
        case Kind::kIuf:
          return RunOnEngine(*ctx.hadoop, side.get(), [&] {
            return setup->hadoop.RunIuf(setup->hadoop.MakePostInput(posts_));
          });
      }
      return "";
    };
    return spec;
  }

  std::string Check(Kind kind, const std::string& output) const {
    WorkloadResult r;
    long long records = 0;
    if (std::sscanf(output.c_str(), "%lf %lld", &r.checksum, &records) != 2) {
      return "unparsable job output '" + output + "'";
    }
    r.records = records;
    switch (kind) {
      case Kind::kKMeans:
        return CheckFloatSum(r, centre_sum_);
      case Kind::kLogistic:
        return CheckFloatSum(r, weight_sum_);
      case Kind::kWordCount:
        return CheckCounts(r, words_.tokens, static_cast<int64_t>(words_.counts.size()));
      case Kind::kIuf:
        return CheckCounts(r, users_.total_posts, static_cast<int64_t>(users_.posts.size()));
    }
    return "unknown job kind";
  }

  // One closed-loop round: each job is submitted only after the previous
  // one has finished.
  void ClientRound(gerenuk::Session& session, BenchSpans* spans,
                   std::vector<ClientJob>* out) const {
    for (Kind kind : {Kind::kKMeans, Kind::kLogistic, Kind::kWordCount, Kind::kIuf}) {
      ClientJob job;
      job.side = std::make_shared<JobSide>();
      job.record.name = SpanName(kind);
      const int64_t span_start = spans != nullptr ? spans->Now() : 0;
      const double start = WallSeconds();
      gerenuk::JobResult result = session.Submit(MakeSpec(kind, job.side)).wait();
      job.record.latency_s = WallSeconds() - start;
      if (spans != nullptr) {
        spans->End(job.record.name, span_start);
      }
      job.queue_wait_ms = static_cast<double>(result.queue_wait_ns) * 1e-6;
      job.exec_ms = static_cast<double>(result.exec_ns) * 1e-6;
      job.record.error = result.status == gerenuk::JobStatus::kSucceeded
                             ? Check(kind, result.output)
                             : std::string("job ") + gerenuk::JobStatusName(result.status) +
                                   ": " + result.error;
      out->push_back(std::move(job));
    }
  }

  // Tenant B's client thread: one round per RunPass request, until Teardown.
  void ClientLoop() {
    std::unique_lock<std::mutex> lock(client_mu_);
    while (true) {
      client_cv_.wait(lock, [this] { return client_stop_ || rounds_requested_ > rounds_done_; });
      if (client_stop_) {
        return;
      }
      BenchSpans* spans = client_spans_;
      lock.unlock();
      std::vector<ClientJob> jobs;
      try {
        ClientRound(tenants_[1], spans, &jobs);
      } catch (const std::exception& e) {
        ClientJob failed;
        failed.side = std::make_shared<JobSide>();
        failed.record.name = "service-mix/client";
        failed.record.error = std::string("threw: ") + e.what();
        jobs.push_back(std::move(failed));
      }
      lock.lock();
      client_jobs_ = std::move(jobs);
      rounds_done_ += 1;
      client_cv_.notify_all();
    }
  }

  std::string scratch_dir_;
  SyntheticPoints points_;
  SyntheticLabeledPoints labeled_;
  std::vector<std::string> lines_;
  std::vector<SyntheticPost> posts_;
  double centre_sum_;
  double weight_sum_;
  WordCounts words_;
  UserGroups users_;
  std::vector<std::pair<SparkEngine*, HadoopEngine*>> slot_engines_;
  std::unique_ptr<gerenuk::EngineService> service_;
  std::vector<gerenuk::Session> tenants_;

  // Hand-off between RunPass and tenant B's client thread.
  std::mutex client_mu_;
  std::condition_variable client_cv_;
  int64_t rounds_requested_ = 0;
  int64_t rounds_done_ = 0;
  bool client_stop_ = false;
  BenchSpans* client_spans_ = nullptr;
  std::vector<ClientJob> client_jobs_;
  std::thread client_;  // last: joined in Teardown before the members above go
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const RunEnv& env) {
  if (name == "spark-ml") {
    return std::make_unique<SparkMl>(env);
  }
  if (name == "text-shuffle") {
    return std::make_unique<TextShuffle>(env);
  }
  if (name == "so-aborts") {
    return std::make_unique<SoAborts>(env);
  }
  if (name == "service-mix") {
    return std::make_unique<ServiceMix>(env);
  }
  return nullptr;
}

CompileProbe RunCompileProbe(const Workload& workload, const RunEnv& env, BenchSpans* spans) {
  constexpr int kRepetitions = 5;
  ProbeEngines probe(env.scratch_dir);
  const gerenuk::SerProgram& udfs = probe.spark_workloads.udfs();
  std::vector<const gerenuk::Function*> functions;
  for (const std::string& name : workload.SparkUdfNames()) {
    const gerenuk::Function* fn = udfs.FindFunction(name);
    if (fn == nullptr) {
      throw std::runtime_error("compile probe: no UDF named " + name);
    }
    functions.push_back(fn);
  }
  CompileProbe out;
  std::vector<double> seconds;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    ScopedBenchSpan span(spans, "probe/compile");
    int64_t plan_ops = 0;
    const double start = WallSeconds();
    for (const gerenuk::Function* fn : functions) {
      gerenuk::TransformStats stats;
      gerenuk::CompiledFunction compiled = gerenuk::CompileSingleFunction(
          gerenuk::EngineMode::kGerenuk, probe.spark.layouts(), udfs, fn, &stats);
      if (compiled.transformed != nullptr) {
        plan_ops += gerenuk::CompilePlan(*compiled.transformed, probe.spark.layouts())->ops_total();
      }
    }
    seconds.push_back(WallSeconds() - start);
    out.plan_ops = plan_ops;
  }
  out.seconds = Median(seconds);
  return out;
}

InputProbe RunInputProbe(const Workload& workload, const RunEnv& env, BenchSpans* spans) {
  constexpr int kRepetitions = 5;
  ProbeEngines probe(env.scratch_dir);
  std::vector<DatasetPtr> inputs;
  {
    ScopedBenchSpan span(spans, "probe/source");
    inputs = workload.BuildInputs(probe);
  }
  InputProbe out;
  for (const DatasetPtr& ds : inputs) {
    out.bytes += ds->TotalBytes();
    out.records += ds->TotalRecords();
  }
  std::vector<double> seal_ns;
  std::vector<double> verify_ns;
  bool verified = true;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    ScopedBenchSpan span(spans, "probe/seal-verify");
    double start = WallSeconds();
    for (const DatasetPtr& ds : inputs) {
      for (gerenuk::NativePartition& part : ds->native_parts) {
        part.Seal();
      }
    }
    double sealed = WallSeconds();
    for (const DatasetPtr& ds : inputs) {
      for (const gerenuk::NativePartition& part : ds->native_parts) {
        verified = part.VerifyChecksum() && verified;
      }
    }
    double done = WallSeconds();
    seal_ns.push_back((sealed - start) * 1e9);
    verify_ns.push_back((done - sealed) * 1e9);
  }
  if (!verified) {
    throw std::runtime_error("input probe: a freshly sealed partition failed VerifyChecksum");
  }
  const double kb = static_cast<double>(out.bytes) / 1024.0;
  out.seal_ns_per_kb = kb > 0 ? Median(seal_ns) / kb : 0;
  out.verify_ns_per_kb = kb > 0 ? Median(verify_ns) / kb : 0;
  return out;
}

}  // namespace perfbench
