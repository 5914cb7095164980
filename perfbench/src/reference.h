// Plain C++ computations of what each workload must produce, made from the
// same generated inputs the engine receives and sharing no code with the
// engine: no heap, no IR, no shuffle. The benchmark checks every job's
// output against these.
#ifndef PERFBENCH_SRC_REFERENCE_H_
#define PERFBENCH_SRC_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Relative tolerance for float results whose summation order differs between
// the engine (per-partition partial sums merged by key) and the reference
// (one sequential sum). Integer results must match exactly.
inline constexpr double kFloatRelTolerance = 1e-6;

bool NearlyEqual(double a, double b, double rel_tolerance = kFloatRelTolerance);

// Lloyd's KMeans from the first k points as starting centres. A point joins
// the centre with the strictly smallest squared distance (lowest index on a
// tie); a centre that gains no point keeps its position.
std::vector<double> KMeansCentres(const std::vector<std::vector<double>>& points, int k,
                                  int iterations);

// Batch gradient descent on the logistic loss from zero weights:
// w -= rate * sum((sigmoid(w.x) - y) * x) / n.
std::vector<double> LogisticWeights(const std::vector<std::vector<double>>& features,
                                    const std::vector<double>& labels, int iterations,
                                    double rate);

// Tokens of a line split on every single space (empty tokens included).
std::vector<std::string> SplitOnSpace(const std::string& line);

struct WordCounts {
  std::map<std::string, int64_t> counts;
  int64_t tokens = 0;
};
WordCounts CountWords(const std::vector<std::string>& lines);

// Per-user post count and per-user sum of post text lengths (the account
// groups of the StackOverflow workload).
struct UserGroups {
  std::map<int64_t, int64_t> posts;
  std::map<int64_t, int64_t> length_sum;
  int64_t total_posts = 0;
};

struct PostLike {
  int64_t user_id;
  int32_t topic;
  int32_t score;
  int64_t text_length;
};
UserGroups GroupByUser(const std::vector<PostLike>& posts);

// Highest score per topic (CED).
std::map<int64_t, int64_t> BestScorePerTopic(const std::vector<PostLike>& posts);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REFERENCE_H_
