#include "perfbench/src/reference.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

bool NearlyEqual(double a, double b, double rel_tolerance) {
  double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= rel_tolerance * scale;
}

std::vector<double> KMeansCentres(const std::vector<std::vector<double>>& points, int k,
                                  int iterations) {
  const size_t dim = points.empty() ? 0 : points[0].size();
  std::vector<double> centres(static_cast<size_t>(k) * dim);
  for (int c = 0; c < k; ++c) {
    std::copy(points[static_cast<size_t>(c)].begin(), points[static_cast<size_t>(c)].end(),
              centres.begin() + static_cast<std::ptrdiff_t>(static_cast<size_t>(c) * dim));
  }
  for (int iter = 0; iter < iterations; ++iter) {
    std::vector<double> sums(centres.size(), 0.0);
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    for (const std::vector<double>& p : points) {
      size_t best = 0;
      double best_dist = 1e300;
      for (size_t c = 0; c < static_cast<size_t>(k); ++c) {
        double dist = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          double diff = p[d] - centres[c * dim + d];
          dist += diff * diff;
        }
        if (dist < best_dist) {
          best_dist = dist;
          best = c;
        }
      }
      counts[best] += 1;
      for (size_t d = 0; d < dim; ++d) {
        sums[best * dim + d] += p[d];
      }
    }
    for (size_t c = 0; c < static_cast<size_t>(k); ++c) {
      if (counts[c] == 0) {
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        centres[c * dim + d] = sums[c * dim + d] / static_cast<double>(counts[c]);
      }
    }
  }
  return centres;
}

std::vector<double> LogisticWeights(const std::vector<std::vector<double>>& features,
                                    const std::vector<double>& labels, int iterations,
                                    double rate) {
  const size_t dim = features.empty() ? 0 : features[0].size();
  const double n = static_cast<double>(features.size());
  std::vector<double> w(dim, 0.0);
  for (int iter = 0; iter < iterations; ++iter) {
    std::vector<double> grad(dim, 0.0);
    for (size_t i = 0; i < features.size(); ++i) {
      double margin = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        margin += w[d] * features[i][d];
      }
      double scale = 1.0 / (1.0 + std::exp(-margin)) - labels[i];
      for (size_t d = 0; d < dim; ++d) {
        grad[d] += scale * features[i][d];
      }
    }
    for (size_t d = 0; d < dim; ++d) {
      w[d] -= rate * grad[d] / n;
    }
  }
  return w;
}

std::vector<std::string> SplitOnSpace(const std::string& line) {
  std::vector<std::string> tokens;
  size_t start = 0;
  for (size_t pos = 0; pos <= line.size(); ++pos) {
    if (pos == line.size() || line[pos] == ' ') {
      tokens.push_back(line.substr(start, pos - start));
      start = pos + 1;
    }
  }
  return tokens;
}

WordCounts CountWords(const std::vector<std::string>& lines) {
  WordCounts out;
  for (const std::string& line : lines) {
    for (std::string& token : SplitOnSpace(line)) {
      out.counts[std::move(token)] += 1;
      out.tokens += 1;
    }
  }
  return out;
}

UserGroups GroupByUser(const std::vector<PostLike>& posts) {
  UserGroups out;
  for (const PostLike& post : posts) {
    out.posts[post.user_id] += 1;
    out.length_sum[post.user_id] += post.text_length;
    out.total_posts += 1;
  }
  return out;
}

std::map<int64_t, int64_t> BestScorePerTopic(const std::vector<PostLike>& posts) {
  std::map<int64_t, int64_t> best;
  for (const PostLike& post : posts) {
    auto [it, inserted] = best.emplace(post.topic, post.score);
    if (!inserted) {
      it->second = std::max<int64_t>(it->second, post.score);
    }
  }
  return best;
}

}  // namespace perfbench
