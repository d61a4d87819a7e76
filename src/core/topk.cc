#include "core/topk.h"

#include <algorithm>
#include <unordered_set>

namespace csrplus::core {
namespace {

bool Better(const ScoredNode& a, const ScoredNode& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.node < b.node;
}

template <typename ScoreAt>
std::vector<ScoredNode> TopKImpl(Index n, Index k, ScoreAt&& score_at,
                                 const std::vector<Index>& exclude) {
  std::unordered_set<Index> skip(exclude.begin(), exclude.end());
  std::vector<ScoredNode> heap;  // min-heap on Better (worst at front).
  // k comes off the wire unchecked: never reserve more than n entries.
  heap.reserve(static_cast<std::size_t>(std::clamp<Index>(k, 0, n)));
  const auto worse = [](const ScoredNode& a, const ScoredNode& b) {
    return Better(a, b);  // make_heap with Better puts the *worst* on top
  };
  for (Index i = 0; i < n; ++i) {
    if (skip.count(i) > 0) continue;
    const ScoredNode candidate{i, score_at(i)};
    if (static_cast<Index>(heap.size()) < k) {
      heap.push_back(candidate);
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (k > 0 && Better(candidate, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = candidate;
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  std::sort(heap.begin(), heap.end(), Better);
  return heap;
}

}  // namespace

std::vector<ScoredNode> TopK(const std::vector<double>& scores, Index k,
                             const std::vector<Index>& exclude) {
  return TopKImpl(
      static_cast<Index>(scores.size()), k,
      [&scores](Index i) { return scores[static_cast<std::size_t>(i)]; },
      exclude);
}

std::vector<ScoredNode> TopKOfColumn(const linalg::DenseMatrix& scores,
                                     Index col, Index k,
                                     const std::vector<Index>& exclude) {
  CSR_CHECK(col >= 0 && col < scores.cols());
  return TopKImpl(
      scores.rows(), k, [&scores, col](Index i) { return scores(i, col); },
      exclude);
}

}  // namespace csrplus::core
