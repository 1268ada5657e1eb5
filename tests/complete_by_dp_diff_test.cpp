// Differential test for complete_by_dp: the production DP (flat word
// buffers, in-place backward pass) must return exactly the optional
// labeling of the per-position BitVector reference in
// complete_by_dp_reference.hpp — the same nullopt or the same
// lexicographically smallest completion — on seeded random problems over
// all four topologies, output alphabets from 1 to 140 labels (across the
// 64- and 128-bit word boundaries), path first-node rules and last masks,
// pinned positions including contradictory pins, and every n from 0 to 40.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "complete_by_dp_reference.hpp"
#include "core/rng.hpp"
#include "lcl/verifier.hpp"

namespace lclpath {
namespace {

constexpr Topology kTopologies[] = {Topology::kDirectedCycle, Topology::kDirectedPath,
                                    Topology::kUndirectedCycle, Topology::kUndirectedPath};

/// A random problem with `beta` outputs. The node and edge densities are
/// drawn per problem, so that both dense (nearly always completable) and
/// sparse (dead ends mid-word, empty wraps) problems occur.
PairwiseProblem random_problem(Rng& rng, Topology topology, std::size_t beta) {
  const std::size_t alpha = 1 + rng.next_below(3);
  Alphabet inputs;
  for (std::size_t i = 0; i < alpha; ++i) inputs.add("i" + std::to_string(i));
  Alphabet outputs;
  for (std::size_t o = 0; o < beta; ++o) outputs.add("o" + std::to_string(o));
  PairwiseProblem problem("random", inputs, outputs, topology);
  const std::uint64_t node_density = 1 + rng.next_below(8);  // out of 8
  const std::uint64_t edge_density = 1 + rng.next_below(16);  // out of 16
  for (Label in = 0; in < alpha; ++in) {
    for (Label out = 0; out < beta; ++out) {
      if (rng.next_bool(node_density, 8)) problem.allow_node(in, out);
    }
  }
  const bool directed = is_directed(topology);
  for (Label a = 0; a < beta; ++a) {
    for (Label b = directed ? 0 : a; b < beta; ++b) {
      if (!rng.next_bool(edge_density, 16)) continue;
      problem.allow_edge(a, b);
      if (!directed) problem.allow_edge(b, a);
    }
  }
  if (!is_cycle(topology)) {
    if (rng.next_bool(1, 3)) {
      for (Label in = 0; in < alpha; ++in) {
        for (Label out = 0; out < beta; ++out) {
          if (rng.next_bool(node_density, 8)) problem.allow_node_first(in, out);
        }
      }
    }
    if (rng.next_bool(1, 3)) {
      for (Label out = 0; out < beta; ++out) {
        if (rng.next_bool(1, 3)) problem.forbid_last(out);
      }
    }
  }
  return problem;
}

/// Random pins: none, a few, or many; labels anywhere in the alphabet, so
/// pins outside C_node and adjacent pins without an edge both occur.
std::vector<std::optional<Label>> random_pins(Rng& rng, std::size_t n, std::size_t beta) {
  std::vector<std::optional<Label>> fixed(n);
  const std::uint64_t density = rng.next_below(4);  // out of 8: 0 = no pins
  for (std::size_t v = 0; v < n; ++v) {
    if (density != 0 && rng.next_bool(density, 8)) {
      fixed[v] = static_cast<Label>(rng.next_below(beta));
    }
  }
  return fixed;
}

/// Compares both DPs on one input; returns whether a completion exists.
bool ExpectSameCompletion(const PairwiseProblem& problem, const Word& inputs,
                          const std::vector<std::optional<Label>>& fixed,
                          const std::string& what) {
  const std::optional<Word> expected =
      testing::reference_complete_by_dp(problem, inputs, fixed);
  const std::optional<Word> actual = complete_by_dp(problem, inputs, fixed);
  EXPECT_EQ(actual, expected) << what;
  return actual.has_value();
}

TEST(CompleteByDpDiff, MatchesReferenceOnRandomProblems) {
  Rng rng(0xD9D1FF);
  std::size_t solved = 0;
  std::size_t unsolved = 0;
  for (std::size_t trial = 0; trial < 1400; ++trial) {
    const Topology topology = kTopologies[trial % 4];
    // Every beta from 1 to 140 ten times, one per topology in turn.
    const std::size_t beta = 1 + (trial / 10) % 140;
    const PairwiseProblem problem = random_problem(rng, topology, beta);
    for (int instance = 0; instance < 3; ++instance) {
      const std::size_t n = rng.next_below(41);
      Word inputs(n);
      for (Label& in : inputs) in = static_cast<Label>(rng.next_below(problem.num_inputs()));
      const auto fixed = random_pins(rng, n, beta);
      const std::string what = "trial " + std::to_string(trial) + " " +
                               to_string(topology) + " beta=" + std::to_string(beta) +
                               " n=" + std::to_string(n);
      ++(ExpectSameCompletion(problem, inputs, fixed, what) ? solved : unsolved);
    }
  }
  // The sweep must exercise both outcomes in earnest.
  EXPECT_GE(solved, 1000u);
  EXPECT_GE(unsolved, 1000u);
}

TEST(CompleteByDpDiff, EmptyAndMismatchedPinsAreNullopt) {
  Rng rng(77);
  for (const Topology topology : kTopologies) {
    const PairwiseProblem problem = random_problem(rng, topology, 5);
    EXPECT_FALSE(complete_by_dp(problem, Word{}, {}).has_value());
    const Word inputs(6, 0);
    for (std::size_t pins : {std::size_t{0}, std::size_t{5}, std::size_t{7}}) {
      const std::vector<std::optional<Label>> fixed(pins);
      EXPECT_FALSE(complete_by_dp(problem, inputs, fixed).has_value()) << pins;
      ExpectSameCompletion(problem, inputs, fixed, "pins=" + std::to_string(pins));
    }
  }
}

}  // namespace
}  // namespace lclpath
