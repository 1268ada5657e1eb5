// Differential test for decide_const_gap: the production decider (endpoint
// and compatibility sweeps over distinct operands) must return exactly the
// certificate of the per-element reference in const_gap_reference.hpp —
// same verdict, same exponent, same periodic choice for every element —
// on the validation catalog and on seeded random problems over all four
// topologies, including path first/last rules.
#include <gtest/gtest.h>

#include <string>

#include "const_gap_reference.hpp"
#include "core/rng.hpp"
#include "decide/const_gap.hpp"
#include "lcl/catalog.hpp"

namespace lclpath {
namespace {

/// The reference's compatibility sweep is n_sigs^2 * n_elems; above this
/// monoid size one random problem would cost seconds in Debug builds.
constexpr std::size_t kReferenceMonoidLimit = 600;

/// Compares both deciders on one monoid; returns the verdict.
bool ExpectSameCertificate(const Monoid& monoid) {
  const PairwiseProblem& problem = monoid.transitions().problem();
  SCOPED_TRACE(problem.name() + " on " + to_string(problem.topology()));
  const ConstGapCertificate expected = testing::reference_decide_const_gap(monoid);
  const ConstGapCertificate actual = decide_const_gap(monoid);
  EXPECT_EQ(actual.feasible, expected.feasible);
  EXPECT_EQ(actual.ell_ctx, expected.ell_ctx);
  EXPECT_EQ(actual.choice_per_element.size(), expected.choice_per_element.size());
  if (actual.choice_per_element.size() != expected.choice_per_element.size()) {
    return actual.feasible;
  }
  for (std::size_t e = 0; e < expected.choice_per_element.size(); ++e) {
    EXPECT_EQ(actual.choice_per_element[e], expected.choice_per_element[e])
        << "element " << e;
  }
  return actual.feasible;
}

Monoid monoid_of(const PairwiseProblem& problem) {
  return Monoid::enumerate(TransitionSystem::build(problem));
}

TEST(ConstGapDiff, MatchesReferenceOnCatalog) {
  for (const CatalogEntry& entry : catalog::validation_catalog()) {
    ExpectSameCertificate(monoid_of(entry.problem));
  }
}

/// A random orientation-symmetric (when undirected) problem with up to two
/// inputs and six outputs; path problems sometimes get first-node and
/// last-node rules.
PairwiseProblem random_problem(Rng& rng, Topology topology, std::size_t index) {
  const std::size_t alpha = 1 + rng.next_below(2);
  const std::size_t beta = 2 + rng.next_below(5);
  Alphabet inputs;
  for (std::size_t i = 0; i < alpha; ++i) inputs.add("i" + std::to_string(i));
  Alphabet outputs;
  for (std::size_t o = 0; o < beta; ++o) outputs.add("o" + std::to_string(o));
  PairwiseProblem problem("random-" + std::to_string(index), inputs, outputs, topology);
  for (Label in = 0; in < alpha; ++in) {
    for (Label out = 0; out < beta; ++out) {
      if (rng.next_bool(2, 3)) problem.allow_node(in, out);
    }
  }
  const bool directed = is_directed(topology);
  for (Label a = 0; a < beta; ++a) {
    for (Label b = directed ? 0 : a; b < beta; ++b) {
      if (!rng.next_bool()) continue;
      problem.allow_edge(a, b);
      if (!directed) problem.allow_edge(b, a);
    }
  }
  if (!is_cycle(topology)) {
    if (rng.next_bool(1, 3)) {
      for (Label in = 0; in < alpha; ++in) {
        for (Label out = 0; out < beta; ++out) {
          if (rng.next_bool(2, 3)) problem.allow_node_first(in, out);
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

TEST(ConstGapDiff, MatchesReferenceOnRandomProblems) {
  const Topology topologies[] = {Topology::kDirectedCycle, Topology::kDirectedPath,
                                 Topology::kUndirectedCycle, Topology::kUndirectedPath};
  Rng rng(0xC0457);
  std::size_t compared = 0;
  std::size_t feasible = 0;
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const PairwiseProblem problem = random_problem(rng, topologies[trial % 4], trial);
    const Monoid monoid = monoid_of(problem);
    if (monoid.size() > kReferenceMonoidLimit) continue;
    ++compared;
    if (ExpectSameCertificate(monoid)) ++feasible;
  }
  EXPECT_GE(compared, 180u) << "too many random problems exceeded the reference's budget";
  EXPECT_GE(feasible, 20u) << "the sweep should exercise feasible certificates too";
}

}  // namespace
}  // namespace lclpath
