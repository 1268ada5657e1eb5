// Workload inputs, all derived from the run's seed where they may vary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "lcl/catalog.hpp"
#include "lcl/problem.hpp"

namespace perfbench {

using lclpath::ComplexityClass;
using lclpath::PairwiseProblem;
using lclpath::Topology;

/// One Section 3.7 lift with the class the lift rules predict for it: a
/// cycle lift keeps the source's textbook class; an undirected lift maps
/// O(1) and Theta(log* n) sources to O(1) and keeps Theta(n).
struct LiftedCase {
  PairwiseProblem problem;  ///< named "<lift>:<source>@<source topology>"
  ComplexityClass expected;
};

/// The 21 lifted problems of the lifted-decide workload (fixed, not seeded).
std::vector<LiftedCase> lifted_cases();

/// How a catalog-sweep problem relates to the rest of the catalog.
enum class Origin : std::uint8_t { kBase, kRenamed, kPermuted };

struct CatalogProblem {
  PairwiseProblem problem;
  Origin origin = Origin::kBase;
  std::size_t original = 0;  ///< index of the base problem it copies
};

/// Seeded random pairwise problems over all four topologies (|inputs| <= 2,
/// |outputs| <= 6, random first/last rules on paths), plus renamed
/// duplicates and label-permuted copies of earlier problems, shuffled.
std::vector<CatalogProblem> random_catalog(std::uint64_t seed, std::size_t base,
                                           std::size_t renamed, std::size_t permuted);

/// The problem with input and output labels renamed and reordered by
/// seeded permutations (same problem up to label names).
PairwiseProblem permute_labels(const PairwiseProblem& problem, lclpath::Rng& rng);

/// Whether some output allowed at a node has a self-loop (the O(1) test
/// for input-free directed-cycle problems).
bool has_node_self_loop(const PairwiseProblem& problem);

/// Concatenated serialized problem blocks, the text the program parses.
std::string catalog_text(const std::vector<PairwiseProblem>& problems);

/// One simulate-large row. Seeded rows draw their instance from the run's
/// seed; fixed rows always use `fixed_seed`.
struct SimulationCase {
  std::string name;  ///< distinct operation name
  PairwiseProblem problem;
  bool seeded = true;
  std::uint64_t fixed_seed = 0;
  /// Undirected lifts: instance inputs are consistent orientation counters
  /// of a unary source word (so the lifted problem embeds the source).
  bool oriented_lift = false;
  PairwiseProblem source;  ///< the lift's source when oriented_lift
};

std::vector<SimulationCase> simulation_cases();

}  // namespace perfbench
