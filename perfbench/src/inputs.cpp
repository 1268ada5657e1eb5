#include "inputs.hpp"

#include <algorithm>

#include "hardness/undirected.hpp"
#include "lcl/serialize.hpp"

namespace perfbench {

namespace catalog = lclpath::catalog;
using lclpath::Label;
using lclpath::Rng;

namespace {

constexpr ComplexityClass kConst = ComplexityClass::kConstant;
constexpr ComplexityClass kLogStar = ComplexityClass::kLogStar;
constexpr ComplexityClass kLinear = ComplexityClass::kLinear;

/// "directed-path", ... (to_string with dashes, for operation names).
std::string topology_tag(Topology topology) {
  std::string tag = lclpath::to_string(topology);
  std::replace(tag.begin(), tag.end(), ' ', '-');
  return tag;
}

/// Numbered label names ("o0", "o1", ...).
std::vector<std::string> numbered(const char* prefix, std::size_t count) {
  std::vector<std::string> names;
  for (std::size_t k = 0; k < count; ++k) {
    std::string name(prefix);
    name += std::to_string(k);
    names.push_back(std::move(name));
  }
  return names;
}

PairwiseProblem named(PairwiseProblem problem, const std::string& lift,
                      const PairwiseProblem& source) {
  problem.set_name(lift + ":" + source.name() + "@" + topology_tag(source.topology()));
  return problem;
}

}  // namespace

std::vector<LiftedCase> lifted_cases() {
  const Topology path = Topology::kDirectedPath;
  const Topology cycle = Topology::kDirectedCycle;
  // Source problem, its textbook class (lcl/catalog.hpp), and the class
  // its undirected lift must get.
  struct Source {
    PairwiseProblem problem;
    ComplexityClass textbook;
    ComplexityClass undirected;
  };
  const std::vector<Source> path_sources = {
      {catalog::coloring(3, path), kLogStar, kConst},
      {catalog::two_coloring(path), kLinear, kLinear},
      {catalog::constant_output(path), kConst, kConst},
      {catalog::copy_input(path), kConst, kConst},
      {catalog::shift_input(path), kConst, kConst},
      {catalog::agreement(path), kLinear, kLinear},
      {catalog::prefix_parity(path), kLinear, kLinear},
      {catalog::input_gated_coloring(path), kLogStar, kConst},
  };
  const std::vector<Source> cycle_sources = {
      {catalog::coloring(3, cycle), kLogStar, kConst},
      {catalog::shift_input(cycle), kConst, kConst},
      {catalog::copy_input(cycle), kConst, kConst},
      {catalog::maximal_independent_set(), kLogStar, kConst},
      {catalog::input_gated_coloring(cycle), kLogStar, kConst},
  };
  std::vector<LiftedCase> cases;
  for (const Source& s : path_sources) {
    cases.push_back({named(lclpath::hardness::lift_to_undirected(s.problem),
                           "undirected-lift", s.problem),
                     s.undirected});
  }
  for (const Source& s : cycle_sources) {
    cases.push_back({named(lclpath::hardness::lift_to_undirected(s.problem),
                           "undirected-lift", s.problem),
                     s.undirected});
  }
  for (const Source& s : path_sources) {
    cases.push_back({named(lclpath::hardness::lift_path_to_cycle(s.problem), "cycle-lift",
                           s.problem),
                     s.textbook});
  }
  return cases;
}

namespace {

PairwiseProblem random_problem(Rng& rng, std::size_t index) {
  static const Topology kTopologies[] = {Topology::kDirectedPath, Topology::kDirectedCycle,
                                         Topology::kUndirectedPath,
                                         Topology::kUndirectedCycle};
  const Topology topology = kTopologies[rng.next_below(4)];
  // Two-input problems stop at four outputs: with five or six, about one
  // in 500 random problems sends decide_linear_gap into a search that runs
  // for minutes (README, "Left out").
  const std::size_t alpha = 1 + rng.next_below(2);
  const std::size_t beta = 2 + rng.next_below(alpha == 1 ? 5 : 2);
  PairwiseProblem p("random-" + std::to_string(index), lclpath::Alphabet(numbered("i", alpha)),
                    lclpath::Alphabet(numbered("o", beta)), topology);
  for (Label in = 0; in < alpha; ++in) {
    for (Label out = 0; out < beta; ++out) {
      if (rng.next_bool(2, 3)) p.allow_node(in, out);
    }
  }
  const bool directed = lclpath::is_directed(topology);
  for (Label a = 0; a < beta; ++a) {
    for (Label b = directed ? 0 : a; b < beta; ++b) {
      if (!rng.next_bool()) continue;
      p.allow_edge(a, b);
      if (!directed) p.allow_edge(b, a);
    }
  }
  if (!lclpath::is_cycle(topology)) {
    if (rng.next_bool(1, 4)) {
      for (Label in = 0; in < alpha; ++in) {
        for (Label out = 0; out < beta; ++out) {
          if (rng.next_bool(2, 3)) p.allow_node_first(in, out);
        }
      }
    }
    if (rng.next_bool(1, 4)) {
      for (Label out = 0; out < beta; ++out) {
        if (rng.next_bool(1, 3)) p.forbid_last(out);
      }
    }
  }
  return p;
}

}  // namespace

PairwiseProblem permute_labels(const PairwiseProblem& problem, Rng& rng) {
  const std::size_t alpha = problem.num_inputs();
  const std::size_t beta = problem.num_outputs();
  // new label k carries old label perm[k]
  const std::vector<std::size_t> in_perm = rng.permutation(alpha);
  const std::vector<std::size_t> out_perm = rng.permutation(beta);
  PairwiseProblem p(problem.name() + "~permuted", lclpath::Alphabet(numbered("x", alpha)),
                    lclpath::Alphabet(numbered("y", beta)), problem.topology());
  for (Label i = 0; i < alpha; ++i) {
    for (Label o = 0; o < beta; ++o) {
      const auto old_in = static_cast<Label>(in_perm[i]);
      const auto old_out = static_cast<Label>(out_perm[o]);
      if (problem.node_ok(old_in, old_out)) p.allow_node(i, o);
      if (problem.has_first_constraint() && problem.node_first_ok(old_in, old_out)) {
        p.allow_node_first(i, o);
      }
    }
  }
  for (Label a = 0; a < beta; ++a) {
    for (Label b = 0; b < beta; ++b) {
      if (problem.edge_ok(static_cast<Label>(out_perm[a]), static_cast<Label>(out_perm[b]))) {
        p.allow_edge(a, b);
      }
    }
    if (!problem.last_ok(static_cast<Label>(out_perm[a]))) p.forbid_last(a);
  }
  return p;
}

std::vector<CatalogProblem> random_catalog(std::uint64_t seed, std::size_t base,
                                           std::size_t renamed, std::size_t permuted) {
  Rng rng(seed);
  std::vector<CatalogProblem> problems;
  problems.reserve(base + renamed + permuted);
  for (std::size_t i = 0; i < base; ++i) {
    problems.push_back({random_problem(rng, i), Origin::kBase, i});
  }
  for (std::size_t i = 0; i < renamed; ++i) {
    const std::size_t original = rng.next_below(base);
    PairwiseProblem copy = problems[original].problem;
    copy.set_name(copy.name() + "~renamed-" + std::to_string(i));
    problems.push_back({std::move(copy), Origin::kRenamed, original});
  }
  for (std::size_t i = 0; i < permuted; ++i) {
    const std::size_t original = rng.next_below(base);
    problems.push_back(
        {permute_labels(problems[original].problem, rng), Origin::kPermuted, original});
  }
  // Shuffle, keeping `original` pointing at the base problem's new slot.
  const std::vector<std::size_t> order = rng.permutation(problems.size());
  std::vector<std::size_t> slot_of(problems.size());
  for (std::size_t k = 0; k < order.size(); ++k) slot_of[order[k]] = k;
  std::vector<CatalogProblem> shuffled;
  shuffled.reserve(problems.size());
  for (const std::size_t from : order) {
    CatalogProblem p = std::move(problems[from]);
    p.original = slot_of[p.original];
    shuffled.push_back(std::move(p));
  }
  return shuffled;
}

bool has_node_self_loop(const PairwiseProblem& problem) {
  for (Label y = 0; y < problem.num_outputs(); ++y) {
    bool allowed = false;
    for (Label in = 0; in < problem.num_inputs(); ++in) {
      allowed = allowed || problem.node_ok(in, y);
    }
    if (allowed && problem.edge_ok(y, y)) return true;
  }
  return false;
}

std::string catalog_text(const std::vector<PairwiseProblem>& problems) {
  std::string text;
  for (const PairwiseProblem& p : problems) text += lclpath::serialize(p);
  return text;
}

std::vector<SimulationCase> simulation_cases() {
  const Topology all[] = {Topology::kDirectedPath, Topology::kDirectedCycle,
                          Topology::kUndirectedPath, Topology::kUndirectedCycle};
  const Topology directed[] = {Topology::kDirectedPath, Topology::kDirectedCycle};
  auto label = [](const PairwiseProblem& p) { return p.name() + "@" + topology_tag(p.topology()); };
  std::vector<SimulationCase> cases;
  auto add = [&cases](std::string name, PairwiseProblem problem) -> SimulationCase& {
    SimulationCase c;
    c.name = std::move(name);
    c.problem = std::move(problem);
    cases.push_back(std::move(c));
    return cases.back();
  };
  // Seeded rows: unary 3-coloring everywhere, non-unary log* input-gated
  // coloring, and the lifted 3-colorings on consistently oriented inputs.
  for (const Topology t : all) {
    PairwiseProblem p = catalog::coloring(3, t);
    add(label(p), p);
  }
  for (const Topology t : directed) {
    PairwiseProblem p = catalog::input_gated_coloring(t);
    add(label(p), p);
  }
  for (const Topology t : directed) {
    const PairwiseProblem source = catalog::coloring(3, t);
    PairwiseProblem lifted =
        named(lclpath::hardness::lift_to_undirected(source), "undirected-lift", source);
    SimulationCase& c = add(lifted.name(), lifted);
    c.oriented_lift = true;
    c.source = source;
  }
  // Fixed rows: non-unary O(1) problems on the input of seed 6, whose
  // copy-input directed-cycle run hits the SynthesizedConstant anchor
  // fault at chunk size 65536 (see README).
  constexpr std::uint64_t kFixedSeed = 6;
  for (const Topology t : all) {
    PairwiseProblem p = catalog::copy_input(t);
    SimulationCase& c = add(label(p), p);
    c.seeded = false;
    c.fixed_seed = kFixedSeed;
  }
  for (const Topology t : directed) {
    PairwiseProblem p = catalog::shift_input(t);
    SimulationCase& c = add(label(p), p);
    c.seeded = false;
    c.fixed_seed = kFixedSeed;
  }
  return cases;
}

}  // namespace perfbench
