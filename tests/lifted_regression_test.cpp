// Regression tests for the PR-1 stack-overflow family: classifying
// hardness::lift_to_undirected(...) of directed-path catalog problems.
// PR 1 fixed the segfault (deep recursion in the pair-wise search) but the
// quadratic point-pair sweep remained effectively non-terminating on the
// ~10^5-point lifted domains; the factorized aggregate engine classifies
// them in well under a second, so the whole family is pinned here under a
// tight ctest timeout (see CMakeLists.txt).
//
// Expected classes: the lift's orientation counter hands every node its
// position mod 3 — a free 3-coloring — so symmetry breaking is free and
// every Theta(log* n) source collapses to O(1) (e.g. 3-coloring: output
// the color indexed by the input counter; counter-defect edges only admit
// escape tags or are "broken" and unconstrained among normal tags).
// Theta(n) sources stay Theta(n): a mod-3 counter yields neither parity
// (2-coloring) nor global agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "decide/classifier.hpp"
#include "hardness/undirected.hpp"
#include "test_util.hpp"

namespace lclpath {
namespace {

ClassifiedProblem classify_lift(const PairwiseProblem& source) {
  return classify(hardness::lift_to_undirected(source));
}

TEST(LiftedUndirectedRegression, ColoringPathIsClassifiable) {
  // The ROADMAP headline case: monoid 90, ~7 * 10^5 domain points. Used to
  // stack-overflow (pre PR 1), then to grind forever; now sub-second.
  const ClassifiedProblem result =
      classify_lift(catalog::coloring(3, Topology::kDirectedPath));
  EXPECT_EQ(result.complexity(), ComplexityClass::kConstant) << result.summary();
  EXPECT_EQ(result.monoid_size(), 90u);
  EXPECT_TRUE(result.linear_certificate().feasible);
  EXPECT_TRUE(result.const_certificate().feasible);
}

TEST(LiftedUndirectedRegression, TwoColoringPathStaysLinear) {
  const ClassifiedProblem result =
      classify_lift(catalog::two_coloring(Topology::kDirectedPath));
  EXPECT_EQ(result.complexity(), ComplexityClass::kLinear) << result.summary();
  EXPECT_FALSE(result.linear_certificate().feasible);
}

TEST(LiftedUndirectedRegression, ConstantOutputPathStaysConstant) {
  const ClassifiedProblem result =
      classify_lift(catalog::constant_output(Topology::kDirectedPath));
  EXPECT_EQ(result.complexity(), ComplexityClass::kConstant) << result.summary();
}

TEST(LiftedUndirectedRegression, ColoringCycleIsClassifiable) {
  // Cycle flavor of the same family.
  const ClassifiedProblem result = classify_lift(catalog::coloring(3));
  EXPECT_EQ(result.complexity(), ComplexityClass::kConstant) << result.summary();
}

TEST(LiftedUndirectedRegression, ShiftInputCycleLiftClassifiesThroughLazyCertificate) {
  // The ISSUE 5 headline case: monoid 930, ~2.9 * 10^7 domain points. The
  // factorized search (PR 2) made the *decision* fast, but materializing
  // the certificate tables still took ~30 s and GBs of hash map; the lazy
  // class-indexed certificate classifies this end-to-end in ~1 s and MBs.
  // This test runs under the binary's tight ctest TIMEOUT, so a regression
  // back to eager materialization fails loudly.
  const ClassifiedProblem result = classify_lift(catalog::shift_input());
  EXPECT_EQ(result.complexity(), ComplexityClass::kConstant) << result.summary();
  EXPECT_EQ(result.monoid_size(), 930u);
  ASSERT_TRUE(result.linear_certificate().feasible);
  EXPECT_EQ(result.linear_certificate().backend(), CertificateBackend::kLazy);
  EXPECT_EQ(result.linear_certificate().domain_size(), 29160000u);
  // Spot-check the lazy feasible function through the same lookup the
  // synthesized algorithm would issue: every domain point has a value, and
  // its reversed point (undirected topology) resolves too.
  const Monoid& monoid = result.monoid();
  const std::vector<std::size_t> layer = monoid.layer_at(result.linear_certificate().ell_ctx);
  ASSERT_FALSE(layer.empty());
  const BlockPoint probe{BlockKind::kInterior, layer.front(), 0, 1, layer.back()};
  const BlockValue value = result.linear_certificate().value_at(probe);
  EXPECT_TRUE(result.linear_certificate().contains(probe.reversed(monoid)));
  const BlockValue rev_value =
      result.linear_certificate().value_at(probe.reversed(monoid));
  EXPECT_LT(value.a, result.problem().num_outputs());
  EXPECT_LT(rev_value.a, result.problem().num_outputs());
}

TEST(LiftedUndirectedRegression, LiftedSolvabilityIsPreserved) {
  // The classifier end of the solvability round-trips hardness_test pins:
  // two_coloring's lift is solvable on paths (odd cycles are the obstacle).
  const ClassifiedProblem result =
      classify_lift(catalog::two_coloring(Topology::kDirectedPath));
  EXPECT_TRUE(result.solvability().solvable);
}

// ISSUE 3: the lifted O(1) problems must synthesize *runnable* constant
// algorithms on their undirected topologies — no gather-all fallback. The
// monoid-90 certificates keep the structured-regime radii large even
// under the per-problem margins (the seed-domination term scales with
// the input-alphabet size times the claim scale), so execution here is
// pinned in the full-view regime (n below the radius, where radius(n)
// clamps to the full-view threshold and the canonical solve answers);
// sub-linearity is pinned by the radius being a constant far below a
// huge n.
void ExpectLiftSynthesizesConstant(const PairwiseProblem& source, std::uint64_t seed) {
  const PairwiseProblem lifted = hardness::lift_to_undirected(source);
  const ClassifiedProblem result = classify(lifted);
  ASSERT_EQ(result.complexity(), ComplexityClass::kConstant) << result.summary();
  const auto algorithm = result.synthesize();
  EXPECT_NE(algorithm->name(), "gather-all");
  EXPECT_LT(algorithm->radius(std::size_t{1} << 40), std::size_t{1} << 40);
  Rng rng(seed);
  for (std::size_t n : {std::size_t{9}, std::size_t{257}}) {
    Instance instance = random_instance(lifted.topology(), n, lifted.num_inputs(), rng);
    const auto sim = simulate(*algorithm, lifted, instance);
    EXPECT_TRUE(sim.verdict.ok) << "n=" << n << ": " << sim.verdict.reason;
  }
}

TEST(LiftedUndirectedRegression, ColoringPathLiftSynthesizesConstant) {
  ExpectLiftSynthesizesConstant(catalog::coloring(3, Topology::kDirectedPath), 301);
}

TEST(LiftedUndirectedRegression, ConstantOutputPathLiftSynthesizesConstant) {
  ExpectLiftSynthesizesConstant(catalog::constant_output(Topology::kDirectedPath), 302);
}

TEST(LiftedUndirectedRegression, ColoringCycleLiftSynthesizesConstant) {
  ExpectLiftSynthesizesConstant(catalog::coloring(3), 303);
}

// ---------------------------------------------------------------------------
// Bit-identity pin for the gap deciders. For every Section 3.7 lift of the
// benchmark's lifted workload and every validation-catalog problem, a
// digest over both verdicts, the const-gap choice per element and the
// linear-gap value at 4096 seeded domain points (and at their reversed
// points) must equal the constant recorded before the deciders' hot loops
// were rewritten over distinct operands: the rewrite may change how fast
// the searches run, never what they return (verdicts, caps, conflict
// branches and thus certificate values).
// ---------------------------------------------------------------------------

/// Canonical "name@topology" tag for a source problem.
std::string source_tag(const PairwiseProblem& source) {
  std::string tag = to_string(source.topology());
  std::replace(tag.begin(), tag.end(), ' ', '-');
  return source.name() + "@" + tag;
}

struct DigestCase {
  std::string name;
  PairwiseProblem problem;
};

/// The 21 lifts: undirected lifts of eight path and five cycle sources,
/// and cycle lifts of the eight path sources.
std::vector<DigestCase> lift_cases() {
  const Topology path = Topology::kDirectedPath;
  const Topology cycle = Topology::kDirectedCycle;
  const std::vector<PairwiseProblem> path_sources = {
      catalog::coloring(3, path),     catalog::two_coloring(path),
      catalog::constant_output(path), catalog::copy_input(path),
      catalog::shift_input(path),     catalog::agreement(path),
      catalog::prefix_parity(path),   catalog::input_gated_coloring(path),
  };
  const std::vector<PairwiseProblem> cycle_sources = {
      catalog::coloring(3, cycle),   catalog::shift_input(cycle),
      catalog::copy_input(cycle),    catalog::maximal_independent_set(),
      catalog::input_gated_coloring(cycle),
  };
  std::vector<DigestCase> cases;
  for (const PairwiseProblem& s : path_sources) {
    cases.push_back({"undirected-lift:" + source_tag(s), hardness::lift_to_undirected(s)});
  }
  for (const PairwiseProblem& s : cycle_sources) {
    cases.push_back({"undirected-lift:" + source_tag(s), hardness::lift_to_undirected(s)});
  }
  for (const PairwiseProblem& s : path_sources) {
    cases.push_back({"cycle-lift:" + source_tag(s), hardness::lift_path_to_cycle(s)});
  }
  return cases;
}

std::vector<DigestCase> catalog_cases() {
  std::vector<DigestCase> cases;
  for (const CatalogEntry& entry : catalog::validation_catalog()) {
    cases.push_back({"catalog:" + source_tag(entry.problem), entry.problem});
  }
  return cases;
}

constexpr std::size_t kDigestProbes = 4096;

/// Digest of both gap deciders' outputs on one problem. Both deciders run
/// on every solvable problem (the const-gap search even where classify()
/// would stop at Theta(n)), so the pin covers every search the rewrite
/// touches.
std::uint64_t decider_digest(const PairwiseProblem& problem) {
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(problem));
  const bool solvable = check_solvability(monoid, problem.topology()).solvable;
  std::size_t h = hash_mix(0xD16E57, solvable ? 1 : 0);
  if (!solvable) return h;

  const LinearGapCertificate linear = decide_linear_gap(monoid);
  const ConstGapCertificate constant = decide_const_gap(monoid);
  h = hash_mix(h, linear.feasible ? 1 : 0);
  h = hash_mix(h, constant.feasible ? 1 : 0);
  h = hash_mix(h, constant.choice_per_element.size());
  for (const PeriodicChoice& c : constant.choice_per_element) {
    h = hash_mix(hash_mix(h, c.first), c.last);
  }
  if (!linear.feasible) return h;

  std::vector<std::size_t> contexts = monoid.layer_at(linear.ell_ctx);
  const std::vector<std::size_t> next = monoid.layer_at(linear.ell_ctx + 1);
  contexts.insert(contexts.end(), next.begin(), next.end());
  std::sort(contexts.begin(), contexts.end());
  contexts.erase(std::unique(contexts.begin(), contexts.end()), contexts.end());
  const std::size_t alpha = problem.num_inputs();
  const std::size_t kinds = is_cycle(problem.topology()) ? 1 : 3;
  Rng rng(0xB17);
  for (std::size_t probe = 0; probe < kDigestProbes; ++probe) {
    BlockPoint point;
    point.kind = static_cast<BlockKind>(rng.next_below(kinds));
    point.left = contexts[rng.next_below(contexts.size())];
    point.s0 = static_cast<Label>(rng.next_below(alpha));
    point.s1 = static_cast<Label>(rng.next_below(alpha));
    point.right = contexts[rng.next_below(contexts.size())];
    const BlockValue value = linear.value_at(point);
    h = hash_mix(hash_mix(h, value.a), value.b);
    const BlockPoint reversed = point.reversed(monoid);
    if (linear.contains(reversed)) {
      const BlockValue rev_value = linear.value_at(reversed);
      h = hash_mix(hash_mix(h, rev_value.a), rev_value.b);
    } else {
      h = hash_mix(h, 0xAB5E47);
    }
  }
  return h;
}

void ExpectDigests(const std::vector<DigestCase>& cases,
                   const std::vector<std::uint64_t>& expected) {
  ASSERT_EQ(cases.size(), expected.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::uint64_t digest = decider_digest(cases[i].problem);
    EXPECT_EQ(digest, expected[i])
        << cases[i].name << ": digest 0x" << std::hex << digest;
  }
}

TEST(DeciderDigest, LiftWorkloadIsBitIdentical) {
  ExpectDigests(lift_cases(), {
      0x0ee2c1e6d5e0380bull,  // undirected-lift:3-coloring@directed-path
      0x5efc3e5a51b1f60eull,  // undirected-lift:2-coloring@directed-path
      0x1ef925e7e4bdbdcaull,  // undirected-lift:constant-output@directed-path
      0x67fecd5ff9320150ull,  // undirected-lift:copy-input@directed-path
      0xeaeb693afdd8b5e6ull,  // undirected-lift:shift-input@directed-path
      0x5efc3e5a51b1f60eull,  // undirected-lift:secret-agreement@directed-path
      0x5efc3e5a51b1f60eull,  // undirected-lift:prefix-parity@directed-path
      0x1cfbe355b89e908cull,  // undirected-lift:input-gated-coloring@directed-path
      0x0ee2c1e6d5e0380bull,  // undirected-lift:3-coloring@directed-cycle
      0xeaeb693afdd8b5e6ull,  // undirected-lift:shift-input@directed-cycle
      0x67fecd5ff9320150ull,  // undirected-lift:copy-input@directed-cycle
      0x36723a18760fe7d1ull,  // undirected-lift:maximal-independent-set@directed-cycle
      0x1cfbe355b89e908cull,  // undirected-lift:input-gated-coloring@directed-cycle
      0x071012f90e6f7162ull,  // cycle-lift:3-coloring@directed-path
      0x5efc3e5a51b1f60eull,  // cycle-lift:2-coloring@directed-path
      0xccbb5435c062da75ull,  // cycle-lift:constant-output@directed-path
      0x9d2c26e4ba7310d2ull,  // cycle-lift:copy-input@directed-path
      0xfbd9917e7f0ed8bbull,  // cycle-lift:shift-input@directed-path
      0x5efc3e5a51b1f60eull,  // cycle-lift:secret-agreement@directed-path
      0x5efc3e5a51b1f60eull,  // cycle-lift:prefix-parity@directed-path
      0x7898fc68f0e782baull,  // cycle-lift:input-gated-coloring@directed-path
  });
}

TEST(DeciderDigest, CatalogIsBitIdentical) {
  ExpectDigests(catalog_cases(), {
      0xd1a0b1cde9f2d966ull,  // catalog:3-coloring@directed-cycle
      0xd1a0b1cde9f2d966ull,  // catalog:4-coloring@directed-cycle
      0xd1a0b1cde9f2d966ull,  // catalog:maximal-independent-set@directed-cycle
      0x1965c211ce591ed1ull,  // catalog:constant-output@directed-cycle
      0xebd10c12f05a96cdull,  // catalog:copy-input@directed-cycle
      0x92aab996daf759baull,  // catalog:shift-input@directed-cycle
      0x492f1e986de1b549ull,  // catalog:always-accept@directed-cycle
      0x8b3dd82d941f689bull,  // catalog:2-coloring@directed-cycle
      0x5efc3e5a51b1f60eull,  // catalog:2-coloring@directed-path
      0x8b3dd82d941f689bull,  // catalog:empty-problem@directed-cycle
      0x5efc3e5a51b1f60eull,  // catalog:prefix-parity@directed-path
      0x8b3dd82d941f689bull,  // catalog:prefix-parity@directed-cycle
      0x5efc3e5a51b1f60eull,  // catalog:secret-agreement@directed-cycle
      0x5efc3e5a51b1f60eull,  // catalog:secret-agreement@directed-path
      0xe72281f0129ad678ull,  // catalog:input-gated-coloring@directed-cycle
  });
}

}  // namespace
}  // namespace lclpath
