// The benchmark's own correctness oracle. It shares no code with the
// library's verifier (lcl/verifier) or its DP solver: the problem's
// constraint tables are copied once into plain boolean arrays, and every
// check below runs on those.
//
// Conventions follow the library's problem model: on paths the first node
// is checked against the first-node rule and the last node against the
// last-node mask; every edge is checked in storage order (undirected
// problems are orientation-symmetric, so the direction is immaterial);
// cycles add the wrap edge and have at least three nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lcl/problem.hpp"

namespace perfbench {

using lclpath::Label;
using lclpath::Word;

/// Plain copies of a problem's constraint tables.
struct Tables {
  std::size_t alpha = 0;  ///< input labels
  std::size_t beta = 0;   ///< output labels
  bool cycle = false;
  std::vector<std::uint8_t> node;   ///< [in * beta + out]
  std::vector<std::uint8_t> first;  ///< [in * beta + out], path start
  std::vector<std::uint8_t> last;   ///< [out], path end
  std::vector<std::uint8_t> edge;   ///< [from * beta + to]

  static Tables of(const lclpath::PairwiseProblem& problem);
  /// Shortest instance the topology admits.
  std::size_t min_length() const { return cycle ? 3 : 1; }
};

/// Checks every node and edge of a labeling; returns an empty string when
/// it is valid, otherwise a description of the first violation found.
std::string check_labeling(const Tables& t, const Word& inputs, const Word& outputs);

/// Whether the input word (an instance of admissible length) has any valid
/// labeling, by a forward dynamic program over label sets (one pass per
/// start label on cycles).
bool labelable(const Tables& t, const Word& inputs);

/// Result of quantifying over every admissible instance.
struct Solvability {
  bool decided = false;        ///< false when the state bound was hit
  bool solvable = true;
  Word counterexample;         ///< a shortest unlabelable word when !solvable
};

/// Decides whether every instance (paths of >= 1 node, cycles of >= 3
/// nodes) is labelable, by breadth-first search over the reachable
/// label-set states (paths) or start/end label relations (cycles, at most
/// 7 output labels). Gives up after `max_states` states.
Solvability decide_solvable(const Tables& t, std::size_t max_states = 200000);

/// The oracle's own sanity test: a valid labeling passes, the same
/// labeling with one output corrupted fails, and a labelable word is not
/// accepted as an unsolvability counterexample. Returns an empty string
/// on success.
std::string checker_self_test();

}  // namespace perfbench
