#include "checker.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_map>

#include "lcl/catalog.hpp"

namespace perfbench {

Tables Tables::of(const lclpath::PairwiseProblem& problem) {
  Tables t;
  t.alpha = problem.num_inputs();
  t.beta = problem.num_outputs();
  t.cycle = lclpath::is_cycle(problem.topology());
  t.node.assign(t.alpha * t.beta, 0);
  t.first.assign(t.alpha * t.beta, 0);
  t.last.assign(t.beta, 0);
  t.edge.assign(t.beta * t.beta, 0);
  for (Label in = 0; in < t.alpha; ++in) {
    for (Label out = 0; out < t.beta; ++out) {
      t.node[in * t.beta + out] = problem.node_ok(in, out) ? 1 : 0;
      t.first[in * t.beta + out] = problem.node_first_ok(in, out) ? 1 : 0;
    }
  }
  for (Label a = 0; a < t.beta; ++a) {
    t.last[a] = problem.last_ok(a) ? 1 : 0;
    for (Label b = 0; b < t.beta; ++b) {
      t.edge[a * t.beta + b] = problem.edge_ok(a, b) ? 1 : 0;
    }
  }
  return t;
}

std::string check_labeling(const Tables& t, const Word& inputs, const Word& outputs) {
  const std::size_t n = inputs.size();
  if (n == 0 || outputs.size() != n) return "size mismatch";
  if (n < t.min_length()) return "instance shorter than the topology admits";
  for (std::size_t v = 0; v < n; ++v) {
    if (inputs[v] >= t.alpha || outputs[v] >= t.beta) {
      return "label out of range at node " + std::to_string(v);
    }
    const bool first_node = !t.cycle && v == 0;
    const auto& table = first_node ? t.first : t.node;
    if (!table[inputs[v] * t.beta + outputs[v]]) {
      return "node rule violated at node " + std::to_string(v);
    }
  }
  if (!t.cycle && !t.last[outputs[n - 1]]) return "last-node rule violated";
  for (std::size_t v = 1; v < n; ++v) {
    if (!t.edge[outputs[v - 1] * t.beta + outputs[v]]) {
      return "edge rule violated at edge " + std::to_string(v - 1) + "->" +
             std::to_string(v);
    }
  }
  if (t.cycle && !t.edge[outputs[n - 1] * t.beta + outputs[0]]) {
    return "edge rule violated at the wrap edge";
  }
  return {};
}

namespace {

using Mask = std::uint64_t;

/// Outputs a node with input `in` may take after a predecessor whose
/// possible outputs are `prev`.
Mask step(const Tables& t, Mask prev, Label in) {
  Mask next = 0;
  for (Label y = 0; y < t.beta; ++y) {
    if (!t.node[in * t.beta + y]) continue;
    for (Label x = 0; x < t.beta; ++x) {
      if (((prev >> x) & 1u) && t.edge[x * t.beta + y]) {
        next |= Mask{1} << y;
        break;
      }
    }
  }
  return next;
}

}  // namespace

bool labelable(const Tables& t, const Word& inputs) {
  const std::size_t n = inputs.size();
  if (n < t.min_length()) throw std::invalid_argument("labelable: inadmissible length");
  if (t.beta > 64) throw std::invalid_argument("labelable: too many output labels");
  if (!t.cycle) {
    Mask reach = 0;
    for (Label y = 0; y < t.beta; ++y) {
      if (t.first[inputs[0] * t.beta + y]) reach |= Mask{1} << y;
    }
    for (std::size_t v = 1; v < n && reach != 0; ++v) reach = step(t, reach, inputs[v]);
    for (Label y = 0; y < t.beta; ++y) {
      if (((reach >> y) & 1u) && t.last[y]) return true;
    }
    return false;
  }
  for (Label start = 0; start < t.beta; ++start) {
    if (!t.node[inputs[0] * t.beta + start]) continue;
    Mask reach = Mask{1} << start;
    for (std::size_t v = 1; v < n && reach != 0; ++v) reach = step(t, reach, inputs[v]);
    for (Label y = 0; y < t.beta; ++y) {
      if (((reach >> y) & 1u) && t.edge[y * t.beta + start]) return true;
    }
  }
  return false;
}

namespace {

// Path state: the set of outputs the last node can take (bit y).
// Cycle state: a relation, bit (s * beta + y) = "some labeling of the word
// so far starts with s and ends with y", shifted left by two bits that hold
// the word length capped at 3 (cycles are admissible from 3 nodes on).
struct Search {
  const Tables& t;
  std::unordered_map<std::uint64_t, std::size_t> index;  // key -> state
  std::vector<std::pair<std::size_t, Label>> parent;     // state -> (parent, sigma)
  std::vector<std::uint64_t> key;
  std::deque<std::size_t> queue;

  void add(std::uint64_t k, std::size_t from, Label sigma) {
    if (!index.emplace(k, key.size()).second) return;
    key.push_back(k);
    parent.emplace_back(from, sigma);
    queue.push_back(key.size() - 1);
  }

  Word word(std::size_t state) const {
    Word w;
    for (std::size_t at = state; at != static_cast<std::size_t>(-1);
         at = parent[at].first) {
      w.push_back(parent[at].second);
    }
    return Word(w.rbegin(), w.rend());
  }
};

std::uint64_t relation_step(const Tables& t, std::uint64_t rel, Label in) {
  std::uint64_t next = 0;
  for (Label s = 0; s < t.beta; ++s) {
    const Mask row = (rel >> (s * t.beta)) & ((Mask{1} << t.beta) - 1);
    if (row != 0) next |= step(t, row, in) << (s * t.beta);
  }
  return next;
}

bool relation_closes(const Tables& t, std::uint64_t rel) {
  for (Label s = 0; s < t.beta; ++s) {
    for (Label y = 0; y < t.beta; ++y) {
      if (((rel >> (s * t.beta + y)) & 1u) && t.edge[y * t.beta + s]) return true;
    }
  }
  return false;
}

}  // namespace

Solvability decide_solvable(const Tables& t, std::size_t max_states) {
  Solvability result;
  // Cycle keys pack a beta x beta relation and a 2-bit length into 64 bits.
  if (t.beta > 7) return result;
  Search search{t, {}, {}, {}, {}};
  const std::size_t none = static_cast<std::size_t>(-1);
  for (Label in = 0; in < t.alpha; ++in) {
    std::uint64_t key = 0;
    for (Label y = 0; y < t.beta; ++y) {
      if (t.cycle && t.node[in * t.beta + y]) key |= std::uint64_t{1} << (y * t.beta + y);
      if (!t.cycle && t.first[in * t.beta + y]) key |= std::uint64_t{1} << y;
    }
    search.add(t.cycle ? key << 2 | 1 : key, none, in);
  }
  while (!search.queue.empty()) {
    if (search.key.size() > max_states) return result;
    const std::size_t at = search.queue.front();
    search.queue.pop_front();
    const std::uint64_t key = search.key[at];
    if (!t.cycle) {
      bool ok = false;
      for (Label y = 0; y < t.beta; ++y) ok = ok || (((key >> y) & 1u) && t.last[y]);
      if (!ok) {
        result.decided = true;
        result.solvable = false;
        result.counterexample = search.word(at);
        return result;
      }
      for (Label in = 0; in < t.alpha; ++in) search.add(step(t, key, in), at, in);
      continue;
    }
    const std::uint64_t relation = key >> 2;
    const std::uint64_t length = key & 3;
    if (length == 3 && !relation_closes(t, relation)) {
      result.decided = true;
      result.solvable = false;
      result.counterexample = search.word(at);
      return result;
    }
    const std::uint64_t next_length = length == 3 ? 3 : length + 1;
    for (Label in = 0; in < t.alpha; ++in) {
      search.add(relation_step(t, relation, in) << 2 | next_length, at, in);
    }
  }
  result.decided = true;
  return result;
}

std::string checker_self_test() {
  using lclpath::Topology;
  // 3-coloring of a directed path: 0 1 2 0 1 is valid; repeating a color
  // at node 2 breaks the edge rule.
  const Tables path = Tables::of(lclpath::catalog::coloring(3, Topology::kDirectedPath));
  const Word inputs(5, 0);
  Word outputs = {0, 1, 2, 0, 1};
  if (!check_labeling(path, inputs, outputs).empty()) return "valid coloring rejected";
  outputs[2] = 1;
  if (check_labeling(path, inputs, outputs).empty()) return "corrupted coloring accepted";
  // A labelable word is no counterexample; an odd cycle is one for
  // 2-coloring on cycles.
  const Tables two = Tables::of(lclpath::catalog::two_coloring(Topology::kDirectedCycle));
  if (!labelable(two, Word(4, 0))) return "even cycle reported unlabelable";
  if (labelable(two, Word(3, 0))) return "odd cycle reported labelable";
  const Solvability s = decide_solvable(two);
  if (!s.decided || s.solvable || s.counterexample.size() != 3) {
    return "2-coloring on cycles not found unsolvable by a 3-node witness";
  }
  if (!decide_solvable(Tables::of(lclpath::catalog::coloring(3))).solvable) {
    return "3-coloring on cycles reported unsolvable";
  }
  // Path end rule: forbid the last node's only option.
  lclpath::PairwiseProblem end_rule = lclpath::catalog::coloring(2, Topology::kDirectedPath);
  end_rule.forbid_last(0);
  const Tables ends = Tables::of(end_rule);
  if (check_labeling(ends, Word(2, 0), Word{1, 0}).empty()) return "last-node rule ignored";
  if (!check_labeling(ends, Word(2, 0), Word{0, 1}).empty()) return "valid path rejected";
  return {};
}

}  // namespace perfbench
