#include "decide/linear_gap.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/id_table.hpp"

namespace lclpath {

namespace {

/// One throw site so both certificate backends report an out-of-domain
/// lookup with the identical message (the contract tests pin it).
[[noreturn]] void throw_point_not_in_domain() {
  throw std::logic_error("LinearGapCertificate::value_at: point not in domain");
}

}  // namespace

std::size_t BlockPointHash::operator()(const BlockPoint& p) const {
  std::size_t h = hash_mix(static_cast<std::size_t>(p.kind), p.left);
  h = hash_mix(h, p.s0);
  h = hash_mix(h, p.s1);
  h = hash_mix(h, p.right);
  return h;
}

BlockPoint BlockPoint::reversed(const Monoid& monoid) const {
  BlockKind k = kind;
  if (k == BlockKind::kLeftEnd) {
    k = BlockKind::kRightEnd;
  } else if (k == BlockKind::kRightEnd) {
    k = BlockKind::kLeftEnd;
  }
  return BlockPoint{k, monoid.reversed_index(right), s1, s0, monoid.reversed_index(left)};
}

// ---------------------------------------------------------------------------
// LazyFeasibleFunction — the factorized engine's class-level solution,
// resolved per point on demand.
// ---------------------------------------------------------------------------

class LazyFeasibleFunction {
 public:
  /// Problem shape.
  bool cycle = true;
  std::size_t alpha = 0;  ///< |Sigma_in|
  std::size_t beta = 0;   ///< |Sigma_out|

  /// Sorted context element list and the element -> position index.
  std::vector<std::size_t> contexts;
  std::unordered_map<std::size_t, std::size_t> ctx_pos;
  /// Context quotient (see FactorizedSearch::build_classes).
  std::vector<std::size_t> ctx_class;  ///< [position] -> class
  std::vector<std::size_t> ctx_pair;   ///< [position] -> (class, rev class) pair

  /// Final per-(pair, input) candidate filters derived from the solved
  /// caps: p[pair][s0] = valid va set, q[pair][s1] = valid vb set.
  std::vector<std::vector<BitVector>> p;
  std::vector<std::vector<BitVector>> q;
  /// Endpoint filters (paths only): prefix_ok[class][s0] = va set of a
  /// kLeftEnd block, suffix_ok[class] = vb set of a kRightEnd block.
  std::vector<std::vector<BitVector>> prefix_ok;
  std::vector<BitVector> suffix_ok;
  /// cand[s0][s1] = local candidate filter node(s0,va) & node(s1,vb) &
  /// edge(va,vb).
  std::vector<std::vector<BitMatrix>> cand;

  std::size_t domain_size() const {
    const std::size_t kinds = cycle ? 1 : 3;
    return kinds * contexts.size() * contexts.size() * alpha * alpha;
  }

  bool contains(const BlockPoint& point) const {
    if (cycle && point.kind != BlockKind::kInterior) return false;
    if (point.s0 >= alpha || point.s1 >= alpha) return false;
    return ctx_pos.contains(point.left) && ctx_pos.contains(point.right);
  }

  BlockValue value_at(const BlockPoint& point) const {
    if ((cycle && point.kind != BlockKind::kInterior) || point.s0 >= alpha ||
        point.s1 >= alpha) {
      throw_point_not_in_domain();
    }
    const auto left = ctx_pos.find(point.left);
    const auto right = ctx_pos.find(point.right);
    if (left == ctx_pos.end() || right == ctx_pos.end()) throw_point_not_in_domain();
    return value_for(point.kind, left->second, point.s0, point.s1, right->second);
  }

  /// The chosen value of the domain point (kind, contexts[l], s0, s1,
  /// contexts[r]). Depends on the contexts only through their class (end
  /// filters) or pair (interior filters), so the first-valid scan runs
  /// once per class tuple and is memoized; lookups are O(1) afterwards.
  /// Thread-safe: the memo is the only mutable state; hits take a shared
  /// lock (concurrent simulator lookups in the batch pool don't serialize)
  /// and first resolution scans the immutable tables outside any lock —
  /// racing resolvers compute the same value, and the loser's emplace is a
  /// no-op.
  BlockValue value_for(BlockKind kind, std::size_t l, Label s0, Label s1,
                       std::size_t r) const {
    const std::size_t key_l =
        kind == BlockKind::kLeftEnd ? ctx_class[l] : ctx_pair[l];
    const std::size_t key_r =
        kind == BlockKind::kRightEnd ? ctx_class[r] : ctx_pair[r];
    const std::size_t stride = std::max(p.size(), prefix_ok.size()) + 1;
    const std::uint64_t key =
        (((static_cast<std::uint64_t>(kind) * stride + key_l) * alpha + s0) * alpha +
         s1) *
            stride +
        key_r;
    {
      std::shared_lock<std::shared_mutex> lock(memo_mutex_);
      auto it = memo_.find(key);
      if (it != memo_.end()) return it->second;
    }
    const BitVector& va_set =
        kind == BlockKind::kLeftEnd ? prefix_ok[key_l][s0] : p[key_l][s0];
    const BitVector& vb_set =
        kind == BlockKind::kRightEnd ? suffix_ok[key_r] : q[key_r][s1];
    const BitMatrix& pairs = cand[s0][s1];
    for (Label va = 0; va < beta; ++va) {
      if (!va_set.get(va)) continue;
      for (Label vb = 0; vb < beta; ++vb) {
        if (!pairs.get(va, vb) || !vb_set.get(vb)) continue;
        const BlockValue value{va, vb};
        std::lock_guard<std::shared_mutex> write(memo_mutex_);
        memo_.emplace(key, value);
        return value;
      }
    }
    throw std::logic_error("decide_linear_gap: factorized certificate extraction failed");
  }

  void for_each_point(
      const std::function<void(const BlockPoint&, const BlockValue&)>& fn) const {
    auto emit_kind = [&](BlockKind kind) {
      for (std::size_t l = 0; l < contexts.size(); ++l) {
        for (Label s0 = 0; s0 < alpha; ++s0) {
          for (Label s1 = 0; s1 < alpha; ++s1) {
            for (std::size_t r = 0; r < contexts.size(); ++r) {
              const BlockPoint point{kind, contexts[l], s0, s1, contexts[r]};
              fn(point, value_for(kind, l, s0, s1, r));
            }
          }
        }
      }
    };
    emit_kind(BlockKind::kInterior);
    if (!cycle) {
      emit_kind(BlockKind::kLeftEnd);
      emit_kind(BlockKind::kRightEnd);
    }
  }

 private:
  mutable std::shared_mutex memo_mutex_;
  mutable std::unordered_map<std::uint64_t, BlockValue> memo_;
};

// ---------------------------------------------------------------------------
// LinearGapCertificate — backend dispatch.
// ---------------------------------------------------------------------------

std::size_t LinearGapCertificate::domain_size() const {
  if (lazy_ != nullptr) return lazy_->domain_size();
  return domain_.size();
}

bool LinearGapCertificate::contains(const BlockPoint& point) const {
  if (lazy_ != nullptr) return lazy_->contains(point);
  return index_.contains(point);
}

BlockValue LinearGapCertificate::value_at(const BlockPoint& point) const {
  if (lazy_ != nullptr) return lazy_->value_at(point);
  auto it = index_.find(point);
  if (it == index_.end()) throw_point_not_in_domain();
  return choice_[it->second];
}

void LinearGapCertificate::for_each_point(
    const std::function<void(const BlockPoint&, const BlockValue&)>& fn) const {
  if (lazy_ != nullptr) {
    lazy_->for_each_point(fn);
    return;
  }
  for (std::size_t i = 0; i < domain_.size(); ++i) fn(domain_[i], choice_[i]);
}

void LinearGapCertificate::adopt_dense(
    std::vector<BlockPoint> domain, std::vector<BlockValue> choice,
    std::unordered_map<BlockPoint, std::size_t, BlockPointHash> index) {
  domain_ = std::move(domain);
  choice_ = std::move(choice);
  index_ = std::move(index);
  if (index_.empty() && !domain_.empty()) {
    index_.reserve(domain_.size());
    for (std::size_t i = 0; i < domain_.size(); ++i) index_.emplace(domain_[i], i);
  }
  lazy_ = nullptr;
}

void LinearGapCertificate::adopt_lazy(
    std::shared_ptr<const LazyFeasibleFunction> function) {
  domain_.clear();
  choice_.clear();
  index_.clear();
  lazy_ = std::move(function);
}

namespace {

/// Context length both engines search at (and both certificates record as
/// ell_ctx); linear_gap_domain_size must stay in lockstep with it.
std::size_t context_length(const Monoid& monoid) { return monoid.size() + 5; }

/// Context element set shared by both engines: the monoid layers at word
/// lengths ell_ctx and ell_ctx + 1, sorted and deduplicated.
std::vector<std::size_t> context_elements(const Monoid& monoid, std::size_t ell_ctx) {
  std::vector<std::size_t> contexts = monoid.layer_at(ell_ctx);
  std::vector<std::size_t> next = monoid.layer_at(ell_ctx + 1);
  contexts.insert(contexts.end(), next.begin(), next.end());
  std::sort(contexts.begin(), contexts.end());
  contexts.erase(std::unique(contexts.begin(), contexts.end()), contexts.end());
  return contexts;
}

// =====================================================================
// Factorized engine (LinearGapEngine::kFactorized)
//
// The pair constraint between p1 (left role, value v1) and p2 (right role,
// value v2) is G(p1.right, p2.left, p2.s0)[sym1][sym2] for every symbol
// sym1 the p1 side can present rightwards and every sym2 the p2 side can
// present leftwards, where G(e1, e2, s0) = fwd(e1) * fwd(e2) * A(s0). On
// directed topologies sym1 = v1.b and sym2 = v2.a; on undirected ones the
// reversed placements add sym1 = value(rho(p1)).a and sym2 =
// value(rho(p2)).b through the *same* G (rho = point reversal).
//
// So an assignment is consistent iff its *realized aggregate sets*
//
//   emit(e)       = all right-facing symbols presented at right-context e
//   accept(e, s0) = all left-facing symbols presented at (left-context e,
//                   first block input s0)
//
// are pairwise glued: forall e1, (e2, s0): emit(e1) x accept(e2, s0)
// subset G(e1, e2, s0). A point's value feeds these sets only through its
// own classes and (undirected) its reversed point's classes:
//
//   left role:  v.b -> emit(p.right)   and  v.b -> accept(rev(p.right), p.s1)
//   right role: v.a -> accept(p.left, p.s0)  and  v.a -> emit(rev(p.left))
//
// (the second member of each line only on undirected topologies). Since
// every (context, s0) combination is realized by some interior point, a
// solution's realized sets are nonempty everywhere; and since the glued
// property is inherited by subsets, feasibility is equivalent to the
// existence of *cap* tables — one symbol set per aggregate class — that
// are pairwise glued and under which every domain point keeps at least one
// candidate value. The search below runs entirely over caps:
//
//   1. start from all-ones caps;
//   2. shrink: recompute each cap as the union of the projections of the
//      candidate values still valid under the caps (arc consistency over
//      the quotient spaces), failing if any point class loses all
//      candidates;
//   3. support pruning: drop an emitted symbol with an empty glue row
//      against some accept cap, and an accepted symbol no emitted symbol
//      of some context glues with (dense support counting);
//   4. at the fixpoint, any remaining violation emit(e1) !subset-glued
//      accept(e2, s0) is a two-way branch: forbid the emitted symbol or
//      the accepted one. Each branch removes one cap bit, so the search
//      tree is finite and in practice shallow.
//
// A pass is independent of the number of domain points (|contexts|^2 *
// |Sigma_in|^2 * 3), which is what makes lifted undirected problems
// classifiable at all. |classes| <= |contexts|: the search only reads a
// context through its fwd matrix, its prefix vector (paths) and the class
// of its reversal, so contexts equal on those are quotiented into one
// class (their caps stay equal through every pass, and a conflict branch
// that removes a symbol removes it class-wide — complete, because a
// symbol surviving at any member re-creates the same conflict).
//
// The quadratic loops run over distinct operands, not over classes:
//
//   * realizability (shrink) tests each distinct filter vector against
//     each distinct partner filter — O(|Sigma_in|^2 * D_x * D_q)
//     intersections, D = distinct vectors per input, instead of
//     |Sigma_in|^2 * |pairs|^2;
//   * support pruning uses the column-support identity: e_s * G meets the
//     accept cap iff row s of fwd(c1) meets colsup(c2, s0) = head * cap^T,
//     and the accept support is (emit * fwd(c1)) * head — O(|classes|^2 *
//     |Sigma_in|) word-level products instead of that times beta;
//   * the conflict scan groups c1 by its set of distinct emitted rows and
//     (c2, s0) by (head, accept cap), and evaluates each group pair once,
//     scanning in the original order so the branch taken is unchanged.
//
// Each is exact — the same predicate on the same operands — so caps,
// conflicts and certificates are bit-identical to the per-class loops.
// =====================================================================

/// A gluing violation surviving the propagation fixpoint: emitted symbol
/// sym1 at contexts[c1] does not glue with accepted symbol sym2 at
/// (contexts[c2], s0). Exactly one of the two symbols must go.
struct GlueConflict {
  std::size_t c1 = 0;
  std::size_t c2 = 0;
  Label s0 = 0;
  Label sym1 = 0;
  Label sym2 = 0;
};

/// The search state: symbol caps per aggregate class. Indices are
/// positions into the sorted context-element list, not monoid elements.
struct AggregateCaps {
  std::vector<BitVector> emit;                 ///< [context] -> b-side caps
  std::vector<std::vector<BitVector>> accept;  ///< [context][s0] -> a-side caps
};

class FactorizedSearch {
 public:
  explicit FactorizedSearch(const Monoid& monoid,
                            const ExecutionBudget* budget = nullptr)
      : budget_(budget),
        monoid_(monoid),
        ts_(monoid.transitions()),
        problem_(ts_.problem()),
        cycle_(is_cycle(problem_.topology())),
        directed_(is_directed(problem_.topology())),
        beta_(ts_.num_outputs()),
        alpha_(ts_.num_inputs()),
        ell_ctx_(context_length(monoid)),
        contexts_(context_elements(monoid, ell_ctx_)),
        n_ctx_(contexts_.size()) {
    build_classes();
    build_tables();
  }

  LinearGapCertificate run(CertificateMode mode) {
    LinearGapCertificate cert;
    cert.ell_ctx = ell_ctx_;

    AggregateCaps caps;
    caps.emit.assign(n_cls_, BitVector::ones(beta_));
    caps.accept.assign(n_cls_, std::vector<BitVector>(alpha_, BitVector::ones(beta_)));

    // Depth-first over conflict branches, iterative (PR-1 lesson: one
    // stack frame per decision can get deep on lifted problems).
    struct BranchFrame {
      AggregateCaps saved;
      GlueConflict conflict;
      bool tried_accept = false;
    };
    std::vector<BranchFrame> stack;
    while (true) {
      budget_checkpoint(budget_);
      bool alive = propagate(caps);
      GlueConflict conflict;
      bool conflicted = false;
      if (alive) conflicted = first_conflict(caps, conflict);
      if (alive && !conflicted) {
        const std::size_t points =
            (cycle_ ? 1 : 3) * n_ctx_ * n_ctx_ * alpha_ * alpha_;
        const bool dense = mode == CertificateMode::kDense ||
                           (mode == CertificateMode::kAuto &&
                            points <= kCertificateAutoDenseLimit);
        if (dense) {
          fill_certificate(caps, cert);
        } else {
          fill_lazy(caps, cert);
        }
        return cert;
      }
      if (alive) {
        stack.push_back(BranchFrame{caps, conflict, false});
        caps.emit[conflict.c1].set(conflict.sym1, false);
        continue;
      }
      // Dead end: take the deepest branch whose accept side is untried.
      while (!stack.empty() && stack.back().tried_accept) stack.pop_back();
      if (stack.empty()) return cert;  // infeasible
      BranchFrame& frame = stack.back();
      frame.tried_accept = true;
      caps = frame.saved;
      caps.accept[frame.conflict.c2][frame.conflict.s0].set(frame.conflict.sym2, false);
    }
  }

 private:
  const ExecutionBudget* budget_;
  const Monoid& monoid_;
  const TransitionSystem& ts_;
  const PairwiseProblem& problem_;
  const bool cycle_;
  const bool directed_;
  const std::size_t beta_;
  const std::size_t alpha_;
  const std::size_t ell_ctx_;
  const std::vector<std::size_t> contexts_;
  const std::size_t n_ctx_;

  /// Context quotient, two levels. Caps and glue tables live on *classes*
  /// (equal fwd matrix + equal prefix vector on paths); the per-point
  /// value filters additionally depend on the class of the reversed
  /// context, so they live on the distinct (class, reversed class) *pairs*
  /// actually realized by some context.
  std::vector<std::size_t> ctx_class_;  ///< [context] -> class
  std::vector<std::size_t> cls_rep_;    ///< [class] -> a representative context
  std::size_t n_cls_ = 0;
  std::vector<std::size_t> ctx_pair_;   ///< [context] -> pair id
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;  ///< (class, rev class)
  std::vector<std::size_t> rev_pair_;   ///< [pair (k, k')] -> pair (k', k)
  std::size_t n_pairs_ = 0;

  /// fwd_[k] = fwd(class k).
  std::vector<const BitMatrix*> fwd_;
  /// Glue tables, each value stored once. The glue row of sym1 at class
  /// k1 against (k2, s0) is rows_[row_id_[k1][sym1]] *
  /// heads_[head_id_[k2][s0]], where rows_ holds the distinct e_sym *
  /// fwd(k) and heads_ the distinct fwd(k) * A(s0) — no per-(k1, k2, s0)
  /// matrix is stored. cols_[col_id_[h * beta + y]] is column y of
  /// heads_[h].
  std::vector<BitVector> rows_;
  std::vector<std::vector<std::uint32_t>> row_id_;
  std::vector<BitMatrix> heads_;
  std::vector<std::vector<std::uint32_t>> head_id_;
  std::vector<BitVector> cols_;
  std::vector<std::uint32_t> col_id_;
  /// cand_[s0][s1][va][vb] = candidate filter node(s0,va) & node(s1,vb) &
  /// edge(va,vb); cand_t_ is its transpose.
  std::vector<std::vector<BitMatrix>> cand_;
  std::vector<std::vector<BitMatrix>> cand_t_;
  /// Endpoint filters (paths only): va sets passing the prefix check per
  /// (left class, s0); vb sets passing the suffix check per right class.
  std::vector<std::vector<BitVector>> prefix_ok_;
  std::vector<BitVector> suffix_ok_;
  /// Cap-independent endpoint projections, one per distinct endpoint
  /// filter: lend_b_[s0][s1] = b-symbols of the candidates whose va passes
  /// a prefix_ok_[.][s0] filter; rend_a_[s0][s1] = a-symbols of the
  /// candidates whose vb passes a suffix_ok_ filter.
  std::vector<std::vector<std::vector<BitVector>>> lend_b_;
  std::vector<std::vector<std::vector<BitVector>>> rend_a_;

  // Per-pass scratch (allocated once; recomputed from caps each pass).
  std::vector<std::vector<BitVector>> p_;   ///< [pair][s0]: va filter
  std::vector<std::vector<BitVector>> q_;   ///< [pair][s1]: vb filter
  /// [s0][s1][r] projections of the r-th distinct p_[.][s0] (xb_) /
  /// q_[.][s1] (ya_) filter; grown on demand, never shrunk.
  std::vector<std::vector<std::vector<BitVector>>> xb_;
  std::vector<std::vector<std::vector<BitVector>>> ya_;
  std::vector<BitVector> new_emit_;                      ///< [class]
  std::vector<std::vector<BitVector>> new_accept_;       ///< [class][s0]
  std::vector<BitVector> all_b_;                         ///< [s1]
  std::vector<BitVector> all_a_;                         ///< [s0]
  BitVector row_scratch_;
  /// Dedup scratch: one pair per distinct p_[.][s] / q_[.][s] (shrink),
  /// and the interning table behind every group.
  std::vector<std::vector<std::size_t>> distinct_q_;
  std::vector<std::vector<std::size_t>> distinct_p_;
  IdTable ids_;
  /// Glue pass: colsup_[k * alpha + s0] = head(k, s0) * accept[k][s0]^T
  /// and reach_[k] = emit[k] * fwd(k), one index per distinct vector of
  /// each, and per-pass verdict memos over distinct rows / columns.
  std::vector<BitVector> colsup_;
  std::vector<BitVector> reach_;
  std::vector<std::size_t> distinct_colsup_;
  std::vector<std::size_t> distinct_reach_;
  std::vector<std::uint8_t> row_verdict_;
  std::vector<std::uint8_t> col_verdict_;
  /// Conflict-scan groups: emitted-row-set keys (sorted distinct row ids
  /// per class, key_off_ delimited), the group of each class and of each
  /// (class, s0), a representative class per emit group, and the
  /// per-group-pair verdict memo.
  std::vector<std::uint32_t> key_buf_;
  std::vector<std::size_t> key_off_;
  std::vector<std::size_t> emit_group_;
  std::vector<std::size_t> accept_group_;
  std::vector<std::size_t> emit_group_rep_;
  std::vector<std::uint8_t> glued_memo_;

  void build_classes() {
    // Classes: equal fwd matrix (and, on paths, equal prefix vector — the
    // only other per-context data any table reads).
    ctx_class_.assign(n_ctx_, 0);
    cls_rep_.clear();
    {
      std::unordered_map<std::size_t, std::vector<std::size_t>> buckets;
      for (std::size_t c = 0; c < n_ctx_; ++c) {
        const MonoidElement& elem = monoid_.element(contexts_[c]);
        std::size_t h = elem.fwd.hash();
        if (!cycle_) h = hash_mix(h, elem.pvec.hash());
        auto& bucket = buckets[h];
        bool found = false;
        for (std::size_t k : bucket) {
          const MonoidElement& rep = monoid_.element(contexts_[cls_rep_[k]]);
          if (rep.fwd == elem.fwd && (cycle_ || rep.pvec == elem.pvec)) {
            ctx_class_[c] = k;
            found = true;
            break;
          }
        }
        if (!found) {
          ctx_class_[c] = cls_rep_.size();
          bucket.push_back(cls_rep_.size());
          cls_rep_.push_back(c);
        }
      }
    }
    n_cls_ = cls_rep_.size();

    // Pairs: (class, class of the reversed context). Directed problems
    // never read the reversal, so every class is its own pair.
    ctx_pair_.assign(n_ctx_, 0);
    pairs_.clear();
    if (directed_) {
      for (std::size_t k = 0; k < n_cls_; ++k) pairs_.emplace_back(k, k);
      for (std::size_t c = 0; c < n_ctx_; ++c) ctx_pair_[c] = ctx_class_[c];
      n_pairs_ = n_cls_;
      rev_pair_.resize(n_pairs_);
      for (std::size_t i = 0; i < n_pairs_; ++i) rev_pair_[i] = i;
      return;
    }
    std::unordered_map<std::size_t, std::size_t> ctx_pos;
    for (std::size_t c = 0; c < n_ctx_; ++c) ctx_pos.emplace(contexts_[c], c);
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> pair_index;
    for (std::size_t c = 0; c < n_ctx_; ++c) {
      auto it = ctx_pos.find(monoid_.reversed_index(contexts_[c]));
      if (it == ctx_pos.end()) {
        throw std::logic_error("decide_linear_gap: reversed context missing");
      }
      const auto key = std::pair(ctx_class_[c], ctx_class_[it->second]);
      auto [pit, inserted] = pair_index.emplace(key, pairs_.size());
      if (inserted) pairs_.push_back(key);
      ctx_pair_[c] = pit->second;
    }
    n_pairs_ = pairs_.size();
    rev_pair_.resize(n_pairs_);
    for (std::size_t i = 0; i < n_pairs_; ++i) {
      // (k', k) is realized by the reversal of any context realizing (k, k').
      auto it = pair_index.find(std::pair(pairs_[i].second, pairs_[i].first));
      if (it == pair_index.end()) {
        throw std::logic_error("decide_linear_gap: reversed pair missing");
      }
      rev_pair_[i] = it->second;
    }
  }

  void build_tables() {
    ids_.reserve(std::max(n_pairs_, n_cls_ * std::max(alpha_, beta_)));
    BitVector unit(beta_);
    BitVector scratch(beta_);
    BitMatrix head(beta_);
    fwd_.resize(n_cls_);
    row_id_.assign(n_cls_, std::vector<std::uint32_t>(beta_));
    ids_.clear();
    for (std::size_t k = 0; k < n_cls_; ++k) {
      budget_checkpoint(budget_);
      fwd_[k] = &monoid_.element(contexts_[cls_rep_[k]]).fwd;
      for (Label sym = 0; sym < beta_; ++sym) {
        unit.set(sym, true);
        unit.multiply_into(*fwd_[k], scratch);
        unit.set(sym, false);
        row_id_[k][sym] = intern_value(scratch, rows_);
      }
    }
    head_id_.assign(n_cls_, std::vector<std::uint32_t>(alpha_));
    ids_.clear();
    for (std::size_t k = 0; k < n_cls_; ++k) {
      budget_checkpoint(budget_);
      for (Label s0 = 0; s0 < alpha_; ++s0) {
        fwd_[k]->multiply_into(ts_.step(s0), head);
        head_id_[k][s0] = intern_value(head, heads_);
      }
    }
    col_id_.assign(heads_.size() * beta_, 0);
    ids_.clear();
    for (std::size_t h = 0; h < heads_.size(); ++h) {
      budget_checkpoint(budget_);
      for (Label y = 0; y < beta_; ++y) {
        unit.set(y, true);
        heads_[h].rows_meeting_into(unit, scratch);
        unit.set(y, false);
        col_id_[h * beta_ + y] = intern_value(scratch, cols_);
      }
    }

    cand_.assign(alpha_, std::vector<BitMatrix>(alpha_));
    cand_t_.assign(alpha_, std::vector<BitMatrix>(alpha_));
    for (Label s0 = 0; s0 < alpha_; ++s0) {
      for (Label s1 = 0; s1 < alpha_; ++s1) {
        BitMatrix m(beta_);
        for (Label va = 0; va < beta_; ++va) {
          if (!problem_.node_ok(s0, va)) continue;
          for (Label vb = 0; vb < beta_; ++vb) {
            if (!problem_.node_ok(s1, vb)) continue;
            if (!problem_.edge_ok(va, vb)) continue;
            m.set(va, vb, true);
          }
        }
        cand_t_[s0][s1] = m.transposed();
        cand_[s0][s1] = std::move(m);
      }
    }

    if (!cycle_) {
      prefix_ok_.assign(n_cls_, std::vector<BitVector>(alpha_));
      suffix_ok_.assign(n_cls_, BitVector(beta_));
      for (std::size_t k = 0; k < n_cls_; ++k) {
        budget_checkpoint(budget_);
        const MonoidElement& elem = monoid_.element(contexts_[cls_rep_[k]]);
        for (Label vb = 0; vb < beta_; ++vb) {
          if (rows_[row_id_[k][vb]].intersects(ts_.last_mask())) suffix_ok_[k].set(vb, true);
        }
        for (Label s0 = 0; s0 < alpha_; ++s0) {
          prefix_ok_[k][s0] = elem.pvec.multiplied(ts_.step(s0));
        }
      }
      lend_b_.assign(alpha_, std::vector<std::vector<BitVector>>(alpha_));
      rend_a_ = lend_b_;
      std::vector<std::size_t> reps;
      collect_distinct(
          n_cls_, [&](std::size_t k) -> const BitVector& { return suffix_ok_[k]; }, reps);
      for (std::size_t k : reps) {
        for (Label s0 = 0; s0 < alpha_; ++s0) {
          for (Label s1 = 0; s1 < alpha_; ++s1) {
            rend_a_[s0][s1].push_back(suffix_ok_[k].multiplied(cand_t_[s0][s1]));
          }
        }
      }
      for (Label s0 = 0; s0 < alpha_; ++s0) {
        collect_distinct(
            n_cls_, [&](std::size_t k) -> const BitVector& { return prefix_ok_[k][s0]; },
            reps);
        for (std::size_t k : reps) {
          for (Label s1 = 0; s1 < alpha_; ++s1) {
            lend_b_[s0][s1].push_back(prefix_ok_[k][s0].multiplied(cand_[s0][s1]));
          }
        }
      }
    }

    p_.assign(n_pairs_, std::vector<BitVector>(alpha_, BitVector(beta_)));
    q_ = p_;
    xb_.assign(alpha_, std::vector<std::vector<BitVector>>(alpha_));
    ya_ = xb_;
    new_emit_.assign(n_cls_, BitVector(beta_));
    new_accept_.assign(n_cls_, std::vector<BitVector>(alpha_, BitVector(beta_)));
    all_b_.assign(alpha_, BitVector(beta_));
    all_a_.assign(alpha_, BitVector(beta_));
    row_scratch_ = BitVector(beta_);
    distinct_q_.assign(alpha_, {});
    distinct_p_.assign(alpha_, {});
    for (Label s = 0; s < alpha_; ++s) {
      distinct_q_[s].reserve(n_pairs_);
      distinct_p_[s].reserve(n_pairs_);
    }
    colsup_.assign(n_cls_ * alpha_, BitVector(beta_));
    reach_.assign(n_cls_, BitVector(beta_));
    distinct_colsup_.reserve(n_cls_ * alpha_);
    distinct_reach_.reserve(n_cls_);
    row_verdict_.reserve(rows_.size());
    col_verdict_.reserve(cols_.size());
    key_buf_.reserve(n_cls_ * beta_);
    key_off_.reserve(n_cls_ + 1);
    emit_group_.resize(n_cls_);
    accept_group_.resize(n_cls_ * alpha_);
    emit_group_rep_.reserve(n_cls_);
  }

  /// Id of `value` among the distinct values in `store`, appending it if
  /// new; ids_ must hold exactly the values of `store`.
  template <class T>
  std::uint32_t intern_value(const T& value, std::vector<T>& store) {
    const std::size_t id = ids_.intern(value.hash(), store.size(),
                                       [&](std::size_t rep, std::size_t) {
                                         return store[rep] == value;
                                       });
    if (id == store.size()) store.push_back(value);
    return static_cast<std::uint32_t>(id);
  }

  /// Sets `reps` to one index i < n per distinct vector at(i), in
  /// first-seen order.
  template <class At>
  void collect_distinct(std::size_t n, At&& at, std::vector<std::size_t>& reps) {
    ids_.clear();
    reps.clear();
    for (std::size_t i = 0; i < n; ++i) {
      budget_checkpoint(budget_);
      const BitVector& v = at(i);
      const std::size_t id =
          ids_.intern(v.hash(), i, [&](std::size_t rep, std::size_t) { return at(rep) == v; });
      if (id == reps.size()) reps.push_back(i);
    }
  }

  /// Per-point value filters implied by the caps: a candidate (va, vb) of
  /// an interior point (l, s0, s1, r) is valid iff va in p_[pair(l)][s0]
  /// and vb in q_[pair(r)][s1] (end blocks drop the side that faces the
  /// path end).
  void derive_filters(const AggregateCaps& caps) {
    for (std::size_t i = 0; i < n_pairs_; ++i) {
      const auto [k, krev] = pairs_[i];
      for (Label s = 0; s < alpha_; ++s) {
        p_[i][s] = caps.accept[k][s];
        q_[i][s] = caps.emit[k];
        if (!directed_) {
          p_[i][s] &= caps.emit[krev];
          q_[i][s] &= caps.accept[krev][s];
        }
      }
    }
  }

  /// out[r] = filters[reps[r]][s] * m for each distinct filter, growing
  /// `out` when a pass sees more distinct filters than any before.
  void project(const std::vector<std::size_t>& reps, Label s, const BitMatrix& m,
               const std::vector<std::vector<BitVector>>& filters, std::vector<BitVector>& out) {
    if (out.size() < reps.size()) out.resize(reps.size(), BitVector(beta_));
    for (std::size_t r = 0; r < reps.size(); ++r) filters[reps[r]][s].multiply_into(m, out[r]);
  }

  /// One arc-consistency pass over the quotient spaces: checks that every
  /// point class keeps a candidate under the caps, then shrinks each cap
  /// to the union of the surviving candidates' projections. Returns false
  /// on a dead point class or an emptied cap; sets `changed` if any cap
  /// lost a bit.
  bool shrink_pass(AggregateCaps& caps, bool& changed) {
    derive_filters(caps);
    // Everything below the filters reads a pair only through its p_/q_
    // vectors, so it runs over the distinct ones: xb = p * cand (b-symbols
    // of the candidates whose va passes p) and ya = q * cand^T are
    // computed once per distinct filter, stored at its first pair.
    for (Label s = 0; s < alpha_; ++s) {
      collect_distinct(
          n_pairs_, [&](std::size_t i) -> const BitVector& { return p_[i][s]; },
          distinct_p_[s]);
      collect_distinct(
          n_pairs_, [&](std::size_t i) -> const BitVector& { return q_[i][s]; },
          distinct_q_[s]);
    }
    for (Label s0 = 0; s0 < alpha_; ++s0) {
      for (Label s1 = 0; s1 < alpha_; ++s1) {
        budget_checkpoint(budget_);
        project(distinct_p_[s0], s0, cand_[s0][s1], p_, xb_[s0][s1]);
        project(distinct_q_[s1], s1, cand_t_[s0][s1], q_, ya_[s0][s1]);
      }
    }

    // Realizability: every (l, s0, s1, r) combination is a domain point of
    // every applicable kind, so every pair-class combination must keep a
    // candidate: each projection (left of the block) must meet each
    // distinct filter (right of it).
    const auto all_meet = [&](const std::vector<BitVector>& left, std::size_t n_left,
                              const std::vector<std::size_t>& right,
                              const std::vector<std::vector<BitVector>>& filters, Label s) {
      for (std::size_t l = 0; l < n_left; ++l) {
        budget_checkpoint(budget_);
        for (std::size_t r : right) {
          if (!left[l].intersects(filters[r][s])) return false;
        }
      }
      return true;
    };
    for (Label s0 = 0; s0 < alpha_; ++s0) {
      for (Label s1 = 0; s1 < alpha_; ++s1) {
        if (!all_meet(xb_[s0][s1], distinct_p_[s0].size(), distinct_q_[s1], q_, s1)) {
          return false;  // interior died
        }
        if (cycle_) continue;
        if (!all_meet(lend_b_[s0][s1], lend_b_[s0][s1].size(), distinct_q_[s1], q_, s1)) {
          return false;  // left end died
        }
        if (!all_meet(rend_a_[s0][s1], rend_a_[s0][s1].size(), distinct_p_[s0], p_, s0)) {
          return false;  // right end died
        }
      }
    }

    // Aggregate unions of valid projections across all partner classes.
    for (Label s = 0; s < alpha_; ++s) {
      all_b_[s].clear();
      all_a_[s].clear();
    }
    for (Label s0 = 0; s0 < alpha_; ++s0) {
      for (Label s1 = 0; s1 < alpha_; ++s1) {
        for (std::size_t r = 0; r < distinct_p_[s0].size(); ++r) all_b_[s1] |= xb_[s0][s1][r];
        for (std::size_t r = 0; r < distinct_q_[s1].size(); ++r) all_a_[s0] |= ya_[s0][s1][r];
        if (!cycle_) {
          for (const BitVector& b : lend_b_[s0][s1]) all_b_[s1] |= b;
          for (const BitVector& a : rend_a_[s0][s1]) all_a_[s0] |= a;
        }
      }
    }

    // New caps = union of valid contributions over every context of a
    // class, grouped by (class, rev class) pairs; always a subset of the
    // old caps.
    for (std::size_t k = 0; k < n_cls_; ++k) {
      new_emit_[k].clear();
      for (Label s0 = 0; s0 < alpha_; ++s0) new_accept_[k][s0].clear();
    }
    for (std::size_t i = 0; i < n_pairs_; ++i) {
      const std::size_t k = pairs_[i].first;
      for (Label s1 = 0; s1 < alpha_; ++s1) new_emit_[k] |= q_[i][s1] & all_b_[s1];
      for (Label s0 = 0; s0 < alpha_; ++s0) {
        new_accept_[k][s0] |= p_[i][s0] & all_a_[s0];
        if (!directed_) {
          // Contributions routed through reversed points: the a-symbol of
          // a right-role point lands in emit(rev(left)), the b-symbol of a
          // left-role point in accept(rev(right), s1); seen from class k
          // these are the reversed pair's filters.
          new_emit_[k] |= p_[rev_pair_[i]][s0] & all_a_[s0];
          new_accept_[k][s0] |= q_[rev_pair_[i]][s0] & all_b_[s0];
        }
      }
    }
    for (std::size_t k = 0; k < n_cls_; ++k) {
      if (!(new_emit_[k] == caps.emit[k])) {
        changed = true;
        caps.emit[k] = new_emit_[k];
      }
      if (!new_emit_[k].any()) return false;
      for (Label s0 = 0; s0 < alpha_; ++s0) {
        if (!(new_accept_[k][s0] == caps.accept[k][s0])) {
          changed = true;
          caps.accept[k][s0] = new_accept_[k][s0];
        }
        if (!new_accept_[k][s0].any()) return false;
      }
    }
    return true;
  }

  /// Dense support pruning over the glue tables: an emitted symbol whose
  /// glue row misses an accept cap entirely can never be used (some
  /// accepting point would die), and an accepted symbol no emitted symbol
  /// of some context glues with is equally dead. Returns false when a cap
  /// empties; sets `changed` on any prune.
  ///
  /// Both prunings reduce to intersections of distinct vectors. The glue
  /// row of sym1 at c1 is row sym1 of fwd(c1) times head(c2, s0), so it
  /// meets acc iff that row meets colsup = head * acc^T; and sym2 is glued
  /// by some emitted symbol of c1 iff reach(c1) = emit * fwd(c1) meets
  /// column sym2 of the head. Emit caps are pruned against the caps
  /// current at the start of the pass, then accept caps against the pruned
  /// emits — a different order than a per-triple sweep, but every pruning
  /// is monotone and deflationary, so propagate() reaches the same
  /// greatest fixpoint either way.
  bool glue_prune_pass(AggregateCaps& caps, bool& changed) {
    enum : std::uint8_t { kUnknown, kMeets, kMisses };
    const auto meets_all = [&](const BitVector& v, const std::vector<std::size_t>& reps,
                               const std::vector<BitVector>& vectors) {
      for (std::size_t rep : reps) {
        if (!v.intersects(vectors[rep])) return false;
      }
      return true;
    };

    // Emit side: row sym1 of fwd(c1) must meet every distinct colsup.
    for (std::size_t i = 0; i < n_cls_ * alpha_; ++i) {
      budget_checkpoint(budget_);
      heads_[head_id_[i / alpha_][i % alpha_]].rows_meeting_into(
          caps.accept[i / alpha_][i % alpha_], colsup_[i]);
    }
    collect_distinct(
        n_cls_ * alpha_, [&](std::size_t i) -> const BitVector& { return colsup_[i]; },
        distinct_colsup_);
    row_verdict_.assign(rows_.size(), kUnknown);
    for (std::size_t c1 = 0; c1 < n_cls_; ++c1) {
      BitVector& emit = caps.emit[c1];
      for (Label sym1 = 0; sym1 < beta_; ++sym1) {
        if (!emit.get(sym1)) continue;
        std::uint8_t& verdict = row_verdict_[row_id_[c1][sym1]];
        if (verdict == kUnknown) {
          budget_checkpoint(budget_);
          verdict = meets_all(rows_[row_id_[c1][sym1]], distinct_colsup_, colsup_) ? kMeets
                                                                                  : kMisses;
        }
        if (verdict == kMisses) {
          emit.set(sym1, false);
          changed = true;
        }
      }
      if (!emit.any()) return false;
      emit.multiply_into(*fwd_[c1], reach_[c1]);
    }

    // Accept side: column sym2 of the head must meet every distinct reach.
    collect_distinct(
        n_cls_, [&](std::size_t k) -> const BitVector& { return reach_[k]; }, distinct_reach_);
    col_verdict_.assign(cols_.size(), kUnknown);
    for (std::size_t i = 0; i < n_cls_ * alpha_; ++i) {
      BitVector& acc = caps.accept[i / alpha_][i % alpha_];
      for (Label sym2 = 0; sym2 < beta_; ++sym2) {
        if (!acc.get(sym2)) continue;
        const std::uint32_t col = col_id_[head_id_[i / alpha_][i % alpha_] * beta_ + sym2];
        std::uint8_t& verdict = col_verdict_[col];
        if (verdict == kUnknown) {
          budget_checkpoint(budget_);
          verdict = meets_all(cols_[col], distinct_reach_, reach_) ? kMeets : kMisses;
        }
        if (verdict == kMisses) {
          acc.set(sym2, false);
          changed = true;
        }
      }
      if (!acc.any()) return false;
    }
    return true;
  }

  /// Runs shrink and glue passes to a joint fixpoint. False = dead end.
  bool propagate(AggregateCaps& caps) {
    while (true) {
      bool changed = false;
      if (!shrink_pass(caps, changed)) return false;
      if (changed) continue;  // the cheap pass first, to its own fixpoint
      if (!glue_prune_pass(caps, changed)) return false;
      if (!changed) return true;
    }
  }

  /// Scans for the first gluing violation left at the fixpoint, in
  /// deterministic (c1, c2, s0, sym2, sym1) order.
  ///
  /// Whether (c1, c2, s0) glues depends only on the set of distinct rows
  /// c1 emits and on (head(c2, s0), accept cap), so classes are grouped
  /// by those keys and each group pair is evaluated once; the scan still
  /// visits triples in the original order and resolves the first
  /// violating one exactly, so the returned conflict is unchanged.
  bool first_conflict(const AggregateCaps& caps, GlueConflict& out) {
    // Emit groups: sorted distinct row ids of each class's emitted symbols.
    key_buf_.clear();
    key_off_.clear();
    for (std::size_t c1 = 0; c1 < n_cls_; ++c1) {
      budget_checkpoint(budget_);
      const std::size_t start = key_buf_.size();
      key_off_.push_back(start);
      const BitVector& emit = caps.emit[c1];
      for (Label sym = 0; sym < beta_; ++sym) {
        if (emit.get(sym)) key_buf_.push_back(row_id_[c1][sym]);
      }
      std::sort(key_buf_.begin() + start, key_buf_.end());
      key_buf_.erase(std::unique(key_buf_.begin() + start, key_buf_.end()), key_buf_.end());
    }
    key_off_.push_back(key_buf_.size());
    const auto key_begin = [&](std::size_t c) { return key_buf_.begin() + key_off_[c]; };
    const auto key_end = [&](std::size_t c) { return key_buf_.begin() + key_off_[c + 1]; };
    ids_.clear();
    emit_group_rep_.clear();
    for (std::size_t c1 = 0; c1 < n_cls_; ++c1) {
      budget_checkpoint(budget_);
      std::size_t h = hash_mix(0xE417, key_off_[c1 + 1] - key_off_[c1]);
      for (auto it = key_begin(c1); it != key_end(c1); ++it) h = hash_mix(h, *it);
      emit_group_[c1] = ids_.intern(h, c1, [&](std::size_t rep, std::size_t c) {
        return std::equal(key_begin(rep), key_end(rep), key_begin(c), key_end(c));
      });
      if (emit_group_[c1] == emit_group_rep_.size()) emit_group_rep_.push_back(c1);
    }
    // Accept groups: equal head matrix and equal accept cap.
    ids_.clear();
    for (std::size_t i = 0; i < n_cls_ * alpha_; ++i) {
      budget_checkpoint(budget_);
      const std::size_t c2 = i / alpha_;
      const Label s0 = static_cast<Label>(i % alpha_);
      const BitVector& acc = caps.accept[c2][s0];
      accept_group_[i] = ids_.intern(
          hash_mix(head_id_[c2][s0], acc.hash()), i, [&](std::size_t rep, std::size_t) {
            return head_id_[rep / alpha_][rep % alpha_] == head_id_[c2][s0] &&
                   caps.accept[rep / alpha_][rep % alpha_] == acc;
          });
    }
    const std::size_t n_accept_groups = ids_.size();
    enum : std::uint8_t { kUnknown, kGlued, kViolated };
    glued_memo_.assign(emit_group_rep_.size() * n_accept_groups, kUnknown);

    BitVector& row = row_scratch_;
    for (std::size_t c1 = 0; c1 < n_cls_; ++c1) {
      for (std::size_t c2 = 0; c2 < n_cls_; ++c2) {
        for (Label s0 = 0; s0 < alpha_; ++s0) {
          budget_checkpoint(budget_);
          const BitVector& acc = caps.accept[c2][s0];
          const BitMatrix& head = heads_[head_id_[c2][s0]];
          std::uint8_t& verdict =
              glued_memo_[emit_group_[c1] * n_accept_groups + accept_group_[c2 * alpha_ + s0]];
          if (verdict == kUnknown) {
            verdict = kGlued;
            const std::size_t rep = emit_group_rep_[emit_group_[c1]];
            for (auto it = key_begin(rep); it != key_end(rep); ++it) {
              rows_[*it].multiply_into(head, row);
              if (!acc.subset_of(row)) {
                verdict = kViolated;
                break;
              }
            }
          }
          if (verdict == kGlued) continue;
          BitVector glued_by_all = BitVector::ones(beta_);
          for (Label sym1 = 0; sym1 < beta_; ++sym1) {
            if (!caps.emit[c1].get(sym1)) continue;
            rows_[row_id_[c1][sym1]].multiply_into(head, row);
            glued_by_all &= row;
          }
          BitVector bad = acc;
          bad.remove(glued_by_all);
          const Label sym2 = static_cast<Label>(bad.first_set());
          for (Label sym1 = 0; sym1 < beta_; ++sym1) {
            if (!caps.emit[c1].get(sym1)) continue;
            rows_[row_id_[c1][sym1]].multiply_into(head, row);
            if (!row.get(sym2)) {
              out = GlueConflict{c1, c2, s0, sym1, sym2};
              return true;
            }
          }
          throw std::logic_error("decide_linear_gap: conflict scan lost its violation");
        }
      }
    }
    return false;
  }

  /// Builds the class-level solution both fill paths read: a
  /// LazyFeasibleFunction holding the final per-pair candidate filters
  /// (derive_filters of the solved caps), the endpoint filters, the local
  /// candidate matrices and the context quotient maps. This is the whole
  /// feasible function in O(|classes|^2 * |Sigma_in|^2) storage. Consumes
  /// the search state (run() returns right after the fill), so the filter
  /// tables move instead of copying; only the const context list (n_ctx
  /// words) is copied.
  std::shared_ptr<LazyFeasibleFunction> solution(const AggregateCaps& caps) {
    derive_filters(caps);
    auto fn = std::make_shared<LazyFeasibleFunction>();
    fn->cycle = cycle_;
    fn->alpha = alpha_;
    fn->beta = beta_;
    fn->contexts = contexts_;
    fn->ctx_pos.reserve(n_ctx_);
    for (std::size_t c = 0; c < n_ctx_; ++c) fn->ctx_pos.emplace(fn->contexts[c], c);
    fn->ctx_class = std::move(ctx_class_);
    fn->ctx_pair = std::move(ctx_pair_);
    fn->p = std::move(p_);
    fn->q = std::move(q_);
    fn->prefix_ok = std::move(prefix_ok_);
    fn->suffix_ok = std::move(suffix_ok_);
    fn->cand = std::move(cand_);
    return fn;
  }

  /// Lazy backend: the certificate *is* the class-level solution;
  /// value_at resolves points on demand.
  void fill_lazy(const AggregateCaps& caps, LinearGapCertificate& cert) {
    cert.feasible = true;
    cert.adopt_lazy(solution(caps));
  }

  /// Dense backend: materializes the feasible function point by point, in
  /// the same order as the pairwise engine, each point assigned its first
  /// (va, vb) candidate valid under the final caps — by construction the
  /// same value the lazy backend resolves. Validity within glued caps
  /// implies every ordered pair of points (and every orientation combo)
  /// glues.
  void fill_certificate(const AggregateCaps& caps, LinearGapCertificate& cert) {
    const std::shared_ptr<LazyFeasibleFunction> fn = solution(caps);
    std::vector<BlockPoint> domain;
    std::vector<BlockValue> choice;
    domain.reserve(fn->domain_size());
    choice.reserve(fn->domain_size());
    fn->for_each_point([&](const BlockPoint& point, const BlockValue& value) {
      domain.push_back(point);
      choice.push_back(value);
    });
    cert.feasible = true;
    cert.adopt_dense(std::move(domain), std::move(choice), {});
  }
};

LinearGapCertificate decide_factorized(const Monoid& monoid, CertificateMode mode,
                                       const ExecutionBudget* budget) {
  return FactorizedSearch(monoid, budget).run(mode);
}

// =====================================================================
// Pairwise engine (LinearGapEngine::kPairwise) — the original point-pair
// gluing sweep, kept as the differential-test oracle.
// =====================================================================

/// Shared search context.
struct Search {
  const Monoid& monoid;
  const TransitionSystem& ts;
  const ExecutionBudget* budget = nullptr;
  bool cycle;
  bool directed;

  std::vector<BlockPoint> domain;
  std::vector<std::size_t> rho;  ///< reversed point per point (undirected)
  std::vector<std::vector<BlockValue>> candidates;

  /// row_cache[element][label] = e_label * fwd(element)
  std::vector<std::vector<BitVector>> row_cache;

  /// glue_cache[(right, left, s0)] = fwd(right) * fwd(left) * A(s0); the
  /// glue check is then a single bit lookup. Keyed by the actual triple —
  /// a hashed key could silently alias two triples on collision.
  std::map<std::tuple<std::size_t, std::size_t, Label>, BitMatrix> glue_cache;

  explicit Search(const Monoid& m)
      : monoid(m),
        ts(m.transitions()),
        cycle(is_cycle(m.transitions().problem().topology())),
        directed(is_directed(m.transitions().problem().topology())) {}

  const BitVector& row_of(std::size_t element, Label label) {
    auto& rows = row_cache[element];
    if (rows.empty()) {
      rows.reserve(ts.num_outputs());
      for (Label l = 0; l < ts.num_outputs(); ++l) {
        rows.push_back(BitVector::unit(ts.num_outputs(), l)
                           .multiplied(monoid.element(element).fwd));
      }
    }
    return rows[label];
  }

  /// Gluing across middle = fwd(right_elem) * fwd(left_elem) * A(s0).
  const BitMatrix& glue_matrix(std::size_t right_elem, std::size_t left_elem, Label s0) {
    const auto key = std::tuple(right_elem, left_elem, s0);
    auto it = glue_cache.find(key);
    if (it == glue_cache.end()) {
      // A miss is two dense BitMatrix multiplies — heavy enough that the
      // amortized tick counter would hide the clock for seconds on large
      // lifted alphabets, so read it directly.
      budget_check(budget);
      BitMatrix g = monoid.element(right_elem).fwd * monoid.element(left_elem).fwd *
                    ts.step(s0);
      it = glue_cache.emplace(key, std::move(g)).first;
    }
    return it->second;
  }

  bool glue(std::size_t right_elem, Label sym1, std::size_t left_elem, Label s0,
            Label sym2) {
    return glue_matrix(right_elem, left_elem, s0).get(sym1, sym2);
  }

  bool left_role(std::size_t p) const {
    return domain[p].kind != BlockKind::kRightEnd;
  }
  bool right_role(std::size_t p) const {
    return domain[p].kind != BlockKind::kLeftEnd;
  }

  /// Full orientation-combo pair check: with points p1 (left role) and p2
  /// (right role) assigned values v1, v2 — and, when undirected, their
  /// reversed points assigned rv1, rv2 — do all placements glue?
  /// For directed problems only the (F, F) combo applies.
  bool pair_ok(std::size_t p1, const BlockValue& v1, const BlockValue& rv1,
               std::size_t p2, const BlockValue& v2, const BlockValue& rv2) {
    const BlockPoint& a = domain[p1];
    const BlockPoint& b = domain[p2];
    // Right-facing symbol of block 1 / left-facing symbol of block 2 per
    // orientation choice.
    const Label sym1_f = v1.b;
    const Label sym2_f = v2.a;
    if (!glue(a.right, sym1_f, b.left, b.s0, sym2_f)) return false;
    if (directed) return true;
    const Label sym1_r = rv1.a;  // reversed placement: value of rho(p1), .a faces right
    const Label sym2_r = rv2.b;
    if (!glue(a.right, sym1_r, b.left, b.s0, sym2_f)) return false;
    if (!glue(a.right, sym1_f, b.left, b.s0, sym2_r)) return false;
    if (!glue(a.right, sym1_r, b.left, b.s0, sym2_r)) return false;
    return true;
  }
};

LinearGapCertificate decide_pairwise(const Monoid& monoid,
                                     const ExecutionBudget* budget) {
  LinearGapCertificate cert;
  const TransitionSystem& ts = monoid.transitions();
  const PairwiseProblem& problem = ts.problem();
  const bool cycle = is_cycle(problem.topology());
  const bool directed = is_directed(problem.topology());
  const std::size_t beta = ts.num_outputs();

  cert.ell_ctx = context_length(monoid);

  // Context element set: layers at lengths ell_ctx and ell_ctx + 1.
  const std::vector<std::size_t> contexts = context_elements(monoid, cert.ell_ctx);

  Search search(monoid);
  search.budget = budget;
  search.row_cache.resize(monoid.size());

  // Build the domain. The point count is cubic-ish in practice (kinds x
  // |contexts|^2 x alpha^2) and lifted problems reach tens of millions of
  // points, so the build itself — and the index/reversal/candidate passes
  // below — must checkpoint and charge the budget: on such domains they
  // dominate the wall clock before any constraint is ever probed.
  auto add_points = [&](BlockKind kind) {
    for (std::size_t left : contexts) {
      for (Label s0 = 0; s0 < ts.num_inputs(); ++s0) {
        for (Label s1 = 0; s1 < ts.num_inputs(); ++s1) {
          for (std::size_t right : contexts) {
            budget_checkpoint(budget);
            search.domain.push_back(BlockPoint{kind, left, s0, s1, right});
          }
        }
      }
    }
  };
  budget_charge_memory(budget, linear_gap_domain_size(monoid, nullptr) *
                                   (sizeof(BlockPoint) + sizeof(std::size_t) +
                                    sizeof(std::vector<BlockValue>)));
  add_points(BlockKind::kInterior);
  if (!cycle) {
    add_points(BlockKind::kLeftEnd);
    add_points(BlockKind::kRightEnd);
  }

  const std::size_t n_points = search.domain.size();

  // Point index: reversal map now (undirected), certificate index later —
  // built once and moved into the dense certificate at the end.
  std::unordered_map<BlockPoint, std::size_t, BlockPointHash> point_index;
  point_index.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    budget_checkpoint(budget);
    point_index.emplace(search.domain[i], i);
  }
  search.rho.resize(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    budget_checkpoint(budget);
    if (directed) {
      search.rho[i] = i;
      continue;
    }
    const BlockPoint r = search.domain[i].reversed(monoid);
    auto it = point_index.find(r);
    if (it == point_index.end()) {
      throw std::logic_error("decide_linear_gap: reversed point missing from domain");
    }
    search.rho[i] = it->second;
  }

  // Candidate filters.
  search.candidates.resize(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const BlockPoint& p = search.domain[i];
    for (Label va = 0; va < beta; ++va) {
      budget_checkpoint(budget);
      if (!problem.node_ok(p.s0, va)) continue;
      for (Label vb = 0; vb < beta; ++vb) {
        if (!problem.node_ok(p.s1, vb)) continue;
        if (!problem.edge_ok(va, vb)) continue;
        if (p.kind == BlockKind::kLeftEnd) {
          // Prefix completability: (pvec(left) * A(s0)) [va].
          BitVector v = monoid.element(p.left).pvec.multiplied(ts.step(p.s0));
          if (!v.get(va)) continue;
        }
        if (p.kind == BlockKind::kRightEnd) {
          // Suffix completability: the chain from vb through the suffix
          // must reach an output allowed at the path's last node.
          if (!(search.row_of(p.right, vb) & ts.last_mask()).any()) continue;
        }
        search.candidates[i].push_back(BlockValue{va, vb});
      }
    }
    if (search.candidates[i].empty()) {
      return cert;  // some block can never be labeled: infeasible
    }
  }

  // Arc-consistency pruning on the forward/forward combo (a necessary
  // condition for any placement): a value v1 at a left-role point p1 needs,
  // for *every* right-role p2, some partner v2 with
  // G(p1.right, p2.left, p2.s0)[v1.b][v2.a] — and symmetrically. Because
  // the condition only reads (p1.right, v1.b) on one side and
  // (p2.left, p2.s0, v2.a) on the other, supports can be aggregated per
  // context element; iterate to a fixpoint.
  {
    bool changed = true;
    while (changed) {
      changed = false;
      // allowed_b[elemR] = symbols sym1 such that for every right-role p2
      // some v2 in cand(p2) glues from sym1.
      std::unordered_map<std::size_t, BitVector> allowed_b;
      for (std::size_t elemR : contexts) {
        BitVector all = BitVector::ones(beta);
        for (std::size_t p2 = 0; p2 < n_points; ++p2) {
          budget_checkpoint(budget);
          if (!search.right_role(p2)) continue;
          const BlockPoint& b = search.domain[p2];
          BitVector a_set(beta);
          for (const BlockValue& v2 : search.candidates[p2]) a_set.set(v2.a, true);
          const BitMatrix& g = search.glue_matrix(elemR, b.left, b.s0);
          BitVector supported(beta);
          for (Label sym1 = 0; sym1 < beta; ++sym1) {
            budget_checkpoint(budget);
            BitVector row(beta);
            for (Label sym2 = 0; sym2 < beta; ++sym2) row.set(sym2, g.get(sym1, sym2));
            if (row.intersects(a_set)) supported.set(sym1, true);
          }
          all = all & supported;
          if (!all.any()) break;
        }
        allowed_b.emplace(elemR, std::move(all));
      }
      for (std::size_t p1 = 0; p1 < n_points; ++p1) {
        if (!search.left_role(p1)) continue;
        auto& cand = search.candidates[p1];
        const BitVector& ok = allowed_b.at(search.domain[p1].right);
        const std::size_t before = cand.size();
        std::erase_if(cand, [&](const BlockValue& v) { return !ok.get(v.b); });
        if (cand.size() != before) changed = true;
        if (cand.empty()) return cert;
      }
      // Mirror direction: allowed_a[(elemL, s0)].
      std::map<std::pair<std::size_t, Label>, BitVector> allowed_a;
      for (std::size_t elemL : contexts) {
        for (Label s0 = 0; s0 < ts.num_inputs(); ++s0) {
          BitVector all = BitVector::ones(beta);
          for (std::size_t p1 = 0; p1 < n_points; ++p1) {
            budget_checkpoint(budget);
            if (!search.left_role(p1)) continue;
            const BlockPoint& a = search.domain[p1];
            BitVector b_set(beta);
            for (const BlockValue& v1 : search.candidates[p1]) b_set.set(v1.b, true);
            const BitMatrix& g = search.glue_matrix(a.right, elemL, s0);
            BitVector supported = b_set.multiplied(g);
            all = all & supported;
            if (!all.any()) break;
          }
          allowed_a.emplace(std::pair(elemL, s0), std::move(all));
        }
      }
      for (std::size_t p2 = 0; p2 < n_points; ++p2) {
        if (!search.right_role(p2)) continue;
        auto& cand = search.candidates[p2];
        const BitVector& ok =
            allowed_a.at(std::pair(search.domain[p2].left, search.domain[p2].s0));
        const std::size_t before = cand.size();
        std::erase_if(cand, [&](const BlockValue& v) { return !ok.get(v.a); });
        if (cand.size() != before) changed = true;
        if (cand.empty()) return cert;
      }
    }
  }

  // The search couples each point with its reversed point; assign values
  // jointly to the orbit {p, rho(p)}. Representatives: min index of orbit.
  std::vector<std::size_t> rep_of(n_points);
  std::vector<std::size_t> orbit_reps;
  for (std::size_t i = 0; i < n_points; ++i) {
    const std::size_t r = std::min(i, search.rho[i]);
    rep_of[i] = r;
    if (r == i) orbit_reps.push_back(i);
  }

  // Assignment: value per point (both orbit members assigned together,
  // independently chosen — the orbit grouping only orders the search).
  std::vector<int> chosen(n_points, -1);

  // Check a tentative full-pair constraint between two *assigned* points.
  auto assigned_pair_ok = [&](std::size_t p1, std::size_t p2) {
    if (!search.left_role(p1) || !search.right_role(p2)) return true;
    const BlockValue v1 = search.candidates[p1][static_cast<std::size_t>(chosen[p1])];
    const BlockValue v2 = search.candidates[p2][static_cast<std::size_t>(chosen[p2])];
    const std::size_t r1 = search.rho[p1];
    const std::size_t r2 = search.rho[p2];
    if (chosen[r1] < 0 || chosen[r2] < 0) return true;  // rechecked when assigned
    const BlockValue rv1 = search.candidates[r1][static_cast<std::size_t>(chosen[r1])];
    const BlockValue rv2 = search.candidates[r2][static_cast<std::size_t>(chosen[r2])];
    return search.pair_ok(p1, v1, rv1, p2, v2, rv2);
  };

  // Backtracking over orbit representatives in order; for each, try all
  // value pairs for (rep, rho(rep)). Iterative — the search is one level
  // deep per orbit and large domains (e.g. lifted problems) would blow the
  // call stack with a recursive formulation.
  const std::size_t n_orbits = orbit_reps.size();
  std::vector<std::size_t> vi_at(n_orbits, 0);
  std::vector<std::size_t> qi_at(n_orbits, 0);
  std::size_t pos = 0;
  bool entering = true;  // fresh entry at pos vs resuming after a backtrack
  bool found = false;
  while (true) {
    if (pos == n_orbits) {
      found = true;
      break;
    }
    const std::size_t p = orbit_reps[pos];
    const std::size_t q = search.rho[p];
    const std::size_t np = search.candidates[p].size();
    const std::size_t nq = (q == p) ? 1 : search.candidates[q].size();
    if (entering) {
      vi_at[pos] = 0;
      qi_at[pos] = 0;
    } else {
      chosen[p] = -1;
      if (q != p) chosen[q] = -1;
      if (++qi_at[pos] >= nq) {
        qi_at[pos] = 0;
        ++vi_at[pos];
      }
    }
    bool placed = false;
    while (vi_at[pos] < np && !placed) {
      for (; qi_at[pos] < nq; ++qi_at[pos]) {
        budget_checkpoint(budget);
        chosen[p] = static_cast<int>(vi_at[pos]);
        if (q != p) chosen[q] = static_cast<int>(qi_at[pos]);
        // Check all constraints among assigned points that involve p or q.
        // Tick per pair-check, not per placement: a placement sweeps every
        // assigned point, so on large lifted domains one tick per placement
        // would put thousands of glue probes between clock reads.
        bool ok = true;
        for (std::size_t other = 0; other < n_points && ok; ++other) {
          budget_checkpoint(budget);
          if (chosen[other] < 0) continue;
          ok = assigned_pair_ok(p, other) && assigned_pair_ok(other, p);
          if (ok && q != p) ok = assigned_pair_ok(q, other) && assigned_pair_ok(other, q);
        }
        if (ok) {
          placed = true;
          break;
        }
        chosen[p] = -1;
        if (q != p) chosen[q] = -1;
      }
      if (!placed) {
        ++vi_at[pos];
        qi_at[pos] = 0;
      }
    }
    if (placed) {
      ++pos;
      entering = true;
    } else {
      if (pos == 0) break;
      --pos;
      entering = false;
    }
  }
  if (!found) return cert;

  cert.feasible = true;
  std::vector<BlockValue> choice;
  choice.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    choice.push_back(search.candidates[i][static_cast<std::size_t>(chosen[i])]);
  }
  cert.adopt_dense(std::move(search.domain), std::move(choice), std::move(point_index));
  return cert;
}

}  // namespace

LinearGapCertificate decide_linear_gap(const Monoid& monoid, LinearGapEngine engine,
                                       CertificateMode mode,
                                       const ExecutionBudget* budget) {
  // The pair-wise oracle's choices come from per-point backtracking, not a
  // class-level solution — it is dense by construction.
  return engine == LinearGapEngine::kPairwise
             ? decide_pairwise(monoid, budget)
             : decide_factorized(monoid, mode, budget);
}

std::size_t linear_gap_domain_size(const Monoid& monoid, std::size_t* num_contexts) {
  const std::vector<std::size_t> contexts =
      context_elements(monoid, context_length(monoid));
  if (num_contexts != nullptr) *num_contexts = contexts.size();
  const std::size_t alpha = monoid.transitions().num_inputs();
  const std::size_t kinds = is_cycle(monoid.transitions().problem().topology()) ? 1 : 3;
  return kinds * contexts.size() * contexts.size() * alpha * alpha;
}

}  // namespace lclpath
