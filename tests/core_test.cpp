#include <gtest/gtest.h>

#include <unordered_set>

#include "core/alphabet.hpp"
#include "core/bitmatrix.hpp"
#include "core/id_table.hpp"
#include "core/rng.hpp"

namespace lclpath {
namespace {

TEST(BitMatrix, IdentityIsMultiplicativeUnit) {
  for (std::size_t dim : {1u, 3u, 7u, 64u, 65u, 130u}) {
    Rng rng(dim);
    BitMatrix m(dim);
    for (int k = 0; k < 50; ++k) {
      m.set(rng.next_below(dim), rng.next_below(dim), true);
    }
    const BitMatrix id = BitMatrix::identity(dim);
    EXPECT_EQ(m * id, m) << "dim " << dim;
    EXPECT_EQ(id * m, m) << "dim " << dim;
  }
}

TEST(BitMatrix, MultiplicationMatchesNaive) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t dim = 1 + rng.next_below(70);
    BitMatrix a(dim), b(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        a.set(i, j, rng.next_bool());
        b.set(i, j, rng.next_bool());
      }
    }
    const BitMatrix fast = a * b;
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        bool expect = false;
        for (std::size_t k = 0; k < dim && !expect; ++k) {
          expect = a.get(i, k) && b.get(k, j);
        }
        ASSERT_EQ(fast.get(i, j), expect) << i << "," << j << " dim=" << dim;
      }
    }
  }
}

TEST(BitMatrix, MultiplicationAssociative) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dim = 1 + rng.next_below(40);
    BitMatrix m[3] = {BitMatrix(dim), BitMatrix(dim), BitMatrix(dim)};
    for (auto& mat : m) {
      for (int k = 0; k < static_cast<int>(dim * 2); ++k) {
        mat.set(rng.next_below(dim), rng.next_below(dim), true);
      }
    }
    EXPECT_EQ((m[0] * m[1]) * m[2], m[0] * (m[1] * m[2]));
  }
}

TEST(BitMatrix, PowerMatchesRepeatedMultiplication) {
  Rng rng(9);
  const std::size_t dim = 9;
  BitMatrix m(dim);
  for (int k = 0; k < 14; ++k) m.set(rng.next_below(dim), rng.next_below(dim), true);
  BitMatrix acc = BitMatrix::identity(dim);
  for (std::uint64_t e = 0; e <= 12; ++e) {
    EXPECT_EQ(m.power(e), acc) << "exponent " << e;
    acc *= m;
  }
}

TEST(BitMatrix, StabilizeFindsPowerCycle) {
  Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t dim = 2 + rng.next_below(8);
    BitMatrix m(dim);
    for (int k = 0; k < static_cast<int>(dim + 3); ++k) {
      m.set(rng.next_below(dim), rng.next_below(dim), true);
    }
    const auto stab = m.stabilize();
    EXPECT_GE(stab.period, 1u);
    EXPECT_EQ(m.power(stab.first), m.power(stab.first + stab.period));
    EXPECT_EQ(stab.stable_power, m.power(stab.first));
  }
}

TEST(BitMatrix, TransposeInvolution) {
  Rng rng(5);
  const std::size_t dim = 67;
  BitMatrix m(dim);
  for (int k = 0; k < 200; ++k) m.set(rng.next_below(dim), rng.next_below(dim), true);
  EXPECT_EQ(m.transposed().transposed(), m);
  EXPECT_TRUE(m.transposed().get(3, 5) == m.get(5, 3));
}

TEST(BitVector, VectorMatrixMatchesNaive) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t dim = 1 + rng.next_below(80);
    BitMatrix m(dim);
    BitVector v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v.set(i, rng.next_bool());
      for (std::size_t j = 0; j < dim; ++j) m.set(i, j, rng.next_bool(1, 3));
    }
    const BitVector fast = v.multiplied(m);
    for (std::size_t j = 0; j < dim; ++j) {
      bool expect = false;
      for (std::size_t i = 0; i < dim && !expect; ++i) expect = v.get(i) && m.get(i, j);
      ASSERT_EQ(fast.get(j), expect);
    }
  }
}

TEST(BitVector, IntersectsAndCounts) {
  BitVector a(130), b(130);
  a.set(0, true);
  a.set(129, true);
  b.set(64, true);
  EXPECT_FALSE(a.intersects(b));
  b.set(129, true);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a & b).count(), 1u);
}

TEST(BitVector, MultiplyIntoMatchesMultiplied) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t dim = 1 + rng.next_below(150);
    BitMatrix m(dim);
    BitVector v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v.set(i, rng.next_bool());
      for (std::size_t j = 0; j < dim; ++j) m.set(i, j, rng.next_bool(1, 3));
    }
    BitVector out(dim);
    out.set(rng.next_below(dim), true);  // stale contents must be overwritten
    v.multiply_into(m, out);
    EXPECT_EQ(out, v.multiplied(m));
  }
}

TEST(BitVector, SubsetFirstSetAndInPlaceOps) {
  BitVector a(130), b(130);
  a.set(5, true);
  a.set(129, true);
  EXPECT_EQ(a.first_set(), 5u);
  EXPECT_EQ(BitVector(130).first_set(), 130u);
  b.set(5, true);
  EXPECT_TRUE(b.subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
  b.set(64, true);
  EXPECT_FALSE(b.subset_of(a));

  BitVector c = a;
  c |= b;
  EXPECT_EQ(c, a | b);
  c &= b;
  EXPECT_EQ(c, (a | b) & b);
  c.remove(a);
  EXPECT_FALSE(c.get(5));
  EXPECT_TRUE(c.get(64));
  c.clear();
  EXPECT_FALSE(c.any());
  EXPECT_EQ(c.dim(), 130u);
}

TEST(BitVector, WordsAgreeWithGetAndPaddingIsZero) {
  Rng rng(23);
  for (std::size_t dim : {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{130}}) {
    const std::size_t num_words = (dim + 63) / 64;
    BitVector random(dim);
    for (std::size_t i = 0; i < dim; ++i) random.set(i, rng.next_bool());
    BitVector flipped = BitVector::ones(dim);
    flipped.remove(random);  // the complement, built through word-level ops
    for (const BitVector* v : {&random, &flipped}) {
      const std::uint64_t* words = v->words();
      for (std::size_t i = 0; i < dim; ++i) {
        EXPECT_EQ(((words[i / 64] >> (i % 64)) & 1u) != 0, v->get(i))
            << "dim " << dim << " bit " << i;
      }
      // Every bit past dim in the last word is padding and must be zero.
      for (std::size_t i = dim; i < num_words * 64; ++i) {
        EXPECT_EQ((words[i / 64] >> (i % 64)) & 1u, 0u) << "dim " << dim << " pad " << i;
      }
    }
  }
}

TEST(BitMatrix, RowsMeetingMatchesNaiveAtWordBoundaries) {
  Rng rng(19);
  for (std::size_t dim : {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{130}}) {
    for (int trial = 0; trial < 8; ++trial) {
      BitMatrix m(dim);
      BitVector v(dim);
      // Sparse operands, so that both meeting and missing rows occur.
      for (std::size_t i = 0; i < dim; ++i) {
        v.set(i, rng.next_bool(1, 8));
        for (std::size_t j = 0; j < dim; ++j) m.set(i, j, rng.next_bool(1, 16));
      }
      BitVector out(dim);
      out.set(rng.next_below(dim), true);  // stale contents must be overwritten
      m.rows_meeting_into(v, out);
      BitVector naive(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        bool meet = false;
        for (std::size_t j = 0; j < dim && !meet; ++j) meet = m.get(i, j) && v.get(j);
        naive.set(i, meet);
      }
      // operator== compares raw words, so this also pins the padding
      // invariant: no bit at index >= dim is set.
      EXPECT_EQ(out, naive) << "dim " << dim;
      EXPECT_EQ(out.count(), naive.count()) << "dim " << dim;
      // The identity behind its use: (u * M) meets v iff u meets M * v^T.
      BitVector u(dim);
      for (std::size_t i = 0; i < dim; ++i) u.set(i, rng.next_bool(1, 4));
      EXPECT_EQ(u.multiplied(m).intersects(v), u.intersects(out)) << "dim " << dim;
    }
  }
  // All-ones rows against the all-ones vector at a word boundary: every
  // row meets, and nothing spills past dim.
  const BitMatrix ones = BitMatrix::ones(65);
  BitVector out(65);
  ones.rows_meeting_into(BitVector::ones(65), out);
  EXPECT_EQ(out, BitVector::ones(65));
  ones.rows_meeting_into(BitVector(65), out);
  EXPECT_FALSE(out.any());
}

TEST(IdTable, AssignsDenseIdsInFirstSeenOrderAndReusesStorage) {
  // Keys are bit vectors named by index; hashes are deliberately poor (a
  // few buckets) so equal-hash collisions go through the equality test.
  Rng rng(23);
  std::vector<BitVector> keys;
  for (int i = 0; i < 300; ++i) {
    BitVector v(70);
    v.set(rng.next_below(70), true);
    v.set(rng.next_below(70), true);
    keys.push_back(v);
  }
  IdTable table;
  table.reserve(4);  // forces growth along the way
  for (int round = 0; round < 2; ++round) {
    table.clear();
    std::vector<std::size_t> first_index;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::size_t id = table.intern(keys[i].count(), i, [&](std::size_t rep, std::size_t) {
        return keys[rep] == keys[i];
      });
      std::size_t expected = first_index.size();
      for (std::size_t k = 0; k < first_index.size(); ++k) {
        if (keys[first_index[k]] == keys[i]) expected = k;
      }
      ASSERT_EQ(id, expected) << "round " << round << ", key " << i;
      if (id == first_index.size()) first_index.push_back(i);
      EXPECT_EQ(table.rep(id), first_index[id]);
    }
    EXPECT_EQ(table.size(), first_index.size());
  }
  table.clear();
  EXPECT_EQ(table.size(), 0u);
}

TEST(Alphabet, AddFindRoundTrip) {
  Alphabet a({"x", "y"});
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at("x"), 0u);
  EXPECT_EQ(a.at("y"), 1u);
  EXPECT_EQ(a.name(1), "y");
  EXPECT_FALSE(a.find("z").has_value());
  EXPECT_THROW(a.at("z"), std::out_of_range);
  EXPECT_THROW(a.add("x"), std::invalid_argument);
  EXPECT_EQ(a.add_or_get("z"), 2u);
  EXPECT_EQ(a.add_or_get("z"), 2u);
}

TEST(Words, PrimitiveDetection) {
  EXPECT_TRUE(is_primitive({0}));
  EXPECT_TRUE(is_primitive({0, 1}));
  EXPECT_FALSE(is_primitive({0, 0}));
  EXPECT_FALSE(is_primitive({0, 1, 0, 1}));
  EXPECT_TRUE(is_primitive({0, 1, 0}));
  EXPECT_TRUE(is_primitive({0, 0, 1}));
  EXPECT_FALSE(is_primitive({1, 1, 1}));
}

TEST(Words, EnumerationCountsAndOrder) {
  std::size_t count = 0;
  Word previous;
  for_each_word(3, 4, [&](const Word& w) {
    if (count > 0) {
      EXPECT_LT(previous, w);
    }
    previous = w;
    ++count;
  });
  EXPECT_EQ(count, 81u);
}

TEST(Words, ReverseRepeatConcat) {
  const Word w{0, 1, 2};
  EXPECT_EQ(reversed(w), (Word{2, 1, 0}));
  EXPECT_EQ(repeated(w, 2), (Word{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(concat(w, {3}), (Word{0, 1, 2, 3}));
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(123), b(123);
  for (int k = 0; k < 100; ++k) {
    const std::uint64_t bound = 1 + (static_cast<std::uint64_t>(k) * 37) % 1000;
    const auto x = a.next_below(bound);
    EXPECT_EQ(x, b.next_below(bound));
    EXPECT_LT(x, bound);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(77);
  const auto perm = rng.permutation(100);
  std::unordered_set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
}

}  // namespace
}  // namespace lclpath
