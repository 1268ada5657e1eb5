// Boolean square matrices over the output alphabet.
//
// These are the workhorse of the decidability engine (Section 4 of the
// paper): the "type" of an input-labeled path (Lemma 12/13) is represented
// by a reachability matrix over output labels, and path concatenation is
// boolean matrix multiplication. Matrices are small (dimension = |Sigma_out|,
// typically < 100) but multiplied millions of times during monoid
// enumeration, so rows are packed into 64-bit words.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace lclpath {

/// Dense boolean square matrix with bit-packed rows.
///
/// Invariant: all bits at column indices >= dim() are zero, which makes
/// operator== and hashing well defined on the raw words.
class BitVector;

class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(std::size_t dim);

  /// Identity matrix of the given dimension.
  static BitMatrix identity(std::size_t dim);
  /// All-zero matrix of the given dimension.
  static BitMatrix zero(std::size_t dim);
  /// All-ones matrix of the given dimension.
  static BitMatrix ones(std::size_t dim);

  std::size_t dim() const { return dim_; }

  bool get(std::size_t row, std::size_t col) const;
  void set(std::size_t row, std::size_t col, bool value);

  /// Boolean matrix product: (a*b)[i][j] = OR_k a[i][k] AND b[k][j].
  BitMatrix operator*(const BitMatrix& other) const;
  BitMatrix& operator*=(const BitMatrix& other);
  /// this * other written into `out` (same dim, distinct object), reusing
  /// its storage — for hot loops (monoid enumeration probes) that cannot
  /// afford an allocation per product.
  void multiply_into(const BitMatrix& other, BitMatrix& out) const;

  /// this * v^T written into `out` (same dim): out[i] = OR_j M[i][j] AND
  /// v[j], i.e. the rows of this matrix that meet v. Word-level per row.
  /// By associativity (u * M) meets v iff u meets M * v^T, so one of these
  /// replaces a vector-matrix product per row vector u tested against v.
  void rows_meeting_into(const BitVector& v, BitVector& out) const;

  /// Element-wise OR / AND.
  BitMatrix operator|(const BitMatrix& other) const;
  BitMatrix operator&(const BitMatrix& other) const;

  BitMatrix transposed() const;

  /// k-th boolean power (k >= 0; power(0) == identity).
  BitMatrix power(std::uint64_t k) const;

  /// Boolean powers of a matrix are eventually periodic; this finds the
  /// repeat structure (Lemma 15's workhorse): exponents (first, period)
  /// with power(first) == power(first + period).
  struct Stabilization;
  Stabilization stabilize() const;

  bool any() const;
  /// True if some diagonal entry is set.
  bool any_diagonal() const;
  std::size_t count() const;

  /// Row as a bit vector packed into words (for vector-matrix products).
  const std::uint64_t* row_words(std::size_t row) const;
  std::size_t words_per_row() const { return words_per_row_; }

  bool operator==(const BitMatrix& other) const = default;

  /// Multi-line ASCII art (for debugging and golden tests).
  std::string to_string() const;

  std::size_t hash() const;

 private:
  std::size_t dim_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Bit-packed boolean row vector of fixed dimension, used for
/// reachability sweeps (vector * matrix).
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t dim);

  static BitVector unit(std::size_t dim, std::size_t index);
  static BitVector ones(std::size_t dim);

  std::size_t dim() const { return dim_; }
  bool get(std::size_t index) const;
  void set(std::size_t index, bool value);
  bool any() const;
  std::size_t count() const;

  /// v * M (boolean): result[j] = OR_i v[i] AND M[i][j].
  BitVector multiplied(const BitMatrix& m) const;
  /// v * M written into `out` (same dim), reusing its storage — for hot
  /// loops that cannot afford an allocation per product.
  void multiply_into(const BitMatrix& m, BitVector& out) const;

  /// Inner product: OR_i a[i] AND b[i].
  bool intersects(const BitVector& other) const;
  /// True if every set bit of *this is set in `other`.
  bool subset_of(const BitVector& other) const;
  /// Index of the lowest set bit, or dim() if none.
  std::size_t first_set() const;
  /// The packed bits: ceil(dim() / 64) words, bit i of the vector at bit
  /// i % 64 of word i / 64; padding bits past dim() are zero. Word-level
  /// read access for hot loops over flat buffers (the completion DP).
  const std::uint64_t* words() const { return words_.data(); }

  BitVector operator|(const BitVector& other) const;
  BitVector operator&(const BitVector& other) const;
  BitVector& operator|=(const BitVector& other);
  BitVector& operator&=(const BitVector& other);
  /// Clears the bits set in `other` (this &= ~other, within dim()).
  BitVector& remove(const BitVector& other);
  /// Zeroes every bit, keeping the dimension.
  void clear();

  bool operator==(const BitVector& other) const = default;
  std::size_t hash() const;
  std::string to_string() const;

 private:
  friend class BitMatrix;  // rows_meeting_into reads and writes words
  std::size_t dim_ = 0;
  std::vector<std::uint64_t> words_;
};

struct BitMatrix::Stabilization {
  BitMatrix stable_power;   ///< M^first (== M^{first + period})
  std::uint64_t first = 0;  ///< smallest exponent where the cycle starts
  std::uint64_t period = 1; ///< cycle length of the power sequence
};

struct BitMatrixHash {
  std::size_t operator()(const BitMatrix& m) const { return m.hash(); }
};
struct BitVectorHash {
  std::size_t operator()(const BitVector& v) const { return v.hash(); }
};

/// 64-bit mixing for composing hashes (splitmix64 finalizer).
inline std::size_t hash_mix(std::size_t seed, std::size_t value) {
  std::uint64_t x = static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(value);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

}  // namespace lclpath
