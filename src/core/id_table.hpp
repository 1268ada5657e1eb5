// Dense ids for distinct values — the deduplication step of the deciders'
// hot loops, which do their pairwise work once per distinct bit-vector or
// matrix operand instead of once per context class or monoid element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lclpath {

/// Open-addressing table assigning dense ids 0, 1, ... to distinct keys in
/// first-seen order. Keys stay in the caller's storage: a key is named by
/// an index, and the caller passes its hash plus an equality test against
/// the representative index of an existing id. clear() keeps the storage,
/// so a loop regrouping a bounded number of keys every pass allocates
/// nothing once the table has been reserved (or has grown) to that bound.
class IdTable {
 public:
  /// Sizes the table for `keys` distinct keys without growing.
  void reserve(std::size_t keys) {
    std::size_t capacity = 16;
    while (capacity < 2 * keys) capacity *= 2;
    if (capacity > slots_.size()) rehash(capacity);
    reps_.reserve(keys);
    hashes_.reserve(keys);
    slot_of_.reserve(keys);
  }

  /// Forgets every key in O(size()), keeping the storage.
  void clear() {
    for (std::size_t slot : slot_of_) slots_[slot] = 0;
    reps_.clear();
    hashes_.clear();
    slot_of_.clear();
  }

  /// Id of key `index`, whose hash is `hash`; `same(rep, index)` tests it
  /// against the representative index `rep` of an existing id with an
  /// equal hash. A key seen for the first time gets the next id.
  template <class Same>
  std::size_t intern(std::size_t hash, std::size_t index, Same&& same) {
    if (2 * (reps_.size() + 1) > slots_.size()) rehash(slots_.empty() ? 16 : 2 * slots_.size());
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      const std::uint32_t entry = slots_[slot];
      if (entry == 0) {
        const std::size_t id = reps_.size();
        slots_[slot] = static_cast<std::uint32_t>(id + 1);
        reps_.push_back(index);
        hashes_.push_back(hash);
        slot_of_.push_back(slot);
        return id;
      }
      const std::size_t id = entry - 1;
      if (hashes_[id] == hash && same(reps_[id], index)) return id;
    }
  }

  /// Number of distinct keys since the last clear().
  std::size_t size() const { return reps_.size(); }
  /// The index first interned under `id`.
  std::size_t rep(std::size_t id) const { return reps_[id]; }

 private:
  void rehash(std::size_t capacity) {
    slots_.assign(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (std::size_t id = 0; id < reps_.size(); ++id) {
      std::size_t slot = hashes_[id] & mask;
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::uint32_t>(id + 1);
      slot_of_[id] = slot;
    }
  }

  std::vector<std::uint32_t> slots_;  ///< 0 = empty, else id + 1
  std::vector<std::size_t> reps_;     ///< [id] -> first index
  std::vector<std::size_t> hashes_;   ///< [id] -> hash
  std::vector<std::size_t> slot_of_;  ///< [id] -> slot, for clear()
};

}  // namespace lclpath
