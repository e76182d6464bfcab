#ifndef SDELTA_RELATIONAL_DICTIONARY_H_
#define SDELTA_RELATIONAL_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sdelta::rel {

/// An append-only string interner: every distinct string gets a dense
/// uint32 code, assigned at first sight and never changed or reused.
/// Codes are stable for the lifetime of the dictionary, which is what
/// lets propagate and refresh agree on key encodings across batches —
/// a summary-delta computed in batch k probes summary-table entries
/// encoded in batch 1 through the same dictionary.
///
/// Thread safety: Intern/Lookup/ValueOf/size may be called concurrently
/// (parallel GroupBy morsels share dictionaries).
/// Returned string references stay valid forever: storage is a deque,
/// which never moves existing elements on append.
///
/// Code *values* depend on interning order and are therefore not
/// deterministic across thread counts; they are only ever used for
/// equality within one process, never persisted or compared across runs.
class Dictionary {
 public:
  /// Codes are capped below 2^32 - 1 so a 32-bit packed-key field can
  /// spend its all-ones pattern on NULL. Interning more than kMaxCode
  /// distinct strings throws std::length_error.
  static constexpr uint32_t kMaxCode = 0xFFFFFFFEu;

  Dictionary() = default;
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// The code for `s`, interning it on first sight.
  uint32_t Intern(const std::string& s);

  /// The code for `s` if already interned (never interns).
  std::optional<uint32_t> Lookup(const std::string& s) const;

  /// The string for a code previously returned by Intern. Out-of-range
  /// codes throw std::out_of_range.
  const std::string& ValueOf(uint32_t code) const;

  size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::deque<std::string> strings_;  // code -> string; stable addresses
  // Views point into strings_, so no second copy of each key.
  std::unordered_map<std::string_view, uint32_t> codes_;
};

/// Per-column dictionaries shared via the catalog: summary tables (and
/// anything else keying on a named column) ask for the column's
/// dictionary by name, so every view grouping on "city" encodes city
/// strings through one interner. Dictionaries are heap-allocated and
/// never destroyed while the pool lives, so references survive catalog
/// moves (the warehouse moves its catalog in at construction).
class DictionaryPool {
 public:
  DictionaryPool() = default;
  DictionaryPool(const DictionaryPool&) = delete;
  DictionaryPool& operator=(const DictionaryPool&) = delete;

  /// The dictionary for `column`, created on first request.
  Dictionary& ForColumn(const std::string& column);

  /// (column, entry count) pairs, sorted by column name.
  std::vector<std::pair<std::string, size_t>> Entries() const;

  /// Total interned strings across all columns (the dict.entries gauge).
  size_t TotalEntries() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Dictionary>> dicts_;
};

/// Owner for operation-local dictionaries: a GroupBy or HashJoin whose
/// string key columns have no catalog-backed dictionary interns into
/// arena-owned ones that die with the operator call. Deque storage keeps
/// addresses stable across Add calls (Dictionary is not movable).
class DictionaryArena {
 public:
  Dictionary& Add() { return dicts_.emplace_back(); }
  size_t size() const { return dicts_.size(); }

 private:
  std::deque<Dictionary> dicts_;
};

}  // namespace sdelta::rel

#endif  // SDELTA_RELATIONAL_DICTIONARY_H_
