#include "lb/maglev.hpp"

#include <algorithm>

#include "net/five_tuple.hpp"
#include "util/weight.hpp"

namespace klb::lb {

namespace {

/// SplitMix64 finalizer: the same mixer the RNG seeds with, used here to
/// derive a backend's (offset, skip) from nothing but its stable id.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

bool is_prime(std::size_t n) {
  if (n < 2) return false;
  if (n % 2 == 0) return n == 2;
  for (std::size_t d = 3; d * d <= n; d += 2)
    if (n % d == 0) return false;
  return true;
}

std::size_t next_prime(std::size_t n) {
  while (!is_prime(n)) ++n;
  return n;
}

/// (id, weight) pairs in id order: the order-free form built_from compares.
std::vector<std::pair<std::uint64_t, std::int64_t>> sorted_pairs(
    const std::vector<MaglevEntry>& entries) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> out;
  out.reserve(entries.size());
  for (const auto& e : entries) out.emplace_back(e.id, e.weight_units);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

MaglevTable::MaglevTable(std::size_t min_table_size) {
  slots_.assign(next_prime(std::max<std::size_t>(min_table_size, 3)),
                kEmptySlot);
}

void MaglevTable::build(const std::vector<MaglevEntry>& entries) {
  ++builds_;
  const std::size_t m = slots_.size();
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  ids_.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) ids_[i] = entries[i].id;
  built_from_ = sorted_pairs(entries);

  std::vector<std::uint32_t> usable;  // entry indexes with positive weight
  std::vector<std::int64_t> weights;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].weight_units <= 0) continue;
    usable.push_back(static_cast<std::uint32_t>(i));
    weights.push_back(entries[i].weight_units);
  }
  if (usable.empty()) return;

  // Largest-remainder slot apportionment — the same algorithm (and code)
  // the controller uses to make weight units sum to kWeightScale, here
  // with the table size as the total: exact to within one slot.
  const auto targets = util::normalize_to_units(
      std::vector<double>(weights.begin(), weights.end()),
      static_cast<std::int64_t>(m));

  // Per-backend permutation state: slot_j = (offset + j * skip) % m. With
  // m prime every skip in [1, m-1] walks all m slots, so the fill below
  // always terminates (sum of targets == m).
  const std::size_t n = usable.size();
  std::vector<std::size_t> offset(n), skip(n), next(n, 0), taken(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t h = mix64(entries[usable[k]].id);
    offset[k] = static_cast<std::size_t>(h % m);
    skip[k] = static_cast<std::size_t>(
                  1 + mix64(h ^ 0x9e3779b97f4a7c15ull) % (m - 1));
  }

  // Round-robin fill: each backend claims the next free slot of its own
  // permutation until it holds its apportioned share. Because permutations
  // depend only on the id, a pool change leaves every surviving backend
  // claiming (almost) the same slots — the minimal-disruption property.
  std::size_t filled = 0;
  while (filled < m) {
    for (std::size_t k = 0; k < n && filled < m; ++k) {
      if (taken[k] >= static_cast<std::size_t>(targets[k])) continue;
      std::size_t pos;
      do {
        pos = (offset[k] + next[k] * skip[k]) % m;
        ++next[k];
      } while (slots_[pos] != kEmptySlot);
      slots_[pos] = usable[k];
      ++taken[k];
      ++filled;
    }
  }
}

bool MaglevTable::built_from(const std::vector<MaglevEntry>& entries) const {
  return entries.size() == built_from_.size() &&
         sorted_pairs(entries) == built_from_;
}

void MaglevTable::resolve_slots(std::vector<std::uint32_t>& out) const {
  out.resize(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const auto e = slots_[s];
    out[s] = e == kEmptySlot ? 0xFFFFFFFFu
                             : static_cast<std::uint32_t>(ids_[e]);
  }
}

std::vector<std::size_t> MaglevTable::slot_counts() const {
  std::vector<std::size_t> counts(ids_.size(), 0);
  for (const auto s : slots_)
    if (s != kEmptySlot) ++counts[s];
  return counts;
}

std::size_t MaglevPolicy::pick(const net::FiveTuple& tuple,
                               const std::vector<BackendView>& backends,
                               util::Rng&) KLB_NONALLOCATING {
  if (dirty_ || backends.size() != cached_count_)
    KLB_EFFECT_ESCAPE("policy.maglev_rebuild", rebuild(backends));
  const auto idx = table_.lookup(net::hash_tuple(tuple));
  if (idx == MaglevTable::kEmptySlot) return kNoBackend;
  return idx;  // entries are built 1:1 with backend indexes
}

SharedMaglevTables::SharedMaglevTables(std::size_t min_table_size)
    : min_table_size_(min_table_size),
      latest_(std::make_shared<MaglevTable>(min_table_size)) {}

std::shared_ptr<const MaglevTable> SharedMaglevTables::table_for(
    const std::vector<MaglevEntry>& entries) {
  util::MutexLock lk(mu_);
  if (!latest_->built_from(entries)) {
    auto table = std::make_shared<MaglevTable>(min_table_size_);
    table->build(entries);
    latest_ = std::move(table);
    ++builds_;
  }
  return latest_;
}

std::shared_ptr<const MaglevTable> SharedMaglevTables::latest() const {
  util::MutexLock lk(mu_);
  return latest_;
}

std::uint64_t SharedMaglevTables::builds() const {
  util::MutexLock lk(mu_);
  return builds_;
}

void SharedMaglevPolicy::prepare(const std::vector<BackendView>& backends) {
  std::vector<MaglevEntry> entries;
  entries.reserve(backends.size());
  for (const auto& b : backends)
    if (b.enabled)
      entries.push_back(MaglevEntry{b.addr.value(), b.weight_units});
  if (!table_->built_from(entries)) table_ = tables_->table_for(entries);
  index_by_id_.clear();
  for (std::size_t i = 0; i < backends.size(); ++i)
    index_by_id_[backends[i].addr.value()] = i;
  index_dirty_ = false;
}

std::size_t SharedMaglevPolicy::pick(const net::FiveTuple& tuple,
                                     const std::vector<BackendView>& backends,
                                     util::Rng&) KLB_NONALLOCATING {
  if (index_dirty_ || index_by_id_.size() != backends.size()) {
    KLB_EFFECT_ESCAPE("policy.maglev_rebuild", {
      index_by_id_.clear();
      for (std::size_t i = 0; i < backends.size(); ++i)
        index_by_id_[backends[i].addr.value()] = i;
      index_dirty_ = false;
    });
  }
  const auto id = table_->lookup_id(net::hash_tuple(tuple));
  if (id == MaglevTable::kNoId) return kNoBackend;
  const auto it = index_by_id_.find(id);
  // The table and the pool commit together — prepare() derived it from
  // this very generation's backends — so every id it names is served
  // here; a miss is unreachable, and refused rather than guessed.
  if (it == index_by_id_.end()) return kNoBackend;
  const auto& b = backends[it->second];
  if (!b.enabled || b.weight_units <= 0) return kNoBackend;
  return it->second;
}

void MaglevPolicy::rebuild(const std::vector<BackendView>& backends) {
  std::vector<MaglevEntry> entries(backends.size());
  for (std::size_t i = 0; i < backends.size(); ++i) {
    entries[i].id = backends[i].addr.value();
    entries[i].weight_units =
        backends[i].enabled ? backends[i].weight_units : 0;
  }
  table_.build(entries);
  cached_count_ = backends.size();
  dirty_ = false;
}

}  // namespace klb::lb
