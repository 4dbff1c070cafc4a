#include "axc/logic/characterize.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#include "axc/common/lru_map.hpp"
#include "axc/common/require.hpp"
#include "axc/logic/bitsliced.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/mul_netlists.hpp"
#include "axc/obs/obs.hpp"

namespace axc::logic {

namespace {

/// Mirrors the memo's internal hit/miss tally into the obs registry (the
/// report writer derives logic.characterize_cache.hit_rate from the pair).
void count_cache_probe(bool hit) {
  static obs::Counter& hits = obs::counter("logic.characterize_cache.hits");
  static obs::Counter& misses =
      obs::counter("logic.characterize_cache.misses");
  (hit ? hits : misses).add();
}

template <class Value>
using Memo = LruMap<std::uint64_t, Value, kCharacterizationCacheCapacity>;

/// One process-wide memo for every simulated characterization product.
/// Keys are structural-hash-derived digests; values are immutable once
/// interned, so lookups can hand out copies under a single mutex.
struct CharacterizationCache {
  std::mutex mutex;
  Memo<Characterization> records;
  Memo<TruthTable> tables;
  Memo<std::array<double, 3>> numeric;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

CharacterizationCache& cache() {
  static CharacterizationCache instance;
  return instance;
}

/// The value under \p key in the cache's \p memo, or \p compute's result
/// interned there. compute runs outside the lock, so concurrent misses on
/// one key may both compute; the first insert wins and both get its copy.
template <class Value, class Compute>
Value memoized(Memo<Value> CharacterizationCache::*memo, std::uint64_t key,
               Compute&& compute) {
  CharacterizationCache& c = cache();
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    if (const Value* hit = (c.*memo).find(key)) {
      ++c.hits;
      count_cache_probe(true);
      return *hit;
    }
    ++c.misses;
    count_cache_probe(false);
  }
  Value value = compute();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return (c.*memo).insert(key, std::move(value));
}

using detail::mix_key;

std::uint64_t mix_key(std::uint64_t h, double value) {
  return mix_key(h, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t mix_key(std::uint64_t h, const std::string& text) {
  for (const char c : text) {
    h = mix_key(h, static_cast<std::uint64_t>(
                       static_cast<unsigned char>(c)));
  }
  return mix_key(h, text.size());
}

std::uint64_t truth_table_digest(const TruthTable& table) {
  std::uint64_t h = mix_key(std::uint64_t{table.num_inputs()},
                            std::uint64_t{table.num_outputs()});
  for (std::uint32_t row = 0; row < table.row_count(); ++row) {
    h = mix_key(h, std::uint64_t{table.value(row)});
  }
  return h;
}

/// The uncached body of netlist_truth_table().
TruthTable enumerate_truth_table(const Netlist& netlist) {
  const unsigned n_in = static_cast<unsigned>(netlist.inputs().size());
  const unsigned n_out = static_cast<unsigned>(netlist.outputs().size());
  // Bitsliced enumeration: 64 rows per pass over the gate list.
  BitslicedSimulator sim(netlist);
  const std::uint64_t total = std::uint64_t{1} << n_in;
  std::vector<std::uint32_t> rows(total);
  for (std::uint64_t base = 0; base < total;
       base += BitslicedSimulator::kLanes) {
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::uint64_t>(BitslicedSimulator::kLanes, total - base));
    sim.apply_word_range(base, lanes);
    for (unsigned k = 0; k < lanes; ++k) {
      rows[base + k] = static_cast<std::uint32_t>(sim.lane_output(k));
    }
  }
  return TruthTable::from_rows(n_in, n_out, std::move(rows));
}

}  // namespace

TruthTable netlist_truth_table(const Netlist& netlist) {
  const unsigned n_in = static_cast<unsigned>(netlist.inputs().size());
  const unsigned n_out = static_cast<unsigned>(netlist.outputs().size());
  require(n_in >= 1 && n_in <= 20 && n_out >= 1 && n_out <= 32,
          "netlist_truth_table: netlist too wide to enumerate");
  const std::uint64_t key =
      mix_key(netlist.structural_hash(), std::uint64_t{0x77});
  return memoized(&CharacterizationCache::tables, key,
                  [&] { return enumerate_truth_table(netlist); });
}

Characterization characterize(const Netlist& netlist,
                              const std::optional<TruthTable>& reference,
                              std::uint64_t vectors, std::uint64_t seed,
                              const PowerModel& model) {
  std::uint64_t key =
      mix_key(netlist.structural_hash(), std::uint64_t{0xC4});
  key = mix_key(key, netlist.name());
  key = mix_key(key, vectors);
  key = mix_key(key, seed);
  key = mix_key(key, model.clock_ghz);
  key = mix_key(key, model.energy_scale);
  key = mix_key(key, model.leakage_nw_per_ge);
  key = mix_key(key, reference.has_value()
                         ? truth_table_digest(*reference)
                         : std::uint64_t{0});
  return memoized(&CharacterizationCache::records, key, [&] {
    Characterization result;
    result.name = netlist.name();
    result.area_ge = netlist.area_ge();
    result.gate_count = netlist.gate_count();
    result.power_nw =
        estimate_random_power(netlist, vectors, seed, model).total_nw;
    if (reference.has_value()) {
      const TruthTable actual = netlist_truth_table(netlist);
      result.error_cases = actual.error_cases_vs(*reference);
      result.max_error = actual.max_error_vs(*reference);
      result.input_space = actual.row_count();
    }
    return result;
  });
}

CharacterizationCacheStats characterization_cache_stats() {
  CharacterizationCache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return {c.hits, c.misses,
          c.records.size() + c.tables.size() + c.numeric.size()};
}

void clear_characterization_cache() {
  CharacterizationCache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.records.clear();
  c.tables.clear();
  c.numeric.clear();
  c.hits = 0;
  c.misses = 0;
}

namespace detail {

std::uint64_t mix_key(std::uint64_t h, std::uint64_t value) {
  h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

std::array<double, 3> cache_numeric_record(
    std::uint64_t key, const std::function<std::array<double, 3>()>& compute) {
  return memoized(&CharacterizationCache::numeric, key, compute);
}

}  // namespace detail

Characterization characterize_full_adder(arith::FullAdderKind kind) {
  const Netlist netlist = full_adder_netlist(kind);
  // Reference: the accurate behaviour, outputs packed as {sum, carry}.
  const TruthTable reference = TruthTable::from_function(
      3, 2, [](std::uint32_t w) -> std::uint32_t {
        const unsigned a = w & 1u, b = (w >> 1) & 1u, cin = (w >> 2) & 1u;
        const auto out =
            arith::full_add(arith::FullAdderKind::Accurate, a, b, cin);
        return out.sum | (out.carry << 1);
      });
  return characterize(netlist, reference);
}

Characterization characterize_mul2x2(arith::Mul2x2Kind kind,
                                     bool configurable) {
  // Quality is always judged on the 4-input product function; for the
  // configurable variants we characterize area/power on the full netlist
  // (mode pin included in the random stimulus, as a real workload would
  // toggle it) and quality in approximate mode.
  const TruthTable reference =
      TruthTable::from_function(4, 4, [](std::uint32_t w) -> std::uint32_t {
        const unsigned a = w & 3u;
        const unsigned b = (w >> 2) & 3u;
        return a * b;
      });

  const Netlist netlist =
      configurable ? cfg_mul2x2_netlist(kind) : mul2x2_netlist(kind);
  Characterization result;
  result.name = netlist.name();
  result.area_ge = netlist.area_ge();
  result.gate_count = netlist.gate_count();
  result.power_nw = estimate_random_power(netlist).total_nw;

  // Behavioural quality of the approximate mode.
  const TruthTable behaviour =
      TruthTable::from_function(4, 4, [&](std::uint32_t w) -> std::uint32_t {
        const unsigned a = w & 3u;
        const unsigned b = (w >> 2) & 3u;
        return arith::mul2x2(kind, a, b);
      });
  result.error_cases = behaviour.error_cases_vs(reference);
  result.max_error = behaviour.max_error_vs(reference);
  result.input_space = behaviour.row_count();
  return result;
}

}  // namespace axc::logic
