/// \file characterize.hpp
/// Component characterization: the "Area / Performance / Power / Quality"
/// loop of the paper's experimental setup (Fig. 2) and of the accelerator
/// methodology (Fig. 7, "Characterization" box).
///
/// For a given netlist this produces area (GE), estimated power (nW) under
/// uniform random stimulus, and — when a behavioural reference is supplied
/// — the quality metrics used by Table III and Fig. 5 (#error cases, max
/// error value).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "axc/arith/full_adder.hpp"
#include "axc/arith/mul2x2.hpp"
#include "axc/logic/netlist.hpp"
#include "axc/logic/power.hpp"
#include "axc/logic/truth_table.hpp"

namespace axc::logic {

/// The characterization record stored per component in the library.
struct Characterization {
  std::string name;
  double area_ge = 0.0;
  double power_nw = 0.0;
  std::size_t gate_count = 0;
  std::uint32_t error_cases = 0;  ///< rows differing from the reference
  std::uint32_t max_error = 0;    ///< max |out - ref| as unsigned ints
  std::uint64_t input_space = 0;  ///< rows evaluated for the quality metrics
};

/// Recovers the exact truth table of a small netlist by exhaustive
/// simulation (requires <= 20 inputs, <= 32 outputs). Memoized on the
/// netlist's structural_hash(): rebuilding an identical netlist returns
/// the cached table without re-simulating.
TruthTable netlist_truth_table(const Netlist& netlist);

/// Characterizes \p netlist: area from the cell library, power from
/// \p vectors random stimulus under \p model, quality vs \p reference
/// (skipped when nullopt — e.g. for blocks too wide to enumerate).
/// Memoized: the cache key covers the structural hash, vectors, seed, the
/// power-model parameters and the reference table, so any configuration
/// change misses (= invalidates) while identical rebuilds hit.
Characterization characterize(const Netlist& netlist,
                              const std::optional<TruthTable>& reference,
                              std::uint64_t vectors = 4096,
                              std::uint64_t seed = 1,
                              const PowerModel& model =
                                  calibrated_power_model());

/// Entries each of the characterization cache's three maps (records,
/// truth tables, numeric records) keeps; past it the least recently used
/// entry is evicted and recomputed on its next use.
inline constexpr std::size_t kCharacterizationCacheCapacity = 512;

/// Hit/miss counters of the in-process characterization cache (covers
/// characterize(), netlist_truth_table() and accel::characterize_sad())
/// and its current size. All cache operations are thread-safe.
struct CharacterizationCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;  ///< over all three maps
};
CharacterizationCacheStats characterization_cache_stats();

/// Drops every cached characterization and resets the counters. Intended
/// for tests and long-lived processes that rebuild cell libraries.
void clear_characterization_cache();

/// Internal registry backing the memoization: interns \p compute's result
/// under \p key, returning the cached copy on a repeat key. Exposed so
/// sibling layers (accel::characterize_sad) share one cache, one stats
/// surface and one clear().
namespace detail {
std::array<double, 3> cache_numeric_record(
    std::uint64_t key, const std::function<std::array<double, 3>()>& compute);

/// SplitMix64-style key combiner used for every characterization cache
/// key. Sibling layers must build their keys with this (seeded from
/// structural_hash()) rather than ad-hoc XOR folds, so all keys in the
/// shared cache get the same mixing quality.
std::uint64_t mix_key(std::uint64_t h, std::uint64_t value);
}  // namespace detail

/// Characterization of one Table III full adder against the accurate one.
/// Interprets the 2-bit {sum, carry} output as an unsigned value, as the
/// paper does when counting error cases.
Characterization characterize_full_adder(arith::FullAdderKind kind);

/// Characterization of one Fig. 5 multiplier block against AccMul.
/// For configurable variants the quality columns are evaluated in
/// approximate mode with the mode pin tied, while area/power include the
/// correction stage.
Characterization characterize_mul2x2(arith::Mul2x2Kind kind,
                                     bool configurable);

}  // namespace axc::logic
