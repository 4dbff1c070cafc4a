#include "axc/accel/sad_netlist.hpp"

#include <algorithm>
#include <bit>

#include "axc/accel/sad_tree.hpp"
#include "axc/common/require.hpp"
#include "axc/common/rng.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/bitsliced.hpp"
#include "axc/logic/characterize.hpp"
#include "axc/logic/power.hpp"
#include "axc/obs/obs.hpp"

namespace axc::accel {

using logic::CellType;
using logic::Netlist;
using logic::NetId;

namespace {

constexpr unsigned kPixelBits = 8;

std::vector<arith::FullAdderKind> cells_for(const SadConfig& config,
                                            unsigned width) {
  std::vector<arith::FullAdderKind> cells(width,
                                          arith::FullAdderKind::Accurate);
  const unsigned k = std::min(config.approx_lsbs, width);
  std::fill(cells.begin(), cells.begin() + k, config.cell);
  return cells;
}

/// |a - b| stage: two ripple subtractors and a borrow-driven mux, exactly
/// the structure the behavioural arith::abs_diff_via models.
std::vector<NetId> add_abs_diff(Netlist& nl, const SadConfig& config,
                                std::span<const NetId> a,
                                std::span<const NetId> b) {
  const auto cells = cells_for(config, kPixelBits);
  const NetId one_a = nl.add_const(true);
  std::vector<NetId> not_b(kPixelBits);
  std::vector<NetId> not_a(kPixelBits);
  for (unsigned i = 0; i < kPixelBits; ++i) {
    not_b[i] = nl.add_gate(CellType::Inv, b[i]);
    not_a[i] = nl.add_gate(CellType::Inv, a[i]);
  }
  const std::vector<NetId> d1 =
      logic::add_ripple_adder(nl, a, not_b, one_a, cells);
  const NetId one_b = nl.add_const(true);
  const std::vector<NetId> d2 =
      logic::add_ripple_adder(nl, b, not_a, one_b, cells);
  const NetId no_borrow = d1[kPixelBits];  // carry-out of a - b
  std::vector<NetId> out(kPixelBits);
  for (unsigned i = 0; i < kPixelBits; ++i) {
    // Mux2(sel, x, y) = sel ? y : x — select d1 when no borrow.
    out[i] = nl.add_gate(CellType::Mux2, no_borrow, d2[i], d1[i]);
  }
  return out;
}

}  // namespace

Netlist sad_netlist(const SadConfig& config) {
  require(config.block_pixels >= 2 &&
              config.block_pixels <= kMaxBlockPixels &&
              std::has_single_bit(config.block_pixels),
          "sad_netlist: block_pixels must be a power of two in [2, 4096]");
  Netlist nl(config.name());

  std::vector<std::vector<NetId>> a(config.block_pixels);
  std::vector<std::vector<NetId>> b(config.block_pixels);
  for (unsigned p = 0; p < config.block_pixels; ++p) {
    a[p].resize(kPixelBits);
    for (unsigned i = 0; i < kPixelBits; ++i) {
      a[p][i] = nl.add_input("a" + std::to_string(p) + "_" +
                             std::to_string(i));
    }
  }
  for (unsigned p = 0; p < config.block_pixels; ++p) {
    b[p].resize(kPixelBits);
    for (unsigned i = 0; i < kPixelBits; ++i) {
      b[p][i] = nl.add_input("b" + std::to_string(p) + "_" +
                             std::to_string(i));
    }
  }

  std::vector<std::vector<NetId>> values(config.block_pixels);
  for (unsigned p = 0; p < config.block_pixels; ++p) {
    values[p] = add_abs_diff(nl, config, a[p], b[p]);
  }

  unsigned width = kPixelBits;
  while (values.size() > 1) {
    const auto cells = cells_for(config, width);
    std::vector<std::vector<NetId>> next(values.size() / 2);
    for (std::size_t i = 0; i < next.size(); ++i) {
      const NetId zero = nl.add_const(false);
      next[i] = logic::add_ripple_adder(nl, values[2 * i], values[2 * i + 1],
                                        zero, cells);
    }
    values = std::move(next);
    ++width;
  }
  for (std::size_t i = 0; i < values.front().size(); ++i) {
    nl.mark_output(values.front()[i], "sad" + std::to_string(i));
  }
  return nl;
}

SadHardwareReport characterize_sad(const SadConfig& config,
                                   std::uint64_t vectors,
                                   std::uint64_t seed) {
  const Netlist nl = sad_netlist(config);
  // Memoized: identical structure + stimulus parameters reuse the
  // simulated power instead of re-walking the gate list (thread-safe;
  // shared with logic::characterize via the same cache, and keyed with
  // the same mix_key combiner so every key in that cache is mixed alike).
  std::uint64_t key =
      logic::detail::mix_key(nl.structural_hash(), std::uint64_t{0x5ADC4A5E});
  key = logic::detail::mix_key(key, vectors);
  key = logic::detail::mix_key(key, seed);
  const std::array<double, 3> record = logic::detail::cache_numeric_record(
      key, [&nl, vectors, seed]() -> std::array<double, 3> {
        // Packed stimulus: one 64-bit word per primary input carries 64
        // random lanes, so each pass over the (large) SAD gate list
        // advances 64 vectors.
        logic::BitslicedSimulator sim(nl);
        axc::Rng rng(seed);
        const unsigned lane_width = static_cast<unsigned>(
            std::min<std::uint64_t>(logic::BitslicedSimulator::kLanes,
                                    std::max<std::uint64_t>(1, vectors / 2)));
        std::vector<std::uint64_t> stimulus(nl.inputs().size());
        std::uint64_t remaining = vectors;
        while (remaining > 0) {
          const unsigned lanes = static_cast<unsigned>(
              std::min<std::uint64_t>(lane_width, remaining));
          for (auto& word : stimulus) word = rng();
          sim.apply_lanes(stimulus, lanes);
          remaining -= lanes;
        }
        const double power_nw =
            logic::calibrated_power_model().estimate(sim).total_nw;
        return {nl.area_ge(), power_nw,
                static_cast<double>(nl.gate_count())};
      });

  SadHardwareReport report;
  report.area_ge = record[0];
  report.power_nw = record[1];
  report.gate_count = static_cast<std::size_t>(record[2]);
  return report;
}

NetlistSad::NetlistSad(const SadConfig& config)
    : config_(config), netlist_(sad_netlist(config)), sim_(netlist_) {}

void NetlistSad::apply_chunk(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> candidates,
                             unsigned lanes,
                             std::span<std::uint64_t> out) const {
  const std::size_t bp = config_.block_pixels;
  in_words_.resize(netlist_.inputs().size());
  std::uint64_t* words_a = in_words_.data();
  std::uint64_t* words_b = words_a + bp * kPixelBits;
  // Current block broadcast: every lane compares against the same A.
  for (std::size_t p = 0; p < bp; ++p) {
    const unsigned value = a[p];
    for (unsigned bit = 0; bit < kPixelBits; ++bit) {
      words_a[p * kPixelBits + bit] =
          (value >> bit & 1u) ? ~std::uint64_t{0} : 0;
    }
  }
  // Candidate blocks transposed into lanes: bit k of B-input (p, bit) is
  // candidate k's pixel bit.
  std::fill(words_b, words_b + bp * kPixelBits, 0);
  for (unsigned k = 0; k < lanes; ++k) {
    const std::uint8_t* candidate = candidates.data() + k * bp;
    for (std::size_t p = 0; p < bp; ++p) {
      const unsigned value = candidate[p];
      for (unsigned bit = 0; bit < kPixelBits; ++bit) {
        words_b[p * kPixelBits + bit] |=
            static_cast<std::uint64_t>(value >> bit & 1u) << k;
      }
    }
  }
  sim_.apply_lanes(in_words_, lanes);
  for (unsigned k = 0; k < lanes; ++k) out[k] = sim_.lane_output(k);
}

std::uint64_t NetlistSad::sad(std::span<const std::uint8_t> a,
                              std::span<const std::uint8_t> b) const {
  AXC_REQUIRE(a.size() == config_.block_pixels && b.size() == a.size(),
              "NetlistSad::sad: block size mismatch");
  std::uint64_t out = 0;
  apply_chunk(a, b, 1, {&out, 1});
  return out;
}

void NetlistSad::sad_batch(std::span<const std::uint8_t> a,
                           std::span<const std::uint8_t> candidates,
                           std::span<std::uint64_t> out) const {
  const std::size_t bp = config_.block_pixels;
  AXC_REQUIRE(a.size() == bp, "NetlistSad::sad_batch: current block size "
                              "mismatch");
  AXC_REQUIRE(candidates.size() == out.size() * bp,
              "NetlistSad::sad_batch: candidates must hold exactly one "
              "block per output slot");
  detail::count_sad_batch(out.size());
  // Lane occupancy of the packed passes this batch breaks into; full-ish
  // buckets mean the 64-lane engine is actually being fed 64-wide.
  static obs::Histogram& occupancy =
      obs::histogram("accel.sad_batch.lane_occupancy");
  constexpr unsigned kLanes = logic::BitslicedSimulator::kLanes;
  std::size_t done = 0;
  while (done < out.size()) {
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::size_t>(kLanes, out.size() - done));
    occupancy.record(lanes);
    apply_chunk(a, candidates.subspan(done * bp, lanes * bp), lanes,
                out.subspan(done, lanes));
    done += lanes;
  }
}

std::string NetlistSad::name() const {
  return "Netlist<" + config_.name() + ">";
}

bool NetlistSad::is_exact() const {
  return config_.cell == arith::FullAdderKind::Accurate ||
         config_.approx_lsbs == 0;
}

}  // namespace axc::accel
