#include "axc/resilience/fault.hpp"

#include <algorithm>
#include <bit>

#include "axc/accel/sad_netlist.hpp"
#include "axc/common/bits.hpp"
#include "axc/common/require.hpp"
#include "axc/logic/tape_engine.hpp"
#include "axc/obs/obs.hpp"

namespace axc::resilience {

FaultInjector::FaultInjector(const FaultSpec& spec)
    : spec_(spec), rng_(spec.seed) {
  AXC_REQUIRE(spec.bit_flip_probability >= 0.0 &&
                  spec.bit_flip_probability <= 1.0,
              "FaultInjector: bit_flip_probability must be in [0, 1]");
}

std::uint64_t FaultInjector::corrupt(std::uint64_t word, unsigned width) {
  AXC_REQUIRE(width >= 1 && width <= 64,
              "FaultInjector::corrupt: width must be in [1, 64]");
  return (word & low_mask(width)) ^ flip_mask(width);
}

std::uint64_t FaultInjector::flip_mask(unsigned width) {
  AXC_REQUIRE(width >= 1 && width <= 64,
              "FaultInjector::flip_mask: width must be in [1, 64]");
  if (spec_.bit_flip_probability <= 0.0) return 0;
  std::uint64_t flips = 0;
  for (unsigned bit = 0; bit < width; ++bit) {
    if (rng_.uniform() < spec_.bit_flip_probability) {
      flips |= std::uint64_t{1} << bit;
    }
  }
  if (flips != 0) {
    const auto count = static_cast<std::uint64_t>(std::popcount(flips));
    bits_flipped_ += count;
    ++words_corrupted_;
    // Only actual upsets pay the obs cost; fault-free words stay on the
    // RNG-only path.
    static obs::Counter& flipped = obs::counter("resilience.fault.bits_flipped");
    static obs::Counter& corrupted =
        obs::counter("resilience.fault.words_corrupted");
    flipped.add(count);
    corrupted.add();
  }
  return flips;
}

void FaultInjector::reseed(std::uint64_t seed) {
  spec_.seed = seed;
  rng_.reseed(seed);
  bits_flipped_ = 0;
  words_corrupted_ = 0;
}

FaultySimulator::FaultySimulator(const logic::Netlist& netlist,
                                 const FaultSpec& spec)
    : netlist_(netlist),
      injector_(spec),
      tape_(logic::compile_netlist(netlist)),
      slots_(tape_->slot_count, 0),
      faults_(tape_->ops.size(), 0) {
  // Tie cells hold their value in every lane; upsets strike only logic.
  for (const std::uint32_t slot : tape_->const_one_slots) {
    slots_[slot] = ~std::uint64_t{0};
  }
}

std::vector<std::uint64_t> FaultySimulator::apply_lanes(
    std::span<const std::uint64_t> input_words, unsigned lanes) {
  const auto& input_slots = tape_->input_slots;
  AXC_REQUIRE(input_words.size() == input_slots.size(),
              "FaultySimulator::apply_lanes: input vector arity mismatch");
  AXC_REQUIRE(lanes >= 1 && lanes <= 64,
              "FaultySimulator::apply_lanes: lanes must be in [1, 64]");
  for (std::size_t i = 0; i < input_slots.size(); ++i) {
    slots_[input_slots[i]] = input_words[i];
  }
  // Per-lane XOR fault words: lane k of a gate's output upsets
  // independently with the spec probability. Drawn in gate order — the
  // order that defines a seeded campaign — and stored at each gate's op.
  const auto& op_of_gate = tape_->op_of_gate;
  for (std::size_t g = 0; g < op_of_gate.size(); ++g) {
    faults_[op_of_gate[g]] = injector_.flip_mask(lanes);
  }
  logic::detail::execute_tape<std::uint64_t, false>(
      *tape_, slots_.data(), nullptr, 0, faults_.data());
  std::vector<std::uint64_t> out;
  out.reserve(tape_->output_slots.size());
  for (const std::uint32_t slot : tape_->output_slots) {
    out.push_back(slots_[slot]);
  }
  return out;
}

std::vector<unsigned> FaultySimulator::apply(
    std::span<const unsigned> input_bits) {
  const auto& inputs = netlist_.inputs();
  AXC_REQUIRE(input_bits.size() == inputs.size(),
              "FaultySimulator::apply: input vector arity mismatch");
  std::vector<std::uint64_t> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    words[i] = input_bits[i] & 1u;
  }
  const std::vector<std::uint64_t> out_words = apply_lanes(words, 1);
  std::vector<unsigned> out;
  out.reserve(out_words.size());
  for (const std::uint64_t word : out_words) {
    out.push_back(static_cast<unsigned>(word & 1u));
  }
  return out;
}

std::uint64_t FaultySimulator::apply_word(std::uint64_t input_word) {
  const std::size_t n_in = netlist_.inputs().size();
  const std::size_t n_out = netlist_.outputs().size();
  AXC_REQUIRE(n_in <= 64 && n_out <= 64,
              "FaultySimulator::apply_word: needs <= 64 inputs/outputs");
  std::vector<std::uint64_t> words(n_in);
  for (std::size_t i = 0; i < n_in; ++i) {
    words[i] = bit_of(input_word, static_cast<unsigned>(i));
  }
  const std::vector<std::uint64_t> out = apply_lanes(words, 1);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    word |= (out[i] & 1u) << i;
  }
  return word;
}

std::vector<std::uint64_t> evaluate_with_faults(
    const accel::Datapath& dp, std::vector<std::uint64_t> input_values,
    FaultInjector& injector) {
  return dp.evaluate_with_hook(
      std::move(input_values),
      [&injector](accel::NodeId, unsigned width, std::uint64_t value) {
        return injector.corrupt(value, width);
      });
}

FaultySad::FaultySad(const accel::SadUnit& inner, const FaultSpec& spec)
    : inner_(inner),
      result_width_(static_cast<unsigned>(
          std::bit_width(std::uint64_t{inner.block_pixels()} * 255u))),
      injector_(spec) {}

std::uint64_t FaultySad::sad(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) const {
  return injector_.corrupt(inner_.sad(a, b), result_width_);
}

std::string FaultySad::name() const { return "Faulty<" + inner_.name() + ">"; }

FaultyNetlistSad::FaultyNetlistSad(const accel::SadConfig& config,
                                   const FaultSpec& spec)
    : config_(config),
      netlist_(accel::sad_netlist(config)),
      sim_(netlist_, spec) {}

void FaultyNetlistSad::apply_chunk(std::span<const std::uint8_t> a,
                                   std::span<const std::uint8_t> candidates,
                                   unsigned lanes,
                                   std::span<std::uint64_t> out) const {
  constexpr unsigned kPixelBits = 8;
  const std::size_t bp = config_.block_pixels;
  in_words_.resize(netlist_.inputs().size());
  std::uint64_t* words_a = in_words_.data();
  std::uint64_t* words_b = words_a + bp * kPixelBits;
  for (std::size_t p = 0; p < bp; ++p) {
    const unsigned value = a[p];
    for (unsigned bit = 0; bit < kPixelBits; ++bit) {
      words_a[p * kPixelBits + bit] =
          (value >> bit & 1u) ? ~std::uint64_t{0} : 0;
    }
  }
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
  const std::vector<std::uint64_t> out_words =
      sim_.apply_lanes(in_words_, lanes);
  for (unsigned k = 0; k < lanes; ++k) {
    std::uint64_t value = 0;
    for (std::size_t j = 0; j < out_words.size(); ++j) {
      value |= (out_words[j] >> k & 1u) << j;
    }
    out[k] = value;
  }
}

std::uint64_t FaultyNetlistSad::sad(std::span<const std::uint8_t> a,
                                    std::span<const std::uint8_t> b) const {
  AXC_REQUIRE(a.size() == config_.block_pixels && b.size() == a.size(),
              "FaultyNetlistSad::sad: block size mismatch");
  std::uint64_t out = 0;
  apply_chunk(a, b, 1, {&out, 1});
  return out;
}

void FaultyNetlistSad::sad_batch(std::span<const std::uint8_t> a,
                                 std::span<const std::uint8_t> candidates,
                                 std::span<std::uint64_t> out) const {
  const std::size_t bp = config_.block_pixels;
  AXC_REQUIRE(a.size() == bp,
              "FaultyNetlistSad::sad_batch: current block size mismatch");
  AXC_REQUIRE(candidates.size() == out.size() * bp,
              "FaultyNetlistSad::sad_batch: candidates must hold exactly "
              "one block per output slot");
  constexpr unsigned kLanes = 64;
  std::size_t done = 0;
  while (done < out.size()) {
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::size_t>(kLanes, out.size() - done));
    apply_chunk(a, candidates.subspan(done * bp, lanes * bp), lanes,
                out.subspan(done, lanes));
    done += lanes;
  }
}

std::string FaultyNetlistSad::name() const {
  return "FaultyNetlist<" + config_.name() + ">";
}

}  // namespace axc::resilience
