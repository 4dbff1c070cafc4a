#include "axc/logic/bitsliced.hpp"

#include "axc/obs/obs.hpp"

namespace axc::logic {

namespace {

/// One tape pass advances `lanes` vectors; the occupancy histogram is how
/// a run report shows whether batching actually fills the 64 lanes.
void count_pass(unsigned lanes) {
  static obs::Counter& passes = obs::counter("logic.sim.passes");
  static obs::Histogram& occupancy =
      obs::histogram("logic.sim.lane_occupancy");
  passes.add();
  occupancy.record(lanes);
}

}  // namespace

std::span<const std::uint64_t> BitslicedSimulator::apply_lanes(
    std::span<const std::uint64_t> input_words, unsigned lanes) {
  const std::span<const std::uint64_t> out =
      Engine::apply_lanes(input_words, lanes);
  count_pass(lanes);
  return out;
}

std::span<const std::uint64_t> BitslicedSimulator::apply_word_range(
    std::uint64_t base, unsigned lanes) {
  const std::span<const std::uint64_t> out =
      Engine::apply_word_range(base, lanes);
  count_pass(lanes);
  return out;
}

}  // namespace axc::logic
