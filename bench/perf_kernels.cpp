/// Perf harness for the bit-parallel simulation + multithreaded evaluation
/// work: times the scalar reference Simulator vs the 64-lane
/// BitslicedSimulator, the functional wide-lane tape vs the counted 64-lane
/// BitslicedSimulator, batched vs per-candidate netlist SAD over a full
/// motion-search window, 1-vs-N-thread error evaluation, an end-to-end
/// encode on the per-bit ripple SAD vs compiled adders (with the share of
/// each arm spent inside sad_batch) and pipelined vs serial reactor
/// traffic on fixed workloads, and writes machine-readable medians and
/// speedup ratios to BENCH_kernels.json.
///
/// In non-smoke runs the harness *asserts* the wide-tape floors (>= 4x on
/// "wallace8x8 exhaustive compiled" and "ripple16 streams compiled"), the
/// compiled-adder floor (>= 10x on "encoder fig9-small") and the
/// pipelining floor (>= 2x on "service_concurrency conns=256") so a perf
/// regression fails the run instead of silently shipping a smaller number.
///
/// Usage: perf_kernels [--smoke] [--out <path>]
///   --smoke  reduced repetitions/workloads (CI smoke step)
///   --out    output path (default BENCH_kernels.json in the CWD)
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "axc/accel/sad.hpp"
#include "axc/cluster/local.hpp"
#include "axc/accel/sad_netlist.hpp"
#include "axc/arith/gear.hpp"
#include "axc/common/bits.hpp"
#include "axc/common/rng.hpp"
#include "axc/error/evaluate.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/bitsliced.hpp"
#include "axc/logic/characterize.hpp"
#include "axc/logic/mul_netlists.hpp"
#include "axc/logic/simulator.hpp"
#include "axc/logic/tape_engine.hpp"
#include "axc/obs/obs.hpp"
#include "axc/service/protocol.hpp"
#include "axc/service/reactor.hpp"
#include "axc/service/server.hpp"
#include "axc/service/tcp.hpp"
#include "axc/service/transport.hpp"
#include "axc/video/encoder.hpp"
#include "axc/video/sequence.hpp"
#include "bench_util.hpp"

namespace {

using axc::bench::median_ms;
/// Keeps results observable so the timed loops cannot be optimized away.
volatile std::uint64_t& g_sink = axc::bench::sink;

struct KernelResult {
  std::string name;
  std::string baseline;  ///< what `speedup` is measured against
  std::string engine;    ///< what runs the optimized path ("" = n/a)
  double baseline_ms = 0.0;
  double optimized_ms = 0.0;
  double speedup = 0.0;
  std::uint64_t vectors = 0;      ///< stimulus vectors per run
  unsigned baseline_threads = 1;  ///< worker threads the baseline ran on
  unsigned optimized_threads = 1; ///< worker threads the optimized path used
  /// Tail latency of one request in each arm; 0 = not a latency kernel.
  /// (Only the service_concurrency kernels fill these.)
  double baseline_p99_ms = 0.0;
  double optimized_p99_ms = 0.0;
  /// Share of each arm's time spent inside one child layer; empty layer =
  /// not split. (Only the encoder kernel fills this.)
  struct {
    std::string layer;
    double baseline_share = 0.0;
    double optimized_share = 0.0;
  } split;
};

/// Exactness gate, kept outside every timed region: a counted
/// BitslicedSimulator run over \p steps (one packed stimulus word per
/// input per step, all 64 lanes active) must match 64 reference Simulators
/// — lane k fed bit k of every word — toggle for toggle and byte for byte
/// in energy. Aborts the bench on any difference.
void check_against_reference(
    const std::string& name, const axc::logic::Netlist& netlist,
    const std::vector<std::vector<std::uint64_t>>& steps) {
  axc::logic::BitslicedSimulator packed(netlist);
  for (const auto& words : steps) packed.apply_lanes(words);
  std::vector<std::uint64_t> toggles(netlist.gate_count(), 0);
  std::vector<unsigned> bits(netlist.inputs().size());
  for (unsigned lane = 0; lane < axc::logic::BitslicedSimulator::kLanes;
       ++lane) {
    axc::logic::Simulator reference(netlist);
    for (const auto& words : steps) {
      for (std::size_t i = 0; i < bits.size(); ++i) {
        bits[i] = axc::bit_of(words[i], lane);
      }
      reference.apply(bits);
    }
    for (std::size_t g = 0; g < toggles.size(); ++g) {
      toggles[g] += reference.gate_toggles(g);
    }
  }
  double energy = 0.0;
  for (std::size_t g = 0; g < toggles.size(); ++g) {
    if (packed.gate_toggles(g) != toggles[g]) {
      std::cerr << name << ": toggle mismatch at gate " << g << "\n";
      std::exit(1);
    }
    energy += static_cast<double>(toggles[g]) *
              axc::logic::cell_info(netlist.gates()[g].type).energy_fj;
  }
  if (packed.switched_energy_fj() != energy) {
    std::cerr << name << ": energy not byte-identical to the reference\n";
    std::exit(1);
  }
}

/// Scalar reference vs 64-lane exhaustive enumeration of a <=64-input
/// netlist.
KernelResult exhaustive_kernel(const std::string& name,
                               const axc::logic::Netlist& netlist, int reps) {
  using axc::logic::BitslicedSimulator;
  const unsigned n_in = static_cast<unsigned>(netlist.inputs().size());
  const std::uint64_t total = std::uint64_t{1} << n_in;

  KernelResult result;
  result.name = name;
  result.baseline = "scalar Simulator::apply_word";
  result.engine = "compiled";
  result.vectors = total;

  // Checksums from both paths must agree — validated outside the timing.
  std::uint64_t scalar_sum = 0;
  std::uint64_t packed_sum = 0;

  result.baseline_ms = median_ms(reps, [&] {
    axc::logic::Simulator sim(netlist);
    std::uint64_t sum = 0;
    for (std::uint64_t w = 0; w < total; ++w) sum += sim.apply_word(w);
    scalar_sum = sum;
    g_sink = sum;
  });
  result.optimized_ms = median_ms(reps, [&] {
    BitslicedSimulator sim(netlist);
    std::uint64_t sum = 0;
    for (std::uint64_t base = 0; base < total;
         base += BitslicedSimulator::kLanes) {
      const unsigned lanes = static_cast<unsigned>(
          std::min<std::uint64_t>(BitslicedSimulator::kLanes, total - base));
      sim.apply_word_range(base, lanes);
      for (unsigned k = 0; k < lanes; ++k) sum += sim.lane_output(k);
    }
    packed_sum = sum;
    g_sink = sum;
  });
  if (scalar_sum != packed_sum) {
    std::cerr << name << ": checksum mismatch (scalar " << scalar_sum
              << " vs bitsliced " << packed_sum << ")\n";
    std::exit(1);
  }
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// Scalar reference vs 64-lane random-stimulus simulation (works for any input
/// count, including the >64-input SAD datapath shape).
KernelResult random_kernel(const std::string& name,
                           const axc::logic::Netlist& netlist, unsigned steps,
                           int reps) {
  using axc::logic::BitslicedSimulator;
  const std::size_t n_in = netlist.inputs().size();
  constexpr unsigned kLanes = BitslicedSimulator::kLanes;

  // Pre-generate the packed stimulus; the scalar runs replay bit-k lanes of
  // the same words so both paths see identical vectors.
  axc::Rng rng(0xBE7C);
  std::vector<std::vector<std::uint64_t>> stimulus(steps);
  for (auto& words : stimulus) {
    words.resize(n_in);
    for (auto& word : words) word = rng();
  }

  KernelResult result;
  result.name = name;
  result.baseline = "scalar Simulator::apply";
  result.engine = "compiled";
  result.vectors = static_cast<std::uint64_t>(steps) * kLanes;

  double scalar_energy = 0.0;
  double packed_energy = 0.0;

  result.baseline_ms = median_ms(reps, [&] {
    double energy = 0.0;
    std::vector<unsigned> bits(n_in);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      axc::logic::Simulator sim(netlist);
      for (unsigned t = 0; t < steps; ++t) {
        for (std::size_t i = 0; i < n_in; ++i) {
          bits[i] = axc::bit_of(stimulus[t][i], lane);
        }
        g_sink = sim.apply(bits).front();
      }
      energy += sim.switched_energy_fj();
    }
    scalar_energy = energy;
  });
  result.optimized_ms = median_ms(reps, [&] {
    BitslicedSimulator sim(netlist);
    for (unsigned t = 0; t < steps; ++t) {
      g_sink = sim.apply_lanes(stimulus[t]).front();
    }
    packed_energy = sim.switched_energy_fj();
  });
  // The per-lane scalar sums reassociate the per-gate additions, so allow
  // last-ULP drift; gate-for-gate exactness is covered by the test suite.
  if (std::abs(scalar_energy - packed_energy) >
      1e-9 * (1.0 + std::abs(scalar_energy))) {
    std::cerr << name << ": energy mismatch (scalar " << scalar_energy
              << " vs bitsliced " << packed_energy << ")\n";
    std::exit(1);
  }
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// Batched (64-lane) vs per-candidate netlist SAD over one full-search
/// motion window — the tentpole speedup of the batched evaluation path.
KernelResult sad_window_kernel(const axc::accel::SadConfig& config,
                               int search_range, int reps) {
  const axc::accel::NetlistSad packed(config);
  const std::size_t bp = config.block_pixels;
  const std::size_t window = static_cast<std::size_t>(2 * search_range + 1) *
                             (2 * search_range + 1);

  axc::Rng rng(0x5ADB);
  std::vector<std::uint8_t> a(bp);
  for (auto& px : a) px = static_cast<std::uint8_t>(rng.bits(8));
  std::vector<std::uint8_t> candidates(window * bp);
  for (auto& px : candidates) px = static_cast<std::uint8_t>(rng.bits(8));

  KernelResult result;
  result.name = config.name() + " netlist full-search window";
  result.baseline = "per-candidate NetlistSad::sad";
  result.engine = "compiled";
  result.vectors = window;

  std::vector<std::uint64_t> scalar_out(window);
  std::vector<std::uint64_t> batched_out(window);
  const std::span<const std::uint8_t> span(candidates);
  result.baseline_ms = median_ms(reps, [&] {
    for (std::size_t i = 0; i < window; ++i) {
      scalar_out[i] = packed.sad(a, span.subspan(i * bp, bp));
    }
    g_sink = scalar_out.back();
  });
  result.optimized_ms = median_ms(reps, [&] {
    packed.sad_batch(a, candidates, batched_out);
    g_sink = batched_out.back();
  });
  if (scalar_out != batched_out) {
    std::cerr << result.name << ": batched/scalar result mismatch\n";
    std::exit(1);
  }
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// Wide word type the compiled-engine kernels run at: 8x64 = 512 lanes per
/// pass, the measured sweet spot for the SoA tape on this gate-size range.
using WideWord = axc::logic::LaneBlock<8>;
constexpr unsigned kWideLanes = axc::logic::LaneTraits<WideWord>::kLanes;
constexpr unsigned kWideGroups = axc::logic::LaneTraits<WideWord>::kWords;

/// Counted 64-lane BitslicedSimulator vs functional wide-lane tape over the
/// same exhaustive enumeration. The timed region in both arms is the gate
/// pass plus a cheap packing-invariant checksum (per-output-word popcounts
/// — the total set bits per output over the full input space does not
/// depend on how vectors are packed into lanes, so 64-lane and 512-lane
/// arms must agree). The optimized arm runs the tape functionally
/// (counting off) at 512 lanes: consumers that never read toggles — error
/// evaluation, output enumeration — skip the per-op activity popcounts
/// entirely. Toggle/energy exactness of the counted baseline is asserted
/// outside the timing against the scalar reference.
KernelResult compiled_exhaustive_kernel(const std::string& name,
                                        const axc::logic::Netlist& netlist,
                                        int reps) {
  using axc::logic::BitslicedSimulator;
  const unsigned n_in = static_cast<unsigned>(netlist.inputs().size());
  const std::uint64_t total = std::uint64_t{1} << n_in;

  KernelResult result;
  result.name = name;
  result.baseline = "counted 64-lane BitslicedSimulator";
  result.engine = "compiled";
  result.vectors = total;

  std::uint64_t counted_sum = 0;
  std::uint64_t tape_sum = 0;

  result.baseline_ms = median_ms(reps, [&] {
    BitslicedSimulator sim(netlist);
    std::uint64_t sum = 0;
    for (std::uint64_t base = 0; base < total;
         base += BitslicedSimulator::kLanes) {
      for (const std::uint64_t w : sim.apply_word_range(
               base, BitslicedSimulator::kLanes)) {
        sum += static_cast<std::uint64_t>(std::popcount(w));
      }
    }
    counted_sum = sum;
    g_sink = sum;
  });
  result.optimized_ms = median_ms(reps, [&] {
    axc::logic::TapeSimulator<WideWord> sim(netlist);
    sim.set_counting(false);  // functional enumeration: toggles never read
    std::uint64_t sum = 0;
    for (std::uint64_t base = 0; base < total; base += kWideLanes) {
      for (const WideWord& blk : sim.apply_word_range(base, kWideLanes)) {
        for (const std::uint64_t w : blk.w) {
          sum += static_cast<std::uint64_t>(std::popcount(w));
        }
      }
    }
    tape_sum = sum;
    g_sink = sum;
  });
  if (counted_sum != tape_sum) {
    std::cerr << name << ": checksum mismatch (64-lane " << counted_sum
              << " vs wide tape " << tape_sum << ")\n";
    std::exit(1);
  }

  // Exactness, outside the timing: the counted 64-lane enumeration against
  // the per-lane scalar reference.
  std::vector<std::vector<std::uint64_t>> counting(
      total / BitslicedSimulator::kLanes, std::vector<std::uint64_t>(n_in));
  for (std::size_t step = 0; step < counting.size(); ++step) {
    axc::logic::pack_counting_lanes(step * BitslicedSimulator::kLanes, n_in,
                                    BitslicedSimulator::kLanes,
                                    counting[step]);
  }
  check_against_reference(name, netlist, counting);
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// Counted 64-lane BitslicedSimulator vs functional wide-lane tape on
/// independent random streams: the wide arm carries 512 streams through
/// run_stream() in one engine; the baseline carries the same 512 streams
/// as eight sequential counted 64-lane groups (group g replays subword g of
/// the wide stimulus, so every output word of the baseline equals subword
/// g of the wide output and the plain word-sum checksums agree by
/// construction). Exactness is asserted outside the timing twice: a
/// counted wide run's per-gate toggles must equal the 64-lane groups'
/// toggles summed (integer-exact — wide lanes are just a different
/// temporal pairing of the same per-lane streams), and group 0 must match
/// the scalar reference byte-for-byte in energy.
KernelResult compiled_stream_kernel(const std::string& name,
                                    const axc::logic::Netlist& netlist,
                                    unsigned steps, int reps) {
  using axc::logic::BitslicedSimulator;
  const std::size_t n_in = netlist.inputs().size();
  const std::size_t n_out = netlist.outputs().size();

  axc::Rng rng(0x7A9E);
  std::vector<WideWord> stimulus(static_cast<std::size_t>(steps) * n_in);
  for (WideWord& blk : stimulus) {
    for (std::uint64_t& w : blk.w) w = rng();
  }

  KernelResult result;
  result.name = name;
  result.baseline = "counted 64-lane BitslicedSimulator";
  result.engine = "compiled";
  result.vectors = static_cast<std::uint64_t>(steps) * kWideLanes;

  std::uint64_t counted_sum = 0;
  std::uint64_t tape_sum = 0;

  // Group `grp` of the stimulus: subword grp of every stimulus block, one
  // packed word per input per step.
  std::vector<std::vector<std::vector<std::uint64_t>>> groups(
      kWideGroups, std::vector<std::vector<std::uint64_t>>(
                       steps, std::vector<std::uint64_t>(n_in)));
  for (unsigned grp = 0; grp < kWideGroups; ++grp) {
    for (unsigned t = 0; t < steps; ++t) {
      for (std::size_t i = 0; i < n_in; ++i) {
        groups[grp][t][i] =
            stimulus[static_cast<std::size_t>(t) * n_in + i].w[grp];
      }
    }
  }
  // Replays one group through a fresh simulator; returns the word-sum of
  // all outputs at every step.
  const auto replay_group = [&](BitslicedSimulator& sim, unsigned grp) {
    std::uint64_t sum = 0;
    for (const auto& in : groups[grp]) {
      for (const std::uint64_t w : sim.apply_lanes(in)) sum += w;
    }
    return sum;
  };

  result.baseline_ms = median_ms(reps, [&] {
    std::uint64_t sum = 0;
    for (unsigned grp = 0; grp < kWideGroups; ++grp) {
      BitslicedSimulator sim(netlist);
      sum += replay_group(sim, grp);
    }
    counted_sum = sum;
    g_sink = sum;
  });
  std::vector<WideWord> out(static_cast<std::size_t>(steps) * n_out);
  result.optimized_ms = median_ms(reps, [&] {
    axc::logic::TapeSimulator<WideWord> sim(netlist);
    sim.set_counting(false);  // functional streaming: toggles never read
    sim.run_stream(stimulus, out);
    std::uint64_t sum = 0;
    for (const WideWord& blk : out) {
      for (const std::uint64_t w : blk.w) sum += w;
    }
    tape_sum = sum;
    g_sink = sum;
  });
  if (counted_sum != tape_sum) {
    std::cerr << name << ": checksum mismatch (64-lane " << counted_sum
              << " vs wide tape " << tape_sum << ")\n";
    std::exit(1);
  }

  // Exactness, outside the timing.
  axc::logic::TapeSimulator<WideWord> counted(netlist);  // counting on
  counted.run_stream(stimulus, out);
  std::vector<std::uint64_t> grouped_toggles(netlist.gate_count(), 0);
  for (unsigned grp = 0; grp < kWideGroups; ++grp) {
    BitslicedSimulator sim(netlist);
    replay_group(sim, grp);
    for (std::size_t g = 0; g < netlist.gate_count(); ++g) {
      grouped_toggles[g] += sim.gate_toggles(g);
    }
  }
  for (std::size_t g = 0; g < netlist.gate_count(); ++g) {
    if (counted.gate_toggles(g) != grouped_toggles[g]) {
      std::cerr << name << ": wide-lane toggle mismatch at gate " << g << "\n";
      std::exit(1);
    }
  }
  check_against_reference(name, netlist, groups[0]);
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// The SAD unit the compiled ripple adder replaced, kept as the encoder
/// kernel's live baseline: SadAccelerator's Sec. 6 structure (two
/// subtracts and the borrow mux per pixel, then a binary tree one bit wider
/// per level), every add walking arith::ripple_add_reference bit by bit,
/// with a heap-allocated reduction buffer per call.
class PerBitRippleSad final : public axc::accel::SadUnit {
 public:
  explicit PerBitRippleSad(const axc::accel::SadConfig& config)
      : config_(config), subtractor_(cells(8)) {
    for (unsigned width = 8; (1u << (width - 8)) < config.block_pixels;
         ++width) {
      tree_.push_back(cells(width));
    }
  }
  unsigned block_pixels() const override { return config_.block_pixels; }
  std::uint64_t sad(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const override {
    std::vector<std::uint64_t> values(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::uint64_t forward = subtract(subtractor_, a[i], b[i]);
      values[i] = (forward >> 8) & 1u
                      ? forward & 0xFFu
                      : subtract(subtractor_, b[i], a[i]) & 0xFFu;
    }
    for (const auto& level : tree_) {
      const std::size_t half = values.size() / 2;
      for (std::size_t i = 0; i < half; ++i) {
        values[i] = axc::arith::ripple_add_reference(level, values[2 * i],
                                                     values[2 * i + 1], 0);
      }
      values.resize(half);
    }
    return values.front();
  }
  std::string name() const override { return "per-bit " + config_.name(); }
  bool is_concurrent_safe() const override { return true; }

 private:
  std::vector<axc::arith::FullAdderKind> cells(unsigned width) const {
    std::vector<axc::arith::FullAdderKind> layout(
        width, axc::arith::FullAdderKind::Accurate);
    std::fill_n(layout.begin(), std::min(config_.approx_lsbs, width),
                config_.cell);
    return layout;
  }
  static std::uint64_t subtract(
      const std::vector<axc::arith::FullAdderKind>& cells, std::uint64_t a,
      std::uint64_t b) {
    return axc::arith::ripple_add_reference(cells, a, ~b & 0xFFu, 1);
  }

  axc::accel::SadConfig config_;
  std::vector<axc::arith::FullAdderKind> subtractor_;
  std::vector<std::vector<axc::arith::FullAdderKind>> tree_;
};

/// Timing decorator: accumulates the wall time spent inside sad_batch, so
/// an encode splits into the SAD layer and everything above it.
class TimingSadUnit final : public axc::accel::SadUnit {
 public:
  explicit TimingSadUnit(const axc::accel::SadUnit& inner) : inner_(inner) {}
  unsigned block_pixels() const override { return inner_.block_pixels(); }
  std::uint64_t sad(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const override {
    return inner_.sad(a, b);
  }
  void sad_batch(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> candidates,
                 std::span<std::uint64_t> out) const override {
    const auto start = axc::bench::Clock::now();
    inner_.sad_batch(a, candidates, out);
    busy_ += axc::bench::Clock::now() - start;
  }
  std::string name() const override { return inner_.name(); }
  double busy_ms() const { return busy_.count(); }

 private:
  const axc::accel::SadUnit& inner_;
  mutable std::chrono::duration<double, std::milli> busy_{0};
};

/// End-to-end Fig. 9-style encode on a small sequence, one worker in both
/// arms: the per-bit ripple SAD (the pre-compilation adder layer) vs
/// SadAccelerator on compiled adders. Outside the timing: both arms'
/// bitstreams must be identical, the compiled arm must be identical at
/// `threads` workers, and one decorated encode per arm reports the share
/// of encode time spent inside sad_batch (the per-layer split).
KernelResult encoder_kernel(unsigned threads, bool smoke, int reps) {
  axc::video::SequenceConfig sc;
  sc.width = smoke ? 32 : 64;
  sc.height = smoke ? 32 : 64;
  sc.frames = smoke ? 3 : 5;
  const axc::video::Sequence sequence = axc::video::generate_sequence(sc);
  const axc::accel::SadConfig sad_config =
      axc::accel::apx_sad_variant(3, 4, 64);
  const PerBitRippleSad per_bit(sad_config);
  const axc::accel::SadAccelerator compiled(sad_config);
  axc::video::EncoderConfig config;
  config.motion.block_size = 8;
  config.motion.search_range = 4;
  config.threads = 1;

  KernelResult result;
  result.name = "encoder fig9-small";
  result.baseline = "per-bit ripple_add_reference SadUnit";
  result.engine = "compiled ripple adders";

  axc::video::EncodeStats base;
  axc::video::EncodeStats fast;
  result.baseline_ms = median_ms(reps, [&] {
    base = axc::video::Encoder(config, per_bit).encode(sequence);
    g_sink = base.total_bits;
  });
  result.optimized_ms = median_ms(reps, [&] {
    fast = axc::video::Encoder(config, compiled).encode(sequence);
    g_sink = fast.total_bits;
  });
  result.vectors = fast.sad_calls;
  const auto same = [](const axc::video::EncodeStats& x,
                       const axc::video::EncodeStats& y) {
    return x.total_bits == y.total_bits && x.psnr_db == y.psnr_db &&
           x.sad_calls == y.sad_calls;
  };
  if (!same(base, fast)) {
    std::cerr << result.name << ": compiled bitstream differs from the "
              << "per-bit reference\n";
    std::exit(1);
  }
  axc::video::EncoderConfig parallel = config;
  parallel.threads = threads;
  if (!same(fast, axc::video::Encoder(parallel, compiled).encode(sequence))) {
    std::cerr << result.name << ": thread-count determinism violation\n";
    std::exit(1);
  }

  // Per-layer split: share of one encode spent inside sad_batch.
  const auto sad_share = [&](const axc::accel::SadUnit& unit) {
    const TimingSadUnit timed(unit);
    const auto start = axc::bench::Clock::now();
    const axc::video::EncodeStats stats =
        axc::video::Encoder(config, timed).encode(sequence);
    const std::chrono::duration<double, std::milli> total =
        axc::bench::Clock::now() - start;
    if (!same(stats, fast)) {
      std::cerr << result.name << ": decorated encode differs\n";
      std::exit(1);
    }
    return timed.busy_ms() / total.count();
  };
  result.split.layer = "accel.sad_batch";
  result.split.baseline_share = sad_share(per_bit);
  result.split.optimized_share = sad_share(compiled);
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// 1-thread vs N-thread sampled error evaluation.
KernelResult threading_kernel(std::uint64_t samples, unsigned threads,
                              int reps) {
  const axc::arith::GeArAdder adder({16, 4, 4});
  axc::error::EvalOptions options;
  options.max_exhaustive_bits = 8;  // 32 input bits: forces sampling
  options.samples = samples;

  KernelResult result;
  result.name = "evaluate_adder GeAr(16,4,4) sampled";
  result.baseline = "threads=1";
  result.vectors = samples;
  result.baseline_threads = 1;
  result.optimized_threads = threads;

  axc::error::ErrorStats one;
  axc::error::ErrorStats many;
  result.baseline_ms = median_ms(reps, [&] {
    options.threads = 1;
    one = axc::error::evaluate_adder(adder, options);
    g_sink = one.error_count;
  });
  result.optimized_ms = median_ms(reps, [&] {
    options.threads = threads;
    many = axc::error::evaluate_adder(adder, options);
    g_sink = many.error_count;
  });
  if (one.error_count != many.error_count ||
      one.mean_error_distance != many.mean_error_distance) {
    std::cerr << result.name << ": thread-count determinism violation\n";
    std::exit(1);
  }
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// Cold vs warm characterization through the process-wide memo: the warm
/// path hits the structural-hash cache and skips the power re-simulation.
/// Also what populates logic.characterize_cache.{hits,misses} (and thus the
/// derived hit_rate) in the embedded obs report.
KernelResult memo_kernel(int reps) {
  using axc::arith::FullAdderKind;
  const axc::logic::Netlist netlist =
      axc::logic::wallace_netlist(8, FullAdderKind::Accurate, 0);

  KernelResult result;
  result.name = "characterize wallace8x8 memoized";
  result.baseline = "cold (cache cleared per run)";
  result.vectors = 1024;

  result.baseline_ms = median_ms(reps, [&] {
    axc::logic::clear_characterization_cache();
    const auto c =
        axc::logic::characterize(netlist, std::nullopt, result.vectors);
    g_sink = c.gate_count;
  });
  // Prime once, then every timed run is a pure cache hit.
  (void)axc::logic::characterize(netlist, std::nullopt, result.vectors);
  result.optimized_ms = median_ms(reps, [&] {
    const auto c =
        axc::logic::characterize(netlist, std::nullopt, result.vectors);
    g_sink = c.gate_count;
  });
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// Requests/s through the loopback service: a batch of characterization
/// queries fanned into the worker pool, cold (result cache and the
/// characterization memo cleared, every job computes) vs warm (the same
/// batch replayed out of the sharded response cache). The thread metadata
/// records the pool width both modes ran on.
KernelResult service_throughput_kernel(unsigned workers, bool smoke,
                                       int reps) {
  namespace svc = axc::service;
  const std::size_t batch = smoke ? 64 : 256;

  svc::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = batch;
  options.cache_capacity = 2 * batch;
  svc::Server server(options);

  // Unique queries (distinct seeds -> distinct canonical bytes), all small
  // enough that the batch measures dispatch overhead + cache, not one
  // giant characterization.
  std::vector<svc::Bytes> requests;
  requests.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    svc::CharacterizeAdderRequest req;
    req.family = svc::AdderFamily::Loa;
    req.width = 8;
    req.param_a = 2;
    req.vectors = 64;
    req.seed = i + 1;
    requests.push_back(svc::encode_request(req));
  }

  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t pending = 0;
  const auto run_batch = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      pending = requests.size();
    }
    for (const svc::Bytes& request : requests) {
      server.submit(request, [&](svc::Bytes response) {
        g_sink = response.size();
        const std::lock_guard<std::mutex> lock(mutex);
        if (--pending == 0) all_done.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [&] { return pending == 0; });
  };

  KernelResult result;
  result.name = "service_throughput loopback";
  result.baseline = "cold cache (every request computed)";
  result.vectors = batch;
  result.baseline_threads = workers;
  result.optimized_threads = workers;

  result.baseline_ms = median_ms(reps, [&] {
    server.cache().clear();
    axc::logic::clear_characterization_cache();
    run_batch();
  });
  run_batch();  // prime: after this every request is resident
  result.optimized_ms = median_ms(reps, run_batch);
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// Sustained throughput and tail latency at high connection counts through
/// the epoll ReactorServer (every peer on one loop). The baseline arm runs
/// serial depth-1 roundtrips with legacy framing — one request in flight
/// per connection; the optimized arm runs multiplexed clients at pipeline
/// depth \p depth. Both arms push the same ping workload over the same
/// number of connections from the same client-thread budget to a fresh
/// server, and every response is checked byte-identical to the loopback
/// answer, so the ratio isolates request pipelining — not different work.
/// Per-request latency: the wall time of its roundtrip (depth 1) or of its
/// whole submit-all/collect-all batch (pipelined — what a batch caller
/// actually waits).
KernelResult service_concurrency_kernel(std::size_t conns, unsigned depth,
                                        std::size_t per_conn, int reps) {
  namespace svc = axc::service;
  const svc::Bytes ping = svc::encode_request(svc::Endpoint::Ping);

  // The expected response bytes, from the transport-free loopback path.
  svc::Bytes expected;
  {
    svc::Server oracle({.workers = 1});
    svc::LoopbackConnection loopback(oracle);
    expected = loopback.roundtrip(ping);
    oracle.stop();
  }

  svc::ServerOptions options;
  options.workers = 2;  // fixed pool: the bench varies depth, not compute
  options.queue_capacity = conns * depth;  // admission never the bottleneck

  const std::size_t drivers = std::min<std::size_t>(4, conns);
  std::vector<double> latencies;
  std::mutex latency_mutex;

  // One request storm: `per_conn` pings over every connection, driven by
  // `drivers` client threads, each owning an interleaved share of the
  // connections. d == 1 -> serial roundtrips; d > 1 -> submit d, collect d.
  const auto storm =
      [&](std::vector<std::unique_ptr<svc::TcpConnection>>& held, unsigned d) {
        std::atomic<std::uint64_t> mismatches{0};
        std::vector<std::thread> threads;
        threads.reserve(drivers);
        for (std::size_t t = 0; t < drivers; ++t) {
          threads.emplace_back([&, t] {
            std::vector<double> local;
            std::vector<std::uint32_t> ids(d);
            for (std::size_t round = 0; round < per_conn / d; ++round) {
              for (std::size_t c = t; c < conns; c += drivers) {
                svc::TcpConnection& conn = *held[c];
                const auto start = std::chrono::steady_clock::now();
                if (d == 1) {
                  if (conn.roundtrip(ping) != expected) mismatches.fetch_add(1);
                } else {
                  for (unsigned k = 0; k < d; ++k) ids[k] = conn.submit(ping);
                  for (unsigned k = 0; k < d; ++k) {
                    if (conn.collect(ids[k]) != expected) {
                      mismatches.fetch_add(1);
                    }
                  }
                }
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                for (unsigned k = 0; k < d; ++k) local.push_back(ms);
              }
            }
            const std::lock_guard<std::mutex> lock(latency_mutex);
            latencies.insert(latencies.end(), local.begin(), local.end());
          });
        }
        for (std::thread& thread : threads) thread.join();
        if (mismatches.load() != 0) {
          std::cerr << "service_concurrency: " << mismatches.load()
                    << " responses differed from the loopback bytes\n";
          std::exit(1);
        }
      };

  const auto p99 = [](std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[(samples.size() - 1) * 99 / 100];
  };

  KernelResult result;
  result.name = "service_concurrency conns=" + std::to_string(conns);
  result.baseline = "reactor, legacy framing, serial depth 1";
  result.engine = "reactor depth " + std::to_string(depth);
  result.vectors = static_cast<std::uint64_t>(conns) * per_conn;
  result.baseline_threads = options.workers;
  result.optimized_threads = options.workers;

  // One arm: a fresh server and reactor, `conns` held connections (mux
  // framing iff d > 1), one request storm per rep.
  const auto run_arm = [&](unsigned d, double& p99_ms) {
    svc::Server server(options);
    svc::ReactorServer reactor(server, {});
    std::vector<std::unique_ptr<svc::TcpConnection>> held;
    held.reserve(conns);
    for (std::size_t i = 0; i < conns; ++i) {
      held.push_back(std::make_unique<svc::TcpConnection>(
          "127.0.0.1", reactor.port(),
          svc::TcpConnectionOptions{.multiplex = d > 1}));
    }
    latencies.clear();
    const double ms = median_ms(reps, [&] { storm(held, d); });
    p99_ms = p99(latencies);
    held.clear();
    reactor.stop();
    server.stop();
    return ms;
  };
  result.baseline_ms = run_arm(1, result.baseline_p99_ms);
  result.optimized_ms = run_arm(depth, result.optimized_p99_ms);
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// The four axc::designspace endpoints as a served workload: a batch of
/// hetero-adder, compressor-multiplier, static-adder and GeAr sweeps
/// through the loopback server, cold (result cache and characterization
/// memo cleared, every sweep computes its analytic models and
/// characterizes its netlists) vs warm (the same batch replayed out of the response cache).
/// Before timing, the cold batch is computed twice and byte-compared —
/// the design-space responses are the cluster tier's replication payload,
/// so any nondeterminism here aborts the bench.
KernelResult design_space_sweep_kernel(unsigned workers, bool smoke,
                                       int reps) {
  namespace svc = axc::service;

  std::vector<svc::Bytes> requests;
  const std::uint32_t max_width = smoke ? 12 : 16;
  for (std::uint32_t width = 8; width <= max_width; width += 4) {
    svc::HeteroAdderDesignSpaceRequest hetero;
    hetero.width = width;
    hetero.block_width = 4;
    hetero.include_truncated = true;
    // Power simulation makes the cold arm characterize every netlist in
    // the sweep; the warm arm replays the cached response bytes.
    hetero.estimate_power = true;
    requests.push_back(svc::encode_request(hetero));

    svc::ArrayMulDesignSpaceRequest mul;
    mul.width = width / 2;
    mul.max_approx_columns = width;
    requests.push_back(svc::encode_request(mul));

    svc::StaticAdderDesignSpaceRequest stat;
    stat.width = width;
    stat.max_approx_lsbs = 6;
    requests.push_back(svc::encode_request(stat));
  }
  svc::GearDesignSpaceRequest gear;
  gear.width = 11;
  gear.estimate_power = true;
  requests.push_back(svc::encode_request(gear));

  svc::ServerOptions options;
  options.workers = workers;
  options.cache_capacity = 2 * requests.size();
  svc::Server server(options);

  const auto run_batch = [&] {
    std::vector<svc::Bytes> responses;
    responses.reserve(requests.size());
    for (const svc::Bytes& request : requests) {
      responses.push_back(server.call(request));
      g_sink = responses.back().size();
    }
    return responses;
  };
  const auto cold_batch = [&] {
    server.cache().clear();
    axc::logic::clear_characterization_cache();
    return run_batch();
  };

  // Two independent cold passes must agree byte for byte.
  const std::vector<svc::Bytes> first = cold_batch();
  const std::vector<svc::Bytes> second = cold_batch();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (svc::response_status(first[i]) != svc::Status::Ok) {
      std::cerr << "design_space_sweep: request " << i << " answered "
                << "non-Ok\n";
      std::exit(1);
    }
    if (first[i] != second[i]) {
      std::cerr << "design_space_sweep: response " << i
                << " differs between two cold runs\n";
      std::exit(1);
    }
  }

  KernelResult result;
  result.name = "design_space_sweep";
  result.baseline = "cold cache (every sweep computed)";
  result.vectors = requests.size();
  result.baseline_threads = workers;
  result.optimized_threads = workers;
  result.baseline_ms = median_ms(reps, [&] { g_sink = cold_batch().size(); });
  run_batch();  // prime: after this every request is resident
  result.optimized_ms = median_ms(reps, [&] { g_sink = run_batch().size(); });
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// The distributed tier end to end: a mixed design-space sweep fanned over
/// a 4-node in-process ring (replication 2) vs the same sweep on a single
/// node. Every 4-node response is byte-compared against the 1-node answer
/// — sharding moves where work happens, never what comes back — and the
/// whole comparison runs twice from cold so a nondeterministic shard merge
/// cannot hide behind one lucky pass. Any mismatch aborts the bench.
KernelResult cluster_sweep_kernel(bool smoke, int reps) {
  namespace svc = axc::service;

  // Distinct seeds -> distinct canonical bytes -> keys spread over the
  // ring; every cacheable endpoint is represented.
  std::vector<svc::Bytes> requests;
  const std::uint64_t seeds = smoke ? 4 : 12;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    svc::CharacterizeAdderRequest adder;
    adder.width = 8;
    adder.param_a = 1 + static_cast<std::uint32_t>(s % 3);  // GeAr(8,a,2)
    adder.param_b = 2;
    adder.vectors = 64;
    adder.seed = s;
    requests.push_back(svc::encode_request(adder));

    svc::CharacterizeMultiplierRequest mul;
    mul.width = 4;
    mul.approx_lsbs = static_cast<std::uint32_t>(s % 3);
    mul.vectors = 64;
    mul.seed = s;
    requests.push_back(svc::encode_request(mul));

    svc::EvaluateErrorRequest eval;
    eval.gear = {8, 1 + static_cast<std::uint32_t>(s % 3), 2};
    eval.samples = 1u << 10;
    eval.seed = s;
    requests.push_back(svc::encode_request(eval));
  }
  {
    svc::GearDesignSpaceRequest gear;
    gear.width = 8;
    requests.push_back(svc::encode_request(gear));
    svc::EncodeProbeRequest probe;
    probe.width = 16;
    probe.height = 16;
    probe.frames = 2;
    probe.objects = 1;
    requests.push_back(svc::encode_request(probe));
  }

  axc::cluster::ClusterClientOptions quiet;
  quiet.retry.sleep_ms = [](std::uint32_t) {};

  const auto cold_sweep = [&](std::size_t nodes) {
    axc::logic::clear_characterization_cache();
    axc::cluster::LocalClusterOptions options;
    options.nodes = nodes;
    options.replication = nodes > 1 ? 2 : 1;
    options.server.workers = 2;
    axc::cluster::LocalCluster cluster(options);
    axc::cluster::ClusterClient client = cluster.make_client(quiet);
    return client.sweep(requests);
  };

  // The 1-node truth, then two independent cold 4-node runs checked
  // against it (and hence against each other).
  const std::vector<svc::Bytes> expected = cold_sweep(1);
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<svc::Bytes> sharded = cold_sweep(4);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (sharded[i] != expected[i]) {
        std::cerr << "cluster_sweep: response " << i << " on pass " << pass
                  << " differs between the 4-node and 1-node rings\n";
        std::exit(1);
      }
    }
  }

  KernelResult result;
  result.name = "cluster_sweep nodes=4";
  result.baseline = "single-node sweep, cold caches";
  result.engine = "4-node ring, replication 2";
  result.vectors = requests.size();
  result.baseline_threads = 2;
  result.optimized_threads = 8;  // 4 nodes x 2 workers
  result.baseline_ms = median_ms(reps, [&] { g_sink = cold_sweep(1).size(); });
  result.optimized_ms =
      median_ms(reps, [&] { g_sink = cold_sweep(4).size(); });
  result.speedup = result.baseline_ms / result.optimized_ms;
  return result;
}

/// Runtime cost of the obs layer on an instrumentation-dense workload (the
/// encoder: per-frame spans plus per-batch counters). Both modes run the
/// *same instrumented binary*; "disabled" flips the kill switch, leaving
/// one relaxed atomic load + branch per site. Each rep runs three encodes
/// back to back, the mode of the outer two alternating between reps (off,
/// on, off, then on, off, on), so host drift over a rep cancels to first
/// order and position in the rep favours neither mode: the overhead is
/// the median over reps of on / off with the outer pair averaged, and the
/// outer pair of each rep is an A/A pair whose quartile band is the noise
/// the overhead is read against.
struct ObsOverhead {
  std::string workload;
  int reps = 0;
  double disabled_ms = 0.0;  ///< median of all off runs
  double enabled_ms = 0.0;   ///< median of all on runs
  double enabled_overhead_pct = 0.0;
  double aa_band_low_pct = 0.0;   ///< 25th percentile of last/first - 1
  double aa_band_high_pct = 0.0;  ///< 75th percentile of last/first - 1
};

ObsOverhead measure_obs_overhead(bool smoke) {
  axc::video::SequenceConfig sc;
  sc.width = smoke ? 32 : 64;
  sc.height = smoke ? 32 : 64;
  sc.frames = smoke ? 3 : 5;
  const axc::video::Sequence sequence = axc::video::generate_sequence(sc);
  const axc::accel::SadAccelerator sad(axc::accel::apx_sad_variant(3, 4, 64));
  axc::video::EncoderConfig config;
  config.motion.block_size = 8;
  config.motion.search_range = 4;
  config.threads = 1;  // serial: no thread-pool noise in the comparison
  const axc::video::Encoder encoder(config, sad);

  ObsOverhead result;
  result.workload = "encoder fig9-small threads=1";
  result.reps = smoke ? 5 : 21;
  const bool was_enabled = axc::obs::enabled();
  const auto run_ms = [&](bool enabled) {
    axc::obs::set_enabled(enabled);
    const auto start = axc::bench::Clock::now();
    g_sink = encoder.encode(sequence).total_bits;
    const std::chrono::duration<double, std::milli> dt =
        axc::bench::Clock::now() - start;
    return dt.count();
  };
  std::vector<double> off;
  std::vector<double> on;
  std::vector<double> overhead;
  std::vector<double> aa;
  for (int r = 0; r < result.reps; ++r) {
    const bool outer_on = r % 2 == 1;
    const double first = run_ms(outer_on);
    const double middle = run_ms(!outer_on);
    const double last = run_ms(outer_on);
    const double outer = 0.5 * (first + last);
    std::vector<double>& outer_runs = outer_on ? on : off;
    outer_runs.insert(outer_runs.end(), {first, last});
    (outer_on ? off : on).push_back(middle);
    const double on_ms = outer_on ? outer : middle;
    const double off_ms = outer_on ? middle : outer;
    overhead.push_back(on_ms / off_ms - 1.0);
    aa.push_back(last / first - 1.0);
  }
  axc::obs::set_enabled(was_enabled);

  using axc::bench::percentile;
  result.disabled_ms = percentile(off, 0.5);
  result.enabled_ms = percentile(on, 0.5);
  result.enabled_overhead_pct = 100.0 * percentile(overhead, 0.5);
  result.aa_band_low_pct = 100.0 * percentile(aa, 0.25);
  result.aa_band_high_pct = 100.0 * percentile(aa, 0.75);
  return result;
}

void write_json(const std::string& path,
                const std::vector<KernelResult>& kernels,
                const ObsOverhead& obs_overhead, bool smoke) {
  // Report the machine's capacity *and* the thread counts the kernels
  // actually ran at — on constrained runners the two differ, and consumers
  // must judge scaling ratios against the latter.
  std::vector<unsigned> benchmarked;
  for (const KernelResult& k : kernels) {
    for (const unsigned t : {k.baseline_threads, k.optimized_threads}) {
      if (std::find(benchmarked.begin(), benchmarked.end(), t) ==
          benchmarked.end()) {
        benchmarked.push_back(t);
      }
    }
  }
  std::sort(benchmarked.begin(), benchmarked.end());

  std::ofstream out(path);
  axc::bench::json_header(out, "perf_kernels", smoke);
  out << "  \"benchmarked_thread_counts\": [";
  for (std::size_t i = 0; i < benchmarked.size(); ++i) {
    out << (i ? ", " : "") << benchmarked[i];
  }
  out << "],\n";
  out << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelResult& k = kernels[i];
    out << "    {\n";
    out << "      \"name\": \"" << k.name << "\",\n";
    out << "      \"baseline\": \"" << k.baseline << "\",\n";
    if (!k.engine.empty()) {
      out << "      \"engine\": \"" << k.engine << "\",\n";
    }
    out << "      \"vectors\": " << k.vectors << ",\n";
    out << "      \"baseline_threads\": " << k.baseline_threads << ",\n";
    out << "      \"optimized_threads\": " << k.optimized_threads << ",\n";
    out << "      \"baseline_ms\": " << k.baseline_ms << ",\n";
    out << "      \"optimized_ms\": " << k.optimized_ms << ",\n";
    if (k.baseline_p99_ms > 0.0 || k.optimized_p99_ms > 0.0) {
      const double denom = 1000.0;  // ms -> s for requests/s
      out << "      \"baseline_p99_ms\": " << k.baseline_p99_ms << ",\n";
      out << "      \"optimized_p99_ms\": " << k.optimized_p99_ms << ",\n";
      out << "      \"baseline_rps\": "
          << static_cast<double>(k.vectors) / (k.baseline_ms / denom)
          << ",\n";
      out << "      \"optimized_rps\": "
          << static_cast<double>(k.vectors) / (k.optimized_ms / denom)
          << ",\n";
    }
    if (!k.split.layer.empty()) {
      out << "      \"layer_split\": {\"layer\": \"" << k.split.layer
          << "\", \"baseline_share\": " << k.split.baseline_share
          << ", \"optimized_share\": " << k.split.optimized_share << "},\n";
    }
    out << "      \"speedup\": " << k.speedup << "\n";
    out << "    }" << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"obs_overhead\": {\n";
  out << "    \"workload\": \"" << obs_overhead.workload << "\",\n";
  out << "    \"paired_reps\": " << obs_overhead.reps << ",\n";
  out << "    \"obs_disabled_ms\": " << obs_overhead.disabled_ms << ",\n";
  out << "    \"obs_enabled_ms\": " << obs_overhead.enabled_ms << ",\n";
  out << "    \"enabled_overhead_pct\": " << obs_overhead.enabled_overhead_pct
      << ",\n";
  out << "    \"aa_noise_band_pct\": [" << obs_overhead.aa_band_low_pct
      << ", " << obs_overhead.aa_band_high_pct << "]\n";
  out << "  },\n";
  // Full run report: every kernel above executed under the instruments, so
  // the counters/derived section carries e.g. the characterization-memo and
  // tape-compile hit rates and the bitsliced / SAD-batch lane-occupancy and
  // tape-shape histograms.
  axc::bench::json_obs_footer(out);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: perf_kernels [--smoke] [--out <path>]\n";
      return 2;
    }
  }

  using axc::arith::FullAdderKind;
  const int reps = smoke ? 3 : 7;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::vector<KernelResult> kernels;

  // 64-lane vs scalar reference: exhaustive sweep of an 8x8 Wallace multiplier
  // (16 inputs, 65536 vectors, ~500 gates).
  kernels.push_back(exhaustive_kernel(
      "wallace8x8 exhaustive",
      axc::logic::wallace_netlist(8, FullAdderKind::Accurate, 0), reps));

  // 64-lane vs scalar reference: random streams through a 16-bit ripple adder
  // (32 inputs — past the apply_word limit, so lane streams).
  {
    const auto model = axc::arith::RippleAdder::lsb_approximated(
        16, FullAdderKind::Accurate, 0);
    kernels.push_back(random_kernel(
        "ripple16 random streams",
        axc::logic::ripple_adder_netlist(model.cells()), smoke ? 32 : 256,
        reps));
  }

  // Functional 512-lane tape vs the counted 64-lane BitslicedSimulator,
  // same two netlist workloads. Non-smoke runs assert the >=4x floor on
  // both.
  kernels.push_back(compiled_exhaustive_kernel(
      "wallace8x8 exhaustive compiled",
      axc::logic::wallace_netlist(8, FullAdderKind::Accurate, 0), reps));
  {
    const auto model = axc::arith::RippleAdder::lsb_approximated(
        16, FullAdderKind::Accurate, 0);
    kernels.push_back(compiled_stream_kernel(
        "ripple16 streams compiled",
        axc::logic::ripple_adder_netlist(model.cells()), smoke ? 32 : 256,
        reps));
  }

  // Batched vs per-candidate netlist SAD: one 8x8-block full-search window
  // (range 4 -> 81 candidates) through the packed 64-lane engine vs 81
  // scalar gate-list passes.
  kernels.push_back(
      sad_window_kernel(axc::accel::accu_sad(64), 4, reps));

  // Thread scaling: sampled GeAr evaluation, 1 thread vs all hardware
  // threads. On a multicore box this approaches linear scaling; the JSON
  // records both hardware_concurrency and the benchmarked thread counts so
  // consumers can judge the ratio.
  kernels.push_back(
      threading_kernel(std::uint64_t{1} << (smoke ? 17 : 20), hw, reps));

  // End-to-end Fig. 9-style encode: per-bit ripple SAD vs compiled
  // adders, with the sad_batch share of each arm. Non-smoke runs assert
  // the >=10x floor.
  kernels.push_back(encoder_kernel(hw, smoke, reps));

  // Cold-vs-warm characterization memo (also feeds the obs hit-rate).
  kernels.push_back(memo_kernel(reps));

  // Requests/s through the loopback service, cold vs warm response cache
  // (also feeds the service.cache hit-rate in the embedded obs report).
  kernels.push_back(service_throughput_kernel(hw, smoke, reps));

  // The axc::designspace endpoints served cold vs warm, with a twice-run
  // byte-identity gate (the responses are the cluster replication
  // payload; nondeterminism aborts).
  kernels.push_back(design_space_sweep_kernel(hw, smoke, reps));

  // Pipelined (depth 8, mux framing) vs serial depth-1 legacy traffic on
  // the reactor at increasing connection counts. Fewer reps: each rep is a
  // full request storm over hundreds of sockets. Non-smoke runs assert the
  // >=2x floor at the top connection count.
  {
    const std::vector<std::size_t> conn_counts =
        smoke ? std::vector<std::size_t>{8, 32}
              : std::vector<std::size_t>{16, 64, 256};
    const std::size_t per_conn = smoke ? 8 : 16;
    for (const std::size_t conns : conn_counts) {
      kernels.push_back(service_concurrency_kernel(
          conns, /*depth=*/8, per_conn, std::min(reps, 3)));
    }
  }

  // Sharded sweep over the 4-node in-process ring vs a single node, with
  // a twice-run byte-identity check against the 1-node answers (any
  // mismatch aborts). Fewer reps: each rep stands up a whole ring.
  kernels.push_back(cluster_sweep_kernel(smoke, std::min(reps, 3)));

  // Same binary, kill switch off vs on — the obs layer's runtime cost.
  const ObsOverhead obs_overhead = measure_obs_overhead(smoke);

  write_json(out_path, kernels, obs_overhead, smoke);

  // Performance floors for the compiled engine (full runs only: smoke reps
  // and workloads are too small for stable ratios).
  if (!smoke) {
    for (const KernelResult& k : kernels) {
      if ((k.name == "wallace8x8 exhaustive compiled" ||
           k.name == "ripple16 streams compiled") &&
          k.speedup < 4.0) {
        std::cerr << "perf_kernels: " << k.name << " speedup " << k.speedup
                  << "x is below the 4x floor\n";
        return 1;
      }
      // The compiled adder layer must carry the end-to-end encode >=10x
      // past the per-bit loop (measured ~20x; the tape floors keep a
      // similar margin under their measured 7-9x).
      if (k.name == "encoder fig9-small" && k.speedup < 10.0) {
        std::cerr << "perf_kernels: " << k.name << " speedup " << k.speedup
                  << "x is below the 10x floor\n";
        return 1;
      }
      // Pipelining must beat serial depth-1 traffic by >=2x at the top
      // connection count.
      if (k.name == "service_concurrency conns=256" && k.speedup < 2.0) {
        std::cerr << "perf_kernels: " << k.name << " speedup " << k.speedup
                  << "x is below the 2x floor\n";
        return 1;
      }
    }
  }

  std::cout << "perf_kernels: " << kernels.size() << " kernels -> " << out_path
            << " (hardware_concurrency=" << hw << ")\n";
  for (const KernelResult& k : kernels) {
    std::cout << "  " << k.name << ": " << k.baseline_ms << " ms -> "
              << k.optimized_ms << " ms (" << k.speedup << "x vs "
              << k.baseline << ")\n";
    if (!k.split.layer.empty()) {
      std::cout << "    " << k.split.layer << " share: "
                << k.split.baseline_share << " -> "
                << k.split.optimized_share << "\n";
    }
  }
  std::cout << "  obs overhead (" << obs_overhead.workload
            << "): " << obs_overhead.disabled_ms << " ms off -> "
            << obs_overhead.enabled_ms << " ms on ("
            << obs_overhead.enabled_overhead_pct << "% paired; A/A band ["
            << obs_overhead.aa_band_low_pct << ", "
            << obs_overhead.aa_band_high_pct << "]%)\n";
  return 0;
}
