/// \file tape_engine.hpp
/// Execution engine for compiled netlist tapes (tape.hpp).
///
/// The hot path is execute_tape(): one switch per homogeneous run (not per
/// op) selects a run_ops instantiation whose cell type is a template
/// parameter, so inside the loop the cell function is inlined, the
/// dispatch is constant-folded away, and loads of unused input slots are
/// dropped at compile time. Lane storage is structure-of-arrays — one Word
/// per net slot — and Word is a compile-time parameter: std::uint64_t for
/// the 64-lane engine, LaneBlock<N> for 64*N-lane SWAR blocks (N=4 is a
/// 256-bit block, sized for AVX2; the inner per-op loop over sub-words
/// autovectorizes). Toggle accounting stays exact at any width: per op,
/// popcount((new ^ old) & counted_mask) accumulates into a per-op counter
/// (sequential writes in tape order); Tape::op_of_gate maps the counters
/// back to the per-gate view and Tape::gate_energy_fj sums energy in gate
/// order, so totals are byte-identical to the scalar reference Simulator
/// (simulator.hpp), not merely close. An optional per-op XOR fault word
/// upsets an op's output before fanout sees it — the gate-level SEU model
/// of resilience::FaultySimulator.
///
/// TapeSimulator<Word> is the engine with the per-lane activity discipline
/// (per-lane baselines, masked stimulus merge, shrink/grow-safe);
/// BitslicedSimulator (bitsliced.hpp) is TapeSimulator<std::uint64_t> plus
/// its obs instruments.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "axc/common/require.hpp"
#include "axc/logic/netlist.hpp"
#include "axc/logic/tape.hpp"

namespace axc::logic {

/// Packs counting stimulus into lane words: lane k of the result carries
/// the bits of input word `base + k`. words[i] receives the lane-packed
/// value of primary input i (for i < num_inputs <= 64). Only the low
/// \p lanes (<= 64) lanes are meaningful. When base is 64-aligned this is
/// six constant patterns plus sign fills — the standard SWAR enumeration
/// trick.
void pack_counting_lanes(std::uint64_t base, unsigned num_inputs,
                         unsigned lanes, std::span<std::uint64_t> words);

/// A SWAR block of N 64-bit words = 64*N simulation lanes. Plain bitwise
/// semantics word-by-word; gcc/clang turn the fixed-size loops into vector
/// ops at -O3. Usable as the Word parameter of eval_cell_word and
/// TapeSimulator.
template <unsigned N>
struct LaneBlock {
  static_assert(N >= 1, "LaneBlock needs at least one word");
  std::array<std::uint64_t, N> w{};

  friend constexpr LaneBlock operator&(const LaneBlock& a,
                                       const LaneBlock& b) {
    LaneBlock r;
    for (unsigned i = 0; i < N; ++i) r.w[i] = a.w[i] & b.w[i];
    return r;
  }
  friend constexpr LaneBlock operator|(const LaneBlock& a,
                                       const LaneBlock& b) {
    LaneBlock r;
    for (unsigned i = 0; i < N; ++i) r.w[i] = a.w[i] | b.w[i];
    return r;
  }
  friend constexpr LaneBlock operator^(const LaneBlock& a,
                                       const LaneBlock& b) {
    LaneBlock r;
    for (unsigned i = 0; i < N; ++i) r.w[i] = a.w[i] ^ b.w[i];
    return r;
  }
  friend constexpr LaneBlock operator~(const LaneBlock& a) {
    LaneBlock r;
    for (unsigned i = 0; i < N; ++i) r.w[i] = ~a.w[i];
    return r;
  }
  friend constexpr bool operator==(const LaneBlock&,
                                   const LaneBlock&) = default;
};

/// Width-generic lane-word operations shared by the engines.
template <typename Word>
struct LaneTraits;

template <>
struct LaneTraits<std::uint64_t> {
  static constexpr unsigned kWords = 1;
  static constexpr unsigned kLanes = 64;
  static constexpr std::uint64_t zero() { return 0; }
  static constexpr std::uint64_t ones() { return ~std::uint64_t{0}; }
  static constexpr std::uint64_t lane_mask(unsigned lanes) {
    return lanes >= 64 ? ones() : (std::uint64_t{1} << lanes) - 1;
  }
  static constexpr bool any(std::uint64_t word) { return word != 0; }
  static constexpr std::uint64_t popcount(std::uint64_t word) {
    return static_cast<std::uint64_t>(std::popcount(word));
  }
  static constexpr std::uint64_t& subword(std::uint64_t& word, unsigned) {
    return word;
  }
  static constexpr std::uint64_t subword(const std::uint64_t& word, unsigned) {
    return word;
  }
};

template <unsigned N>
struct LaneTraits<LaneBlock<N>> {
  static constexpr unsigned kWords = N;
  static constexpr unsigned kLanes = 64 * N;
  static constexpr LaneBlock<N> zero() { return {}; }
  static constexpr LaneBlock<N> ones() {
    LaneBlock<N> r;
    for (unsigned i = 0; i < N; ++i) r.w[i] = ~std::uint64_t{0};
    return r;
  }
  static constexpr LaneBlock<N> lane_mask(unsigned lanes) {
    LaneBlock<N> r{};
    for (unsigned i = 0; i < N; ++i) {
      const unsigned base = 64 * i;
      r.w[i] = lanes <= base ? 0
                             : LaneTraits<std::uint64_t>::lane_mask(
                                   std::min(lanes - base, 64u));
    }
    return r;
  }
  static constexpr bool any(const LaneBlock<N>& word) {
    for (unsigned i = 0; i < N; ++i) {
      if (word.w[i] != 0) return true;
    }
    return false;
  }
  static constexpr std::uint64_t popcount(const LaneBlock<N>& word) {
    std::uint64_t total = 0;
    for (unsigned i = 0; i < N; ++i) {
      total += static_cast<std::uint64_t>(std::popcount(word.w[i]));
    }
    return total;
  }
  static constexpr std::uint64_t& subword(LaneBlock<N>& word, unsigned i) {
    return word.w[i];
  }
  static constexpr std::uint64_t subword(const LaneBlock<N>& word,
                                         unsigned i) {
    return word.w[i];
  }
};

namespace detail {

/// Executes one homogeneous run of tape ops. kType is a template
/// parameter: eval_cell_word's switch constant-folds to the one cell
/// function, cell_fanin(kType) drops loads of unused input slots, and the
/// loop body carries no dispatch at all. With kCounted, toggles[i] (op
/// indexed relative to the run) accumulates the popcount of lanes that
/// changed under counted_mask. With kFaulty, faults[i] is XORed into op
/// i's output before it is stored.
template <typename Word, CellType kType, bool kCounted, bool kFaulty>
inline void run_ops(const TapeOp* ops, std::uint32_t count, Word* slots,
                    std::uint64_t* toggles, const Word& counted_mask,
                    const Word* faults) {
  constexpr int kFanin = cell_fanin(kType);
  static_assert(kFanin > 0, "pseudo-cells are never emitted as tape ops");
  for (std::uint32_t i = 0; i < count; ++i) {
    const TapeOp op = ops[i];
    const Word a = slots[op.in0];
    const Word b = kFanin >= 2 ? slots[op.in1] : Word{};
    const Word c = kFanin >= 3 ? slots[op.in2] : Word{};
    Word value = eval_cell_word<Word>(kType, a, b, c);
    if constexpr (kFaulty) value = value ^ faults[i];
    if constexpr (kCounted) {
      toggles[i] +=
          LaneTraits<Word>::popcount((value ^ slots[op.out]) & counted_mask);
    }
    slots[op.out] = value;
  }
}

template <typename Word, bool kCounted, bool kFaulty>
inline void run_tape(const Tape& tape, Word* slots, std::uint64_t* toggles,
                     const Word& counted_mask, const Word* faults) {
  const TapeOp* ops = tape.ops.data();
  for (const TapeRun& run : tape.runs) {
    const std::uint32_t count = run.end - run.begin;
    std::uint64_t* run_toggles = nullptr;
    if constexpr (kCounted) run_toggles = toggles + run.begin;
    const Word* run_faults = nullptr;
    if constexpr (kFaulty) run_faults = faults + run.begin;
    switch (run.type) {
#define AXC_TAPE_RUN_CASE(T)                                               \
  case CellType::T:                                                        \
    run_ops<Word, CellType::T, kCounted, kFaulty>(                         \
        ops + run.begin, count, slots, run_toggles, counted_mask,          \
        run_faults);                                                       \
    break;
      AXC_TAPE_RUN_CASE(Buf)
      AXC_TAPE_RUN_CASE(Inv)
      AXC_TAPE_RUN_CASE(And2)
      AXC_TAPE_RUN_CASE(Or2)
      AXC_TAPE_RUN_CASE(Nand2)
      AXC_TAPE_RUN_CASE(Nor2)
      AXC_TAPE_RUN_CASE(Xor2)
      AXC_TAPE_RUN_CASE(Xnor2)
      AXC_TAPE_RUN_CASE(And3)
      AXC_TAPE_RUN_CASE(Or3)
      AXC_TAPE_RUN_CASE(Nand3)
      AXC_TAPE_RUN_CASE(Nor3)
      AXC_TAPE_RUN_CASE(Mux2)
      AXC_TAPE_RUN_CASE(Maj3)
      AXC_TAPE_RUN_CASE(Aoi21)
      AXC_TAPE_RUN_CASE(Oai21)
      AXC_TAPE_RUN_CASE(Ao21)
      AXC_TAPE_RUN_CASE(Oa21)
#undef AXC_TAPE_RUN_CASE
      case CellType::Input:
      case CellType::Const0:
      case CellType::Const1:
        break;  // compile_netlist rejects pseudo-cell gates
    }
  }
}

/// One full gate pass over a compiled tape: dispatch once per run, loop
/// branch-free within it. toggles (tape-op indexed, nullable when
/// !kCounted) and counted_mask follow run_ops. \p faults, when non-null,
/// holds one XOR fault word per op in tape order.
template <typename Word, bool kCounted>
inline void execute_tape(const Tape& tape, Word* slots,
                         std::uint64_t* toggles, const Word& counted_mask,
                         const Word* faults = nullptr) {
  if (faults != nullptr) {
    run_tape<Word, kCounted, true>(tape, slots, toggles, counted_mask,
                                   faults);
  } else {
    run_tape<Word, kCounted, false>(tape, slots, toggles, counted_mask,
                                    nullptr);
  }
}

}  // namespace detail

/// Straight-line tape engine over kLanes = 64*N lanes per pass.
///
/// Lane discipline: the active lane count may vary freely between calls.
/// Each lane's first active vector within an activity window (construction
/// or reset_activity() to the next reset) is a per-lane baseline — it
/// establishes state without counting transitions; later vectors of that
/// lane count toggles against the last value the lane actually held. Lanes
/// outside the active set keep their previous inputs (masked stimulus
/// merge), so every one of their nets recomputes to exactly the value it
/// last had while active, and they are excluded from toggle accounting.
/// Shrink/grow patterns (a partial remainder batch followed by a full one,
/// as the batched SAD path produces) therefore stay exact: L lanes over T
/// steps are bit-identical — outputs, per-gate toggles, transition pairs,
/// switched energy — to L scalar reference Simulators, lane k fed lane k's
/// stream (tests/logic/test_tape.cpp). Wider Words pack more concurrent
/// streams per pass (a different, equally exact, temporal pairing of
/// vectors into lanes).
///
/// This class records no obs instruments in the hot path — it is the raw
/// engine; BitslicedSimulator is the observable 64-lane entry point.
template <typename Word = std::uint64_t>
class TapeSimulator {
 public:
  using Traits = LaneTraits<Word>;
  static constexpr unsigned kLanes = Traits::kLanes;

  explicit TapeSimulator(const Netlist& netlist)
      : TapeSimulator(compile_netlist(netlist)) {}

  /// Shares an already-compiled tape — lets N worker engines (e.g. one per
  /// error-evaluation chunk) skip the cache lock entirely.
  explicit TapeSimulator(std::shared_ptr<const Tape> tape)
      : tape_(std::move(tape)),
        slots_(tape_->slot_count, Traits::zero()),
        op_toggles_(tape_->ops.size(), 0),
        out_words_(tape_->output_slots.size(), Traits::zero()) {
    for (const std::uint32_t slot : tape_->const_one_slots) {
      slots_[slot] = Traits::ones();
    }
  }

  /// Applies one packed stimulus word per primary input (input_words[i]
  /// lane k = lane k's value of input i, in the order of
  /// Netlist::inputs()) and returns one packed word per primary output.
  /// The returned span aliases internal storage and is valid until the
  /// next apply call. Only the low \p lanes lanes are meaningful.
  std::span<const Word> apply_lanes(std::span<const Word> input_words,
                                    unsigned lanes = kLanes) {
    const auto& input_slots = tape_->input_slots;
    AXC_REQUIRE(input_words.size() == input_slots.size(),
                "TapeSimulator::apply_lanes: stimulus width does not match "
                "primary inputs");
    AXC_REQUIRE(lanes >= 1 && lanes <= kLanes,
                "TapeSimulator::apply_lanes: lane count out of range");
    const Word lane_mask = Traits::lane_mask(lanes);
    if (lanes == kLanes) {
      for (std::size_t i = 0; i < input_slots.size(); ++i) {
        slots_[input_slots[i]] = input_words[i];
      }
    } else {
      // Masked merge: inactive lanes keep their previous input values so
      // their nets re-evaluate to exactly the state they last held while
      // active. Overwriting them would clobber that state, and the next
      // wider pass would count toggles against the clobbered values.
      for (std::size_t i = 0; i < input_slots.size(); ++i) {
        slots_[input_slots[i]] = (slots_[input_slots[i]] & ~lane_mask) |
                                 (input_words[i] & lane_mask);
      }
    }
    if (counting_) {
      const Word counted_mask = lane_mask & baselined_lanes_;
      step(counted_mask);
      transition_pairs_ += Traits::popcount(counted_mask);
      baselined_lanes_ = baselined_lanes_ | lane_mask;
    } else {
      detail::execute_tape<Word, false>(*tape_, slots_.data(), nullptr,
                                        Traits::zero());
    }
    vectors_applied_ += lanes;
    copy_outputs();
    return out_words_;
  }

  /// Counting-lane convenience: lane k simulates packed input word
  /// base + k, covering [base, base + lanes) in one pass (<= 64 inputs).
  std::span<const Word> apply_word_range(std::uint64_t base,
                                         unsigned lanes = kLanes) {
    const std::size_t n_in = tape_->input_slots.size();
    AXC_REQUIRE(n_in <= 64, "TapeSimulator::apply_word_range: > 64 inputs");
    AXC_REQUIRE(lanes >= 1 && lanes <= kLanes,
                "TapeSimulator::apply_word_range: lane count out of range");
    in_scratch_.assign(n_in, Traits::zero());
    chunk_scratch_.resize(n_in);
    for (unsigned c = 0; c * 64 < lanes; ++c) {
      const unsigned chunk_lanes = std::min(lanes - c * 64, 64u);
      pack_counting_lanes(base + c * 64, static_cast<unsigned>(n_in),
                          chunk_lanes, chunk_scratch_);
      for (std::size_t i = 0; i < n_in; ++i) {
        Traits::subword(in_scratch_[i], c) = chunk_scratch_[i];
      }
    }
    return apply_lanes(in_scratch_, lanes);
  }

  /// Streams full-lane stimulus with per-pass overhead amortized: step s
  /// reads stimulus[s*I .. (s+1)*I) (I = primary inputs, packed words) and
  /// writes outputs[s*O .. (s+1)*O). All kLanes lanes are active every
  /// step, so each lane carries one independent stimulus stream of length
  /// `steps` — the shape of random-stream power characterization.
  void run_stream(std::span<const Word> stimulus, std::span<Word> outputs) {
    const std::size_t n_in = tape_->input_slots.size();
    const std::size_t n_out = tape_->output_slots.size();
    AXC_REQUIRE(n_in > 0 && stimulus.size() % n_in == 0,
                "TapeSimulator::run_stream: stimulus is not a whole number "
                "of steps");
    const std::size_t steps = stimulus.size() / n_in;
    AXC_REQUIRE(outputs.size() == steps * n_out,
                "TapeSimulator::run_stream: output span size mismatch");
    const std::uint32_t* in_slots = tape_->input_slots.data();
    const std::uint32_t* out_slots = tape_->output_slots.data();
    Word* slots = slots_.data();
    // Only the first step can be partially baselined; from then on the
    // counted mask is all-ones, so the loop stays branch-predictable.
    Word counted_mask =
        counting_ ? baselined_lanes_ : Traits::zero();
    for (std::size_t s = 0; s < steps; ++s) {
      const Word* in = stimulus.data() + s * n_in;
      for (std::size_t i = 0; i < n_in; ++i) slots[in_slots[i]] = in[i];
      step(counted_mask);
      if (counting_) {
        transition_pairs_ += Traits::popcount(counted_mask);
        counted_mask = Traits::ones();
      }
      Word* out = outputs.data() + s * n_out;
      for (std::size_t j = 0; j < n_out; ++j) out[j] = slots[out_slots[j]];
    }
    if (steps > 0) {
      if (counting_) baselined_lanes_ = Traits::ones();
      vectors_applied_ += steps * kLanes;
      copy_outputs();
    }
  }

  /// Packed output word of one lane of the most recent pass (bit j =
  /// output j). Requires <= 64 outputs.
  std::uint64_t lane_output(unsigned lane) const {
    AXC_REQUIRE(lane < kLanes && out_words_.size() <= 64,
                "TapeSimulator::lane_output: lane or output count out of "
                "range");
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < out_words_.size(); ++j) {
      const std::uint64_t sub = Traits::subword(out_words_[j], lane / 64);
      word |= ((sub >> (lane % 64)) & 1u) << j;
    }
    return word;
  }

  /// Toggle/energy accounting switch (default on). Off, every pass is a
  /// pure functional evaluation: outputs and net state are exactly the
  /// ones a counted run would produce, but no toggle counters, transition
  /// pairs, or baselines are maintained — the per-op xor/popcount/
  /// accumulate work disappears from the hot loop, so consumers that never
  /// read toggles — error evaluation, output enumeration — stop paying for
  /// activity accounting. Equivalent to running counted and calling
  /// reset_activity() afterwards, minus the cost.
  void set_counting(bool on) { counting_ = on; }
  bool counting() const { return counting_; }

  std::uint64_t vectors_applied() const { return vectors_applied_; }
  std::uint64_t transition_pairs() const { return transition_pairs_; }

  /// Toggles of gate \p gate_index in Netlist::gates() order (translated
  /// from the tape-order counter via Tape::op_of_gate).
  std::uint64_t gate_toggles(std::size_t gate_index) const {
    return op_toggles_.at(tape_->op_of_gate.at(gate_index));
  }

  /// Switching energy in femtojoules: for every gate, toggles x per-cell
  /// energy, summed in gate order (the reference Simulator's
  /// floating-point association). Exact — lane packing loses no
  /// transitions.
  double switched_energy_fj() const {
    double energy = 0.0;
    const auto& op_of_gate = tape_->op_of_gate;
    const auto& gate_energy = tape_->gate_energy_fj;
    for (std::size_t g = 0; g < op_of_gate.size(); ++g) {
      energy += static_cast<double>(op_toggles_[op_of_gate[g]]) *
                gate_energy[g];
    }
    return energy;
  }

  /// Clears toggle counts and vector counters (net state persists).
  void reset_activity() {
    op_toggles_.assign(op_toggles_.size(), 0);
    vectors_applied_ = 0;
    transition_pairs_ = 0;
    baselined_lanes_ = Traits::zero();
  }

  const Tape& tape() const { return *tape_; }

 private:
  void step(const Word& counted_mask) {
    if (Traits::any(counted_mask)) {
      detail::execute_tape<Word, true>(*tape_, slots_.data(),
                                       op_toggles_.data(), counted_mask);
    } else {
      detail::execute_tape<Word, false>(*tape_, slots_.data(), nullptr,
                                        counted_mask);
    }
  }

  void copy_outputs() {
    const auto& out_slots = tape_->output_slots;
    for (std::size_t j = 0; j < out_slots.size(); ++j) {
      out_words_[j] = slots_[out_slots[j]];
    }
  }

  std::shared_ptr<const Tape> tape_;
  std::vector<Word> slots_;                 ///< SoA lane state, one per net
  std::vector<std::uint64_t> op_toggles_;   ///< tape-op order
  std::vector<Word> out_words_;
  std::vector<Word> in_scratch_;
  std::vector<std::uint64_t> chunk_scratch_;
  std::uint64_t vectors_applied_ = 0;
  std::uint64_t transition_pairs_ = 0;
  Word baselined_lanes_ = Traits::zero();
  bool counting_ = true;
};

}  // namespace axc::logic
