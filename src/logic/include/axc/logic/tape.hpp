/// \file tape.hpp
/// Netlist -> straight-line tape compilation.
///
/// The tape is the repo's one gate evaluator: every netlist simulation —
/// exhaustive characterization, error sweeps, SAD batches, power
/// estimation, gate-level fault campaigns and the service cold path —
/// runs through it. compile_netlist() pays the per-cell dispatch once: the
/// cell DAG is levelized (topological order over validated structure), ops
/// are sorted so equal cell types become contiguous runs, and the whole
/// netlist is emitted as a flat tape of word ops. Execution
/// (tape_engine.hpp) is then one tight loop per run with the cell function
/// inlined — no per-op switch, no virtual dispatch — over
/// structure-of-arrays lane storage whose word width is a compile-time
/// parameter (std::uint64_t, LaneBlock<N> SWAR blocks for >64 lanes).
/// The only other evaluator is the scalar reference Simulator
/// (simulator.hpp), which shares no code with the tape and exists to check
/// it.
///
/// Levelization doubles as structural validation: combinational cycles and
/// dangling cell inputs — expressible through Netlist::from_parts, never
/// through the incremental builder — fail with a typed AXC_REQUIRE
/// diagnostic instead of silently mis-simulating.
///
/// Tapes are immutable once built and cached process-wide by the
/// netlist's structural_hash(), so structurally identical rebuilds (the
/// characterization and service layers produce many) compile exactly once.
/// Cache traffic is observable as logic.compile.{hits,misses} and fresh
/// compiles record logic.tape.{ops,levels} histograms (obs.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "axc/logic/cell.hpp"
#include "axc/logic/netlist.hpp"

namespace axc::logic {

/// One straight-line word operation: evaluate one cell over input slots,
/// store into the output slot. Slots index the engine's lane-word array
/// (slot == NetId; toggle accounting needs every net's previous value, so
/// slots are never reused). Unused input slots are 0, which always names a
/// valid slot — engines never read out of bounds regardless of fan-in.
struct TapeOp {
  std::uint32_t in0 = 0;
  std::uint32_t in1 = 0;
  std::uint32_t in2 = 0;
  std::uint32_t out = 0;
};

/// A maximal run of consecutive tape ops sharing one cell type. The
/// executor dispatches once per run and then loops branch-free; within a
/// run ops execute in order, so runs may legally span level boundaries
/// (the op order stays topological).
struct TapeRun {
  CellType type = CellType::Buf;
  std::uint32_t begin = 0;  ///< first op index
  std::uint32_t end = 0;    ///< one past the last op index
};

/// The compiled form of one netlist. Immutable after compile_netlist()
/// returns it; engines hold it by shared_ptr, so one tape serves any
/// number of concurrent engines (each engine owns only its lane state).
struct Tape {
  /// Ops in execution order: sorted by (level, cell type, gate index), so
  /// the order is topological and equal opcodes are contiguous.
  std::vector<TapeOp> ops;
  std::vector<TapeRun> runs;
  /// Gate index (Netlist::gates() order) -> op index. Toggle counters and
  /// fault words live per op in tape order (sequential access); this is
  /// the map back to the per-gate view.
  std::vector<std::uint32_t> op_of_gate;
  /// Per-gate switching energy (gate order) — engines sum switched energy
  /// in gate order, the floating-point association of the reference
  /// Simulator, hence byte-identical totals.
  std::vector<double> gate_energy_fj;
  std::vector<std::uint32_t> input_slots;      ///< Netlist::inputs()
  std::vector<std::uint32_t> output_slots;     ///< Netlist::outputs()
  std::vector<std::uint32_t> const_one_slots;  ///< Const1 nets (tie-high)
  std::uint32_t slot_count = 0;  ///< lane words per engine (== net_count)
  std::uint32_t level_count = 0; ///< logic depth of the levelized DAG
  std::uint64_t structural_hash = 0;
};

/// Levelization result: per-net logic level (primary inputs and constants
/// are level 0, a gate's output is 1 + max over its input levels).
struct Levelization {
  std::vector<std::uint32_t> level_of_net;
  std::uint32_t level_count = 0;  ///< max level + 1 (1 for gate-free nets)
};

/// Validates \p netlist's structure and computes logic levels. Throws a
/// typed AXC_REQUIRE diagnostic (std::invalid_argument with file:line and
/// the failed expression) on: input nets out of range, gates driving nets
/// whose recorded kind disagrees, multiply-driven or undriven cell nets
/// (dangling), primary inputs/outputs naming bad nets, and combinational
/// cycles. Netlists built through the incremental API always pass; this
/// is the validation gate for Netlist::from_parts.
Levelization levelize(const Netlist& netlist);

/// Tapes the process-wide cache keeps; past it the least recently used
/// tape is evicted (engines keep theirs alive through the shared_ptr). A
/// sweep over every service endpoint family compiles 177 distinct
/// netlists, so that working set stays resident.
inline constexpr std::size_t kCompileCacheCapacity = 512;

/// Compiles \p netlist to a tape, memoized process-wide on
/// structural_hash() in an LRU cache of kCompileCacheCapacity tapes.
/// Thread-safe; a cached tape is shared, a fresh compile levelizes
/// (validating — see levelize()) and emits. A hash collision (cached
/// tape's shape disagrees with the netlist) degrades to an uncached fresh
/// compile rather than returning a wrong tape.
std::shared_ptr<const Tape> compile_netlist(const Netlist& netlist);

namespace detail {
/// compile_netlist() under an explicit cache \p key, so tests can force two
/// netlists onto one key and check the collision path.
std::shared_ptr<const Tape> compile_netlist_keyed(const Netlist& netlist,
                                                  std::uint64_t key);
}  // namespace detail

/// Hit/miss counters of the process-wide tape cache (mirrored into the
/// obs registry as logic.compile.{hits,misses}) and its current size.
struct CompileCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;  ///< tapes cached, <= kCompileCacheCapacity
};
CompileCacheStats compile_cache_stats();

/// Drops every cached tape and resets the counters (tests; engines keep
/// their shared_ptr-held tapes alive independently).
void clear_compile_cache();

}  // namespace axc::logic
