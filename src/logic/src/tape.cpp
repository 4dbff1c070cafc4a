#include "axc/logic/tape.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string>

#include "axc/common/bits.hpp"
#include "axc/common/lru_map.hpp"
#include "axc/common/require.hpp"
#include "axc/logic/tape_engine.hpp"
#include "axc/obs/obs.hpp"

namespace axc::logic {

namespace {

std::string diag(const Netlist& netlist, const std::string& what) {
  return "compile: netlist '" + netlist.name() + "': " + what;
}

/// One process-wide memo for compiled tapes, keyed by structural hash.
struct TapeCache {
  std::mutex mutex;
  LruMap<std::uint64_t, std::shared_ptr<const Tape>, kCompileCacheCapacity>
      tapes;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

TapeCache& cache() {
  static TapeCache instance;
  return instance;
}

// Lane values of input i for counting stimulus base + k with base
// 64-aligned: bit i of (base + k) is periodic in k for i < 6 and constant
// (= bit i of base) otherwise.
constexpr std::uint64_t kCountingPattern[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
};

/// Mirrors the cache tally into the obs registry (report writers derive
/// logic.compile.hit_rate from the pair).
void count_compile_probe(bool hit) {
  static obs::Counter& hits = obs::counter("logic.compile.hits");
  static obs::Counter& misses = obs::counter("logic.compile.misses");
  (hit ? hits : misses).add();
}

/// Shape check: a 64-bit hash collision must degrade to a fresh compile,
/// never to executing the wrong tape.
bool shape_matches(const Tape& tape, const Netlist& netlist) {
  return tape.slot_count == netlist.net_count() &&
         tape.ops.size() == netlist.gate_count();
}

std::shared_ptr<const Tape> build_tape(const Netlist& netlist) {
  const Levelization levels = levelize(netlist);
  const auto& gates = netlist.gates();
  const std::size_t gate_count = gates.size();

  auto tape = std::make_shared<Tape>();
  tape->structural_hash = netlist.structural_hash();
  tape->slot_count = static_cast<std::uint32_t>(netlist.net_count());
  tape->level_count = levels.level_count;
  tape->input_slots.assign(netlist.inputs().begin(), netlist.inputs().end());
  tape->output_slots.assign(netlist.outputs().begin(),
                            netlist.outputs().end());
  for (NetId net = 0; net < netlist.net_count(); ++net) {
    if (netlist.driver(net) == CellType::Const1) {
      tape->const_one_slots.push_back(net);
    }
  }

  // Emission order: (level, cell type, gate index). Levels make the order
  // topological under any reordering of same-level gates; sorting equal
  // cell types together within a level is what produces long homogeneous
  // runs; the gate index keeps the order deterministic.
  std::vector<std::uint32_t> order(gate_count);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t lhs, std::uint32_t rhs) {
              const std::uint32_t ll = levels.level_of_net[gates[lhs].out];
              const std::uint32_t rl = levels.level_of_net[gates[rhs].out];
              if (ll != rl) return ll < rl;
              if (gates[lhs].type != gates[rhs].type) {
                return gates[lhs].type < gates[rhs].type;
              }
              return lhs < rhs;
            });

  tape->ops.resize(gate_count);
  tape->op_of_gate.resize(gate_count);
  tape->gate_energy_fj.resize(gate_count);
  for (std::size_t i = 0; i < gate_count; ++i) {
    const Gate& gate = gates[order[i]];
    const int fanin = cell_fanin(gate.type);
    TapeOp& op = tape->ops[i];
    // Unused pins stay 0: slot 0 always exists when any gate does, so the
    // executor may load all pins a loop variant touches without bounds
    // concerns.
    op.in0 = fanin >= 1 ? gate.in[0] : 0;
    op.in1 = fanin >= 2 ? gate.in[1] : 0;
    op.in2 = fanin >= 3 ? gate.in[2] : 0;
    op.out = gate.out;
    tape->op_of_gate[order[i]] = static_cast<std::uint32_t>(i);
    tape->gate_energy_fj[order[i]] = cell_info(gate.type).energy_fj;
  }

  // Coalesce equal adjacent cell types into runs — including across level
  // boundaries, which is safe because run execution is sequential in op
  // order and the op order is topological.
  for (std::size_t i = 0; i < gate_count;) {
    const CellType type = gates[order[i]].type;
    std::size_t j = i + 1;
    while (j < gate_count && gates[order[j]].type == type) ++j;
    tape->runs.push_back({type, static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j)});
    i = j;
  }

  static obs::Histogram& ops_histogram = obs::histogram("logic.tape.ops");
  static obs::Histogram& levels_histogram =
      obs::histogram("logic.tape.levels");
  ops_histogram.record(static_cast<std::int64_t>(tape->ops.size()));
  levels_histogram.record(static_cast<std::int64_t>(tape->level_count));
  return tape;
}

}  // namespace

Levelization levelize(const Netlist& netlist) {
  const auto& gates = netlist.gates();
  const std::size_t net_count = netlist.net_count();
  const std::size_t gate_count = gates.size();

  // Pass 1: per-net driver bookkeeping. Every net's recorded kind must
  // agree with what actually drives it — pseudo-kinds have no driver gate,
  // cell kinds have exactly one.
  constexpr std::uint32_t kNoDriver = UINT32_MAX;
  std::vector<std::uint32_t> driver_gate(net_count, kNoDriver);
  for (std::size_t g = 0; g < gate_count; ++g) {
    const Gate& gate = gates[g];
    AXC_REQUIRE(cell_fanin(gate.type) > 0,
                diag(netlist, "gate " + std::to_string(g) +
                                  " instantiates a pseudo-cell"));
    AXC_REQUIRE(gate.out < net_count,
                diag(netlist, "gate " + std::to_string(g) +
                                  " drives nonexistent net " +
                                  std::to_string(gate.out)));
    AXC_REQUIRE(netlist.driver(gate.out) == gate.type,
                diag(netlist, "net " + std::to_string(gate.out) +
                                  "'s recorded kind disagrees with its "
                                  "driving gate"));
    AXC_REQUIRE(driver_gate[gate.out] == kNoDriver,
                diag(netlist, "net " + std::to_string(gate.out) +
                                  " is driven by more than one gate"));
    driver_gate[gate.out] = static_cast<std::uint32_t>(g);
    for (int pin = 0; pin < cell_fanin(gate.type); ++pin) {
      AXC_REQUIRE(gate.in[static_cast<std::size_t>(pin)] < net_count,
                  diag(netlist, "gate " + std::to_string(g) + " pin " +
                                    std::to_string(pin) +
                                    " reads a dangling (nonexistent) net"));
    }
  }
  for (NetId net = 0; net < net_count; ++net) {
    const CellType kind = netlist.driver(net);
    const bool pseudo = kind == CellType::Input || kind == CellType::Const0 ||
                        kind == CellType::Const1;
    AXC_REQUIRE(pseudo == (driver_gate[net] == kNoDriver),
                diag(netlist, "net " + std::to_string(net) +
                                  (pseudo ? " has a driver gate but a "
                                            "pseudo-cell kind"
                                          : " has a cell kind but no "
                                            "driving gate (dangling)")));
  }
  for (const NetId net : netlist.inputs()) {
    AXC_REQUIRE(net < net_count && netlist.driver(net) == CellType::Input,
                diag(netlist, "primary input list names net " +
                                  std::to_string(net) +
                                  " which is not an Input net"));
  }
  for (const NetId net : netlist.outputs()) {
    AXC_REQUIRE(net < net_count,
                diag(netlist, "primary output list names nonexistent net " +
                                  std::to_string(net)));
  }

  // Pass 2: Kahn's algorithm over gate->gate edges. Gates whose inputs are
  // all pseudo-driven are sources; each resolved gate releases the gates
  // reading its output net. Anything left unprocessed sits on a cycle.
  Levelization result;
  result.level_of_net.assign(net_count, 0);
  std::vector<std::uint32_t> pending(gate_count, 0);
  std::vector<std::vector<std::uint32_t>> readers(net_count);
  std::vector<std::uint32_t> ready;
  for (std::size_t g = 0; g < gate_count; ++g) {
    const Gate& gate = gates[g];
    std::uint32_t waits = 0;
    for (int pin = 0; pin < cell_fanin(gate.type); ++pin) {
      const NetId in = gate.in[static_cast<std::size_t>(pin)];
      if (driver_gate[in] != kNoDriver) {
        ++waits;
        readers[in].push_back(static_cast<std::uint32_t>(g));
      }
    }
    pending[g] = waits;
    if (waits == 0) ready.push_back(static_cast<std::uint32_t>(g));
  }

  std::size_t processed = 0;
  while (!ready.empty()) {
    const std::uint32_t g = ready.back();
    ready.pop_back();
    ++processed;
    const Gate& gate = gates[g];
    std::uint32_t level = 0;
    for (int pin = 0; pin < cell_fanin(gate.type); ++pin) {
      level = std::max(
          level, result.level_of_net[gate.in[static_cast<std::size_t>(pin)]]);
    }
    result.level_of_net[gate.out] = level + 1;
    result.level_count = std::max(result.level_count, level + 2);
    for (const std::uint32_t reader : readers[gate.out]) {
      if (--pending[reader] == 0) ready.push_back(reader);
    }
  }
  if (processed != gate_count) {
    // Name one gate stuck on the cycle so the diagnostic is actionable.
    std::size_t stuck = 0;
    while (stuck < gate_count && pending[stuck] == 0) ++stuck;
    AXC_REQUIRE(processed == gate_count,
                diag(netlist, "combinational cycle through gate " +
                                  std::to_string(stuck) + " (net " +
                                  std::to_string(gates[stuck].out) + ")"));
  }
  result.level_count = std::max(result.level_count, 1u);
  return result;
}

std::shared_ptr<const Tape> compile_netlist(const Netlist& netlist) {
  return detail::compile_netlist_keyed(netlist, netlist.structural_hash());
}

namespace detail {

std::shared_ptr<const Tape> compile_netlist_keyed(const Netlist& netlist,
                                                  std::uint64_t key) {
  {
    TapeCache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    const std::shared_ptr<const Tape>* cached = c.tapes.find(key);
    if (cached != nullptr && shape_matches(**cached, netlist)) {
      ++c.hits;
      count_compile_probe(true);
      return *cached;
    }
    ++c.misses;
    count_compile_probe(false);
  }
  std::shared_ptr<const Tape> tape = build_tape(netlist);
  TapeCache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  const std::shared_ptr<const Tape>& stored = c.tapes.insert(key, tape);
  // On a collision the colliding netlist keeps the slot and this tape
  // goes back uncached.
  return shape_matches(*stored, netlist) ? stored : tape;
}

}  // namespace detail

void pack_counting_lanes(std::uint64_t base, unsigned num_inputs,
                         unsigned lanes, std::span<std::uint64_t> words) {
  require(num_inputs <= 64 && words.size() >= num_inputs,
          "pack_counting_lanes: > 64 inputs or destination too small");
  require(lanes >= 1 && lanes <= 64,
          "pack_counting_lanes: lanes must be in [1, 64]");
  if (base % 64 == 0) {
    for (unsigned i = 0; i < num_inputs; ++i) {
      words[i] = i < 6 ? kCountingPattern[i]
                       : (bit_of(base, i) ? ~std::uint64_t{0} : 0);
    }
    return;
  }
  // Unaligned base: pack lane by lane.
  for (unsigned i = 0; i < num_inputs; ++i) words[i] = 0;
  for (unsigned k = 0; k < lanes; ++k) {
    const std::uint64_t word = base + k;
    for (unsigned i = 0; i < num_inputs; ++i) {
      words[i] |= static_cast<std::uint64_t>(bit_of(word, i)) << k;
    }
  }
}

CompileCacheStats compile_cache_stats() {
  TapeCache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return {c.hits, c.misses, c.tapes.size()};
}

void clear_compile_cache() {
  TapeCache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.tapes.clear();
  c.hits = 0;
  c.misses = 0;
}

}  // namespace axc::logic
