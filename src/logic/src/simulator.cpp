#include "axc/logic/simulator.hpp"

#include "axc/common/bits.hpp"
#include "axc/common/require.hpp"
#include "axc/obs/obs.hpp"

namespace axc::logic {

namespace {

/// Reference-simulator calls (each is one vector); contrast with
/// logic.sim.passes to see how much work runs on the tape.
void count_scalar_call() {
  static obs::Counter& calls = obs::counter("logic.scalar.calls");
  calls.add();
}

}  // namespace

Simulator::Simulator(const Netlist& netlist)
    : netlist_(netlist),
      value_(netlist.net_count(), 0),
      gate_toggles_(netlist.gate_count(), 0) {
  for (NetId net = 0; net < netlist.net_count(); ++net) {
    if (netlist.driver(net) == CellType::Const1) value_[net] = 1;
  }
}

void Simulator::evaluate() {
  const auto& gates = netlist_.gates();
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const Gate& gate = gates[g];
    const unsigned value = eval_cell(gate.type, value_[gate.in[0]],
                                     value_[gate.in[1]], value_[gate.in[2]]);
    if (baselined_ && value != value_[gate.out]) ++gate_toggles_[g];
    value_[gate.out] = value;
  }
  baselined_ = true;
  ++vectors_applied_;
}

std::vector<unsigned> Simulator::apply(std::span<const unsigned> input_bits) {
  const auto& inputs = netlist_.inputs();
  require(input_bits.size() == inputs.size(),
          "Simulator::apply: stimulus width does not match primary inputs");
  count_scalar_call();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    value_[inputs[i]] = input_bits[i] & 1u;
  }
  evaluate();
  std::vector<unsigned> out;
  out.reserve(netlist_.outputs().size());
  for (const NetId net : netlist_.outputs()) out.push_back(value_[net]);
  return out;
}

std::uint64_t Simulator::apply_word(std::uint64_t input_word) {
  const auto& inputs = netlist_.inputs();
  const auto& outputs = netlist_.outputs();
  require(inputs.size() <= 64 && outputs.size() <= 64,
          "Simulator::apply_word: > 64 inputs or outputs");
  count_scalar_call();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    value_[inputs[i]] = bit_of(input_word, static_cast<unsigned>(i));
  }
  evaluate();
  std::uint64_t word = 0;
  for (std::size_t j = 0; j < outputs.size(); ++j) {
    word |= std::uint64_t{value_[outputs[j]]} << j;
  }
  return word;
}

double Simulator::switched_energy_fj() const {
  double energy = 0.0;
  const auto& gates = netlist_.gates();
  for (std::size_t g = 0; g < gates.size(); ++g) {
    energy += static_cast<double>(gate_toggles_[g]) *
              cell_info(gates[g].type).energy_fj;
  }
  return energy;
}

void Simulator::reset_activity() {
  gate_toggles_.assign(gate_toggles_.size(), 0);
  vectors_applied_ = 0;
  baselined_ = false;
}

}  // namespace axc::logic
