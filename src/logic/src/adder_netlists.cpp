#include "axc/logic/adder_netlists.hpp"

#include <string>

#include "axc/common/require.hpp"

namespace axc::logic {

using arith::FullAdderKind;

namespace {

/// The tie-low net for a cell's constant-0 output. A carry-in that is
/// already tied low is reused, so a chain of carry-dropping cells shares
/// one constant net.
NetId tie_low(Netlist& netlist, NetId cin) {
  return netlist.driver(cin) == CellType::Const0 ? cin
                                                 : netlist.add_const(false);
}

struct AdderShell {
  Netlist netlist;
  std::vector<NetId> a;
  std::vector<NetId> b;
};

AdderShell make_adder_shell(const std::string& name, unsigned width) {
  AdderShell shell{Netlist(name), {}, {}};
  shell.a.resize(width);
  shell.b.resize(width);
  for (unsigned i = 0; i < width; ++i) {
    shell.a[i] = shell.netlist.add_input("a" + std::to_string(i));
  }
  for (unsigned i = 0; i < width; ++i) {
    shell.b[i] = shell.netlist.add_input("b" + std::to_string(i));
  }
  return shell;
}

/// Marks \p sums as the outputs s0..sN.
void mark_sum_outputs(Netlist& netlist, std::span<const NetId> sums) {
  for (std::size_t i = 0; i < sums.size(); ++i) {
    netlist.mark_output(sums[i], "s" + std::to_string(i));
  }
}

}  // namespace

FaNets add_full_adder(Netlist& netlist, FullAdderKind kind, NetId a, NetId b,
                      NetId cin) {
  switch (kind) {
    case FullAdderKind::Accurate: {
      const NetId t = netlist.add_gate(CellType::Xor2, a, b);
      const NetId sum = netlist.add_gate(CellType::Xor2, t, cin);
      const NetId cout = netlist.add_gate(CellType::Maj3, a, b, cin);
      return {sum, cout};
    }
    case FullAdderKind::Apx1: {
      // Sum = Cin & (A xnor B); Cout = (A & Cin) | B.
      const NetId eq = netlist.add_gate(CellType::Xnor2, a, b);
      const NetId sum = netlist.add_gate(CellType::And2, eq, cin);
      const NetId cout = netlist.add_gate(CellType::Ao21, a, cin, b);
      return {sum, cout};
    }
    case FullAdderKind::Apx2: {
      // Exact carry; Sum is its complement (IMPACT's core simplification).
      const NetId cout = netlist.add_gate(CellType::Maj3, a, b, cin);
      const NetId sum = netlist.add_gate(CellType::Inv, cout);
      return {sum, cout};
    }
    case FullAdderKind::Apx3: {
      // Sum = !((A & Cin) | B); Cout = !Sum.
      const NetId sum = netlist.add_gate(CellType::Aoi21, a, cin, b);
      const NetId cout = netlist.add_gate(CellType::Inv, sum);
      return {sum, cout};
    }
    case FullAdderKind::Apx4: {
      // Sum = Cin & (!A | B); Cout = A (wire).
      const NetId na = netlist.add_gate(CellType::Inv, a);
      const NetId sum = netlist.add_gate(CellType::Oa21, na, b, cin);
      return {sum, a};
    }
    case FullAdderKind::Apx5:
      // Pure wiring: Sum = B, Cout = A. Zero gates, zero power — the
      // Table III row with area 0.
      return {b, a};
    case FullAdderKind::LowOr:
      return {netlist.add_gate(CellType::Or2, a, b), tie_low(netlist, cin)};
    case FullAdderKind::LowOrCarry: {
      const NetId sum = netlist.add_gate(CellType::Or2, a, b);
      return {sum, netlist.add_gate(CellType::And2, a, b)};
    }
    case FullAdderKind::LowXor:
      return {netlist.add_gate(CellType::Xor2, a, b), tie_low(netlist, cin)};
    case FullAdderKind::HalfAdd: {
      const NetId sum = netlist.add_gate(CellType::Xor2, a, b);
      return {sum, netlist.add_gate(CellType::And2, a, b)};
    }
    case FullAdderKind::Zero: {
      const NetId zero = tie_low(netlist, cin);
      return {zero, zero};
    }
  }
  require(false, "add_full_adder: unknown kind");
  return {};
}

Netlist full_adder_netlist(FullAdderKind kind) {
  Netlist netlist(std::string(arith::full_adder_name(kind)));
  const NetId a = netlist.add_input("a");
  const NetId b = netlist.add_input("b");
  const NetId cin = netlist.add_input("cin");
  const FaNets out = add_full_adder(netlist, kind, a, b, cin);
  netlist.mark_output(out.sum, "sum");
  netlist.mark_output(out.carry, "cout");
  return netlist;
}

std::vector<NetId> add_ripple_adder(
    Netlist& netlist, std::span<const NetId> a, std::span<const NetId> b,
    NetId cin, std::span<const FullAdderKind> cells) {
  require(a.size() == b.size() && a.size() == cells.size() && !a.empty(),
          "add_ripple_adder: operand/cell widths must match");
  std::vector<NetId> sums;
  sums.reserve(a.size() + 1);
  NetId carry = cin;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const FaNets out = add_full_adder(netlist, cells[i], a[i], b[i], carry);
    sums.push_back(out.sum);
    carry = out.carry;
  }
  sums.push_back(carry);
  return sums;
}

Netlist ripple_adder_netlist(std::span<const FullAdderKind> cells,
                             std::string name) {
  const auto width = static_cast<unsigned>(cells.size());
  AdderShell shell = make_adder_shell(
      name.empty() ? "Ripple" + std::to_string(width) : name, width);
  const NetId cin = shell.netlist.add_const(false);
  mark_sum_outputs(shell.netlist, add_ripple_adder(shell.netlist, shell.a,
                                                   shell.b, cin, cells));
  return std::move(shell.netlist);
}

Netlist etai_adder_netlist(unsigned width, unsigned approx_lsbs) {
  require(width >= 1 && width <= 63 && approx_lsbs <= width,
          "etai_adder_netlist: invalid shape");
  AdderShell shell = make_adder_shell(
      "ETAI" + std::to_string(width) + "_" + std::to_string(approx_lsbs),
      width);
  Netlist& nl = shell.netlist;
  const unsigned k = approx_lsbs;

  // Saturation chain, MSB of the low part downward: ctl_i = 1 once any
  // position >= i (within the low part) had both bits set.
  std::vector<NetId> sums(width);
  NetId ctl = nl.add_const(false);
  for (unsigned i = k; i-- > 0;) {
    const NetId both = nl.add_gate(CellType::And2, shell.a[i], shell.b[i]);
    ctl = nl.add_gate(CellType::Or2, ctl, both);
    // sum_i = ctl (saturated) | (a ^ b); when ctl is set the OR forces 1.
    const NetId x = nl.add_gate(CellType::Xor2, shell.a[i], shell.b[i]);
    sums[i] = nl.add_gate(CellType::Or2, ctl, x);
  }
  const NetId zero = nl.add_const(false);
  const std::vector<FullAdderKind> cells(width - k,
                                         FullAdderKind::Accurate);
  if (width > k) {
    const std::vector<NetId> upper = add_ripple_adder(
        nl, std::span(shell.a).subspan(k), std::span(shell.b).subspan(k),
        zero, cells);
    for (unsigned i = 0; i < upper.size(); ++i) {
      if (k + i < sums.size()) {
        sums[k + i] = upper[i];
      } else {
        sums.push_back(upper[i]);
      }
    }
  } else {
    sums.push_back(zero);  // carry-out is constant 0
  }
  mark_sum_outputs(nl, sums);
  return std::move(shell.netlist);
}

Netlist hetero_adder_netlist(std::span<const HeteroBlockSpec> blocks) {
  require(!blocks.empty(), "hetero_adder_netlist: needs at least one block");
  unsigned width = 0;
  for (const HeteroBlockSpec& block : blocks) {
    require(block.width >= 1, "hetero_adder_netlist: zero-width block");
    width += block.width;
  }
  require(width <= 63, "hetero_adder_netlist: width must be <= 63");

  std::string name = "Hetero" + std::to_string(width);
  for (const HeteroBlockSpec& block : blocks) {
    const char tag[] = {'A', 'C', 'T'};
    name += '_';
    name += tag[static_cast<unsigned>(block.kind)];
    name += std::to_string(block.width);
  }
  AdderShell shell = make_adder_shell(name, width);
  Netlist& nl = shell.netlist;

  const NetId zero = nl.add_const(false);
  std::vector<NetId> sums;
  sums.reserve(width + 1);
  NetId carry = zero;
  unsigned offset = 0;
  for (const HeteroBlockSpec& block : blocks) {
    const unsigned w = block.width;
    const std::span<const NetId> a = std::span(shell.a).subspan(offset, w);
    const std::span<const NetId> b = std::span(shell.b).subspan(offset, w);
    switch (block.kind) {
      case HeteroSubAdder::Accurate: {
        const std::vector<FullAdderKind> cells(w, FullAdderKind::Accurate);
        const std::vector<NetId> out =
            add_ripple_adder(nl, a, b, carry, cells);
        sums.insert(sums.end(), out.begin(), out.end() - 1);
        carry = out.back();
        break;
      }
      case HeteroSubAdder::CarryCut: {
        // Exact sum bits given the carry-in, but the top position computes
        // no carry-out (the MAJ gate is elided — that saving is the point
        // of cutting the chain here).
        NetId c = carry;
        for (unsigned i = 0; i < w; ++i) {
          if (i + 1 < w) {
            const FaNets out =
                add_full_adder(nl, FullAdderKind::Accurate, a[i], b[i], c);
            sums.push_back(out.sum);
            c = out.carry;
          } else {
            const NetId t = nl.add_gate(CellType::Xor2, a[i], b[i]);
            sums.push_back(nl.add_gate(CellType::Xor2, t, c));
          }
        }
        carry = zero;
        break;
      }
      case HeteroSubAdder::Truncated:
        // No gates at all: the block reads 0 and restarts the chain.
        for (unsigned i = 0; i < w; ++i) sums.push_back(zero);
        carry = zero;
        break;
    }
    offset += w;
  }
  sums.push_back(carry);
  mark_sum_outputs(nl, sums);
  return std::move(shell.netlist);
}

Netlist gear_adder_netlist(const arith::GeArConfig& config) {
  require(config.is_valid(), "gear_adder_netlist: invalid GeAr config");
  const unsigned n = config.n;
  const unsigned l = config.l();
  const unsigned k = config.num_subadders();

  Netlist netlist(config.name());
  std::vector<NetId> a(n);
  std::vector<NetId> b(n);
  for (unsigned i = 0; i < n; ++i) a[i] = netlist.add_input("a" + std::to_string(i));
  for (unsigned i = 0; i < n; ++i) b[i] = netlist.add_input("b" + std::to_string(i));

  std::vector<NetId> result(n + 1);
  const std::vector<FullAdderKind> cells(l, FullAdderKind::Accurate);
  for (unsigned s = 0; s < k; ++s) {
    const unsigned start = s * config.r;
    const NetId cin = netlist.add_const(false);
    const std::vector<NetId> sums = add_ripple_adder(
        netlist, std::span(a).subspan(start, l),
        std::span(b).subspan(start, l), cin, cells);
    // The first sub-adder owns all L result bits, later ones only their
    // top R (their low P bits exist purely to predict the carry).
    const unsigned first_used = (s == 0) ? 0 : config.p;
    for (unsigned bit = first_used; bit < l; ++bit) {
      result[start + bit] = sums[bit];
    }
    if (s == k - 1) result[n] = sums[l];  // overall carry-out
  }
  for (unsigned i = 0; i <= n; ++i) {
    netlist.mark_output(result[i], "s" + std::to_string(i));
  }
  return netlist;
}

}  // namespace axc::logic
