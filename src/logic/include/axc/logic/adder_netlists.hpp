/// \file adder_netlists.hpp
/// Structural (gate-level) realizations of the adder library.
///
/// These generators produce the netlists that the paper would have written
/// in VHDL and pushed through Design Compiler: hand-mapped 1-bit full
/// adders (Table III), LSB-approximate ripple adders, and the GeAr
/// sub-adder arrangement of Fig. 3. Their functional equivalence to the
/// behavioural models in axc::arith is asserted by the test suite.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "axc/arith/full_adder.hpp"
#include "axc/arith/gear.hpp"
#include "axc/logic/netlist.hpp"

namespace axc::logic {

/// Sum/carry net pair produced by a 1-bit adder instance.
struct FaNets {
  NetId sum;
  NetId carry;
};

/// Instantiates one full adder of \p kind inside \p netlist. The mapping is
/// the canonical compact structure per variant (e.g. the accurate adder is
/// XOR2/XOR2 + MAJ3; ApxFA5 is pure wiring and adds no gates at all). The
/// lower-part cells are one OR2/XOR2 for the sum and an AND2 for a kept
/// carry; a constant-0 output is a tie-low net, \p cin itself when it is
/// already tied low.
FaNets add_full_adder(Netlist& netlist, arith::FullAdderKind kind, NetId a,
                      NetId b, NetId cin);

/// A standalone full-adder block: inputs a, b, cin; outputs sum, cout.
Netlist full_adder_netlist(arith::FullAdderKind kind);

/// Instantiates a ripple adder over existing nets; \p cells selects the
/// full-adder type per position (cells.size() == a.size() == b.size()).
/// Returns the sum nets plus the final carry as the extra last element.
std::vector<NetId> add_ripple_adder(Netlist& netlist,
                                    std::span<const NetId> a,
                                    std::span<const NetId> b, NetId cin,
                                    std::span<const arith::FullAdderKind> cells);

/// A standalone ripple adder: inputs a0..aN-1, b0..bN-1; outputs s0..sN
/// (sN is the carry out), carry-in tied low. LSB-approximate layouts come
/// from arith::RippleAdder::lsb_approximated's cell vector, the LOA /
/// LOAWA / HEAA layouts from designspace::static_adder_cells. An empty
/// \p name gives "Ripple" + N, e.g. "Ripple16".
Netlist ripple_adder_netlist(std::span<const arith::FullAdderKind> cells,
                             std::string name = {});

/// A standalone ETA-I adder: the low part is a saturation chain (from the
/// first (1,1) pair downward all sum bits read 1), the upper part an exact
/// ripple adder with no carry from below. Equivalent to arith::EtaiAdder.
Netlist etai_adder_netlist(unsigned width, unsigned approx_lsbs);

/// A standalone GeAr adder exactly as drawn in Fig. 3: k overlapping L-bit
/// accurate ripple sub-adders, each with constant-zero carry-in; the low P
/// bits of every sub-adder but the first are carry prediction only and are
/// not connected to outputs. The P-bit overlap is computed redundantly in
/// hardware, which is why GeAr area grows with P (Table IV).
Netlist gear_adder_netlist(const arith::GeArConfig& config);

/// Sub-adder flavor of one block in a heterogeneous block adder
/// (Farahmand et al., arXiv:2106.08800).
enum class HeteroSubAdder : std::uint8_t {
  Accurate = 0,   ///< exact ripple, forwards its carry-out
  CarryCut = 1,   ///< exact sum given carry-in, carry-out cut (reads as 0)
  Truncated = 2,  ///< all sum bits constant 0, carry-in ignored
};

/// One block of a heterogeneous adder, LSB-first in the block list.
struct HeteroBlockSpec {
  HeteroSubAdder kind = HeteroSubAdder::Accurate;
  unsigned width = 1;
};

/// A standalone heterogeneous block adder: the operand is split into
/// blocks (LSB-first); each block is an accurate ripple, a carry-cut
/// ripple (sum exact given carry-in, carry-out dropped so the chain above
/// restarts from 0), or fully truncated (outputs 0, no gates). Inputs
/// a0..aN-1, b0..bN-1; outputs s0..sN where sN is the top block's
/// carry-out (constant 0 unless the top block is Accurate).
Netlist hetero_adder_netlist(std::span<const HeteroBlockSpec> blocks);

}  // namespace axc::logic
