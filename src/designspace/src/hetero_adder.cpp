#include "axc/designspace/hetero_adder.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "axc/common/bits.hpp"
#include "axc/common/require.hpp"

namespace axc::designspace {

const char* hetero_sub_adder_name(HeteroSubAdder kind) {
  switch (kind) {
    case HeteroSubAdder::Accurate: return "accurate";
    case HeteroSubAdder::CarryCut: return "carry_cut";
    case HeteroSubAdder::Truncated: return "truncated";
  }
  return "?";
}

unsigned hetero_width(std::span<const HeteroBlockSpec> blocks) {
  unsigned width = 0;
  for (const HeteroBlockSpec& block : blocks) width += block.width;
  return width;
}

std::vector<HeteroBlockSpec> make_hetero_blocks(unsigned width,
                                                unsigned block_width,
                                                HeteroSubAdder low_kind,
                                                unsigned approx_blocks) {
  require(width >= 1 && block_width >= 1 && block_width <= width,
          "make_hetero_blocks: invalid shape");
  const unsigned count = (width + block_width - 1) / block_width;
  require(approx_blocks <= count,
          "make_hetero_blocks: more approximate blocks than blocks");
  std::vector<HeteroBlockSpec> blocks;
  blocks.reserve(count);
  unsigned remaining = width;
  for (unsigned i = 0; i < count; ++i) {
    const unsigned w = std::min(block_width, remaining);
    const HeteroSubAdder kind =
        i < approx_blocks ? low_kind : HeteroSubAdder::Accurate;
    blocks.push_back({kind, w});
    remaining -= w;
  }
  return blocks;
}

HeteroBlockAdder::HeteroBlockAdder(std::vector<HeteroBlockSpec> blocks)
    : blocks_(std::move(blocks)) {
  require(!blocks_.empty(), "HeteroBlockAdder: needs at least one block");
  for (const HeteroBlockSpec& block : blocks_) {
    require(block.width >= 1, "HeteroBlockAdder: zero-width block");
    width_ += block.width;
  }
  require(width_ <= 63, "HeteroBlockAdder: width must be <= 63");
}

std::uint64_t HeteroBlockAdder::add(std::uint64_t a, std::uint64_t b,
                                    unsigned carry_in) const {
  a &= low_mask(width_);
  b &= low_mask(width_);
  std::uint64_t result = 0;
  std::uint64_t carry = carry_in ? 1 : 0;
  unsigned offset = 0;
  for (const HeteroBlockSpec& block : blocks_) {
    const unsigned w = block.width;
    const std::uint64_t am = (a >> offset) & low_mask(w);
    const std::uint64_t bm = (b >> offset) & low_mask(w);
    switch (block.kind) {
      case HeteroSubAdder::Accurate: {
        const std::uint64_t s = am + bm + carry;
        result |= (s & low_mask(w)) << offset;
        carry = s >> w;
        break;
      }
      case HeteroSubAdder::CarryCut: {
        const std::uint64_t s = am + bm + carry;
        result |= (s & low_mask(w)) << offset;
        carry = 0;
        break;
      }
      case HeteroSubAdder::Truncated:
        carry = 0;
        break;
    }
    offset += w;
  }
  return result | (carry << width_);
}

std::string HeteroBlockAdder::name() const {
  std::string name = "Hetero" + std::to_string(width_);
  for (const HeteroBlockSpec& block : blocks_) {
    const char tag[] = {'A', 'C', 'T'};
    name += '_';
    name += tag[static_cast<unsigned>(block.kind)];
    name += std::to_string(block.width);
  }
  return name;
}

bool HeteroBlockAdder::is_exact() const {
  for (const HeteroBlockSpec& block : blocks_) {
    if (block.kind != HeteroSubAdder::Accurate) return false;
  }
  return true;
}

error::AdderErrorModel hetero_error_model(
    std::span<const HeteroBlockSpec> blocks) {
  const unsigned width = hetero_width(blocks);
  require(!blocks.empty() && width >= 1 && width <= 63,
          "hetero_error_model: invalid block list");

  // The error D = exact - approx is always >= 0 and decomposes exactly as
  //   D = sum over dropped carry-outs of co_i * 2^(off_i + w_i)
  //     + sum over truncated blocks of (a_i + b_i) * 2^(off_i),
  // where a carry-out is dropped when its block is CarryCut, or Accurate
  // followed by a Truncated block (which ignores its carry-in). MED is the
  // expectation of that sum (linearity — no independence needed); ER comes
  // from a joint DP over (carry, any-error-so-far); WCE is attained at
  // all-ones operands, which maximize every term simultaneously.
  error::AdderErrorModel model;
  double pc = 0.0;       // P(carry into the current block)
  double p[2][2] = {{1.0, 0.0}, {0.0, 0.0}};  // p[carry][err_so_far]
  unsigned offset = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const HeteroBlockSpec& block = blocks[i];
    const unsigned w = block.width;
    const bool top = i + 1 == blocks.size();
    if (block.kind == HeteroSubAdder::Truncated) {
      // E[a_i + b_i] = 2^w - 1; error whenever a_i + b_i > 0.
      model.med += (std::ldexp(1.0, static_cast<int>(w)) - 1.0) *
                   std::ldexp(1.0, static_cast<int>(offset));
      model.wce += ((1ull << (w + 1)) - 2) << offset;
      const double perr = 1.0 - std::ldexp(1.0, -2 * static_cast<int>(w));
      double next[2][2] = {{0, 0}, {0, 0}};
      for (int c = 0; c < 2; ++c) {
        for (int e = 0; e < 2; ++e) {
          next[0][1] += p[c][e] * (e ? 1.0 : perr);
          next[0][0] += p[c][e] * (e ? 0.0 : 1.0 - perr);
        }
      }
      p[0][0] = next[0][0];
      p[0][1] = next[0][1];
      p[1][0] = p[1][1] = 0.0;
      pc = 0.0;
    } else {
      const bool accurate = block.kind == HeteroSubAdder::Accurate;
      const bool dropped =
          !accurate ||
          (!top && blocks[i + 1].kind == HeteroSubAdder::Truncated);
      // P(carry-out | carry-in c) = P(a+b >= 2^w) + c * P(a+b = 2^w - 1)
      //                           = (2^w - 1)/2^(w+1) + c * 2^-w.
      const double q0 = (std::ldexp(1.0, static_cast<int>(w)) - 1.0) *
                        std::ldexp(1.0, -static_cast<int>(w) - 1);
      const double bump = std::ldexp(1.0, -static_cast<int>(w));
      const double q = q0 + pc * bump;
      if (dropped) {
        model.med += q * std::ldexp(1.0, static_cast<int>(offset + w));
        model.wce += 1ull << (offset + w);
      }
      double next[2][2] = {{0, 0}, {0, 0}};
      for (int c = 0; c < 2; ++c) {
        for (int e = 0; e < 2; ++e) {
          const double qc = c ? q0 + bump : q0;
          for (int co = 0; co < 2; ++co) {
            const double prob = p[c][e] * (co ? qc : 1.0 - qc);
            const int e2 = (e || (dropped && co)) ? 1 : 0;
            const int c2 = accurate ? co : 0;
            next[c2][e2] += prob;
          }
        }
      }
      for (int c = 0; c < 2; ++c) {
        for (int e = 0; e < 2; ++e) p[c][e] = next[c][e];
      }
      pc = accurate ? q : 0.0;
    }
    offset += w;
  }
  model.error_rate = p[0][1] + p[1][1];
  model.nmed =
      model.med / (std::ldexp(1.0, static_cast<int>(width) + 1) - 2.0);
  model.exact = model.wce == 0;
  return model;
}

}  // namespace axc::designspace
