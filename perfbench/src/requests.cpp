#include "requests.hpp"

#include <type_traits>

namespace perfbench {

namespace svc = axc::service;

svc::Bytes encode(const AnyRequest& request) {
  return std::visit(
      [](const auto& r) {
        if constexpr (std::is_same_v<std::decay_t<decltype(r)>,
                                     std::monostate>) {
          return svc::encode_request(svc::Endpoint::Ping);
        } else {
          return svc::encode_request(r);
        }
      },
      request);
}

axc::arith::GeArConfig RequestSource::gear() {
  // A valid GeAr(N, R, P) has N = R + P + m*R.
  const auto r = 2 + static_cast<unsigned>(rng_.below(3));
  const auto p = 2 + static_cast<unsigned>(rng_.below(3));
  const auto m = 1 + static_cast<unsigned>(rng_.below(2));
  return {r + p + m * r, r, p};
}

AnyRequest RequestSource::next_typed() {
  const std::uint64_t k = count_++;
  // A random accuracy floor keeps design-space queries distinct across
  // sources as well as within one.
  const double floor = 50.0 + 40.0 * rng_.uniform();
  switch (k % families_) {
    case 0: {
      svc::CharacterizeAdderRequest r;
      r.family = static_cast<svc::AdderFamily>(rng_.below(4));
      if (r.family == svc::AdderFamily::Gear) {
        const axc::arith::GeArConfig g = gear();
        r.width = g.n;
        r.param_a = g.r;
        r.param_b = g.p;
      } else {
        r.width = 8 + static_cast<std::uint32_t>(rng_.below(5));
        r.param_a = 2 + static_cast<std::uint32_t>(rng_.below(3));
      }
      r.cell = static_cast<axc::arith::FullAdderKind>(1 + rng_.below(5));
      r.vectors = 2048;
      r.seed = rng_();
      return r;
    }
    case 1: {
      svc::CharacterizeMultiplierRequest r;
      r.structure = static_cast<svc::MultiplierStructure>(rng_.below(2));
      r.width = 8;
      r.block = static_cast<axc::arith::Mul2x2Kind>(rng_.below(3));
      r.cell = static_cast<axc::arith::FullAdderKind>(rng_.below(6));
      r.approx_lsbs = static_cast<std::uint32_t>(rng_.below(5));
      r.vectors = 2048;
      r.seed = rng_();
      return r;
    }
    case 2: {
      svc::EvaluateErrorRequest r;
      r.target = svc::EvalTarget::GearAdder;
      r.gear = gear();
      r.max_exhaustive_bits = 8;  // sample, never enumerate
      r.samples = 1u << 15;
      r.seed = rng_();
      return r;
    }
    case 3: {
      svc::GearDesignSpaceRequest r;
      r.width = 6 + static_cast<std::uint32_t>(rng_.below(5));
      r.min_accuracy = floor;
      return r;
    }
    case 4: {
      svc::HeteroAdderDesignSpaceRequest r;
      r.width = 12 + static_cast<std::uint32_t>(rng_.below(5));
      r.include_truncated = rng_.below(2) == 1;
      r.min_accuracy = floor;
      return r;
    }
    case 5: {
      svc::ArrayMulDesignSpaceRequest r;
      r.width = 4 + static_cast<std::uint32_t>(rng_.below(5));
      r.max_approx_columns = 4;
      r.min_accuracy = floor;
      return r;
    }
    case 6: {
      svc::StaticAdderDesignSpaceRequest r;
      r.width = 12 + static_cast<std::uint32_t>(rng_.below(5));
      r.max_approx_lsbs = 6;
      r.min_accuracy = floor;
      return r;
    }
    default: {
      svc::EncodeProbeRequest r;
      r.width = 32;
      r.height = 32;
      r.frames = 3;
      r.sequence_seed = rng_();
      r.sad_variant = static_cast<std::uint8_t>(rng_.below(6));
      r.approx_lsbs = r.sad_variant == 0 ? 0 : 2;
      return r;
    }
  }
}

}  // namespace perfbench
