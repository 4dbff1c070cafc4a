// Seeded generator of distinct service requests, shared by the service
// workloads: sweep_cold sends each once, serve_hot draws its small hot pool
// from it.
#pragma once

#include <cstdint>
#include <variant>

#include "axc/common/rng.hpp"
#include "axc/service/protocol.hpp"

namespace perfbench {

/// characterize_adder, characterize_multiplier, evaluate_error and the
/// gear, hetero, array-mul and static design-space queries.
inline constexpr int kComputeFamilies = 7;
/// The compute families plus encode_probe: every cacheable endpoint.
inline constexpr int kAllFamilies = 8;

/// A typed request of any family; std::monostate is a ping.
using AnyRequest =
    std::variant<std::monostate, axc::service::CharacterizeAdderRequest,
                 axc::service::CharacterizeMultiplierRequest,
                 axc::service::EvaluateErrorRequest,
                 axc::service::GearDesignSpaceRequest,
                 axc::service::HeteroAdderDesignSpaceRequest,
                 axc::service::ArrayMulDesignSpaceRequest,
                 axc::service::StaticAdderDesignSpaceRequest,
                 axc::service::EncodeProbeRequest>;

/// Wire bytes of \p request (service::encode_request).
axc::service::Bytes encode(const AnyRequest& request);

/// Every request is distinct. Families rotate in a fixed order, so every
/// run computes the same mix; parameters and seeds come from the workload
/// seed, and the design-space queries (which have no seed field) carry a
/// random accuracy floor.
class RequestSource {
 public:
  /// Draws from the first \p families families of the rotation.
  RequestSource(std::uint64_t seed, int families)
      : rng_(seed), families_(static_cast<std::uint64_t>(families)) {}

  AnyRequest next_typed();
  axc::service::Bytes next() { return encode(next_typed()); }

 private:
  axc::arith::GeArConfig gear();

  axc::Rng rng_;
  std::uint64_t families_;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
