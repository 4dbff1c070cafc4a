/// \file endpoints.hpp
/// The request executor: parses one canonical request, runs it against the
/// axc library layers (logic characterization, error evaluation, core
/// explorer, designspace sweeps, video encoder) and serializes the
/// response. Which handler runs, and which types it decodes and encodes,
/// comes from the endpoint's EndpointTable row (protocol.hpp); each
/// handler is one `handle` overload in endpoints.cpp.
///
/// dispatch() is deliberately a free function independent of the Server:
/// the worker pool calls it per job, tests call it directly, and custom
/// dispatchers (test gates, mocks) can replace it via ServerOptions.
#pragma once

#include <cstdint>
#include <span>

#include "axc/service/protocol.hpp"

namespace axc::service {

/// Per-job execution policy.
struct DispatchOptions {
  /// Worker threads *inside* one job (error::EvalOptions::threads /
  /// video::EncoderConfig::threads). The server defaults this to 1 —
  /// parallelism comes from running jobs concurrently — but every result
  /// is bit-identical for any value (the PR 2/3 thread-invariance
  /// contract), so operators may raise it for latency-sensitive
  /// deployments without perturbing cached responses.
  unsigned eval_threads = 1;
  /// Degrade-don't-drop rung requested by the server's OverloadController
  /// (0 = full fidelity). Each approximate endpoint maps the level to a
  /// cheaper configuration of itself — fewer stimulus vectors, sampled
  /// instead of exhaustive error evaluation, a narrower motion search —
  /// and the level *actually applied* is stamped into the response header
  /// (response_level). Endpoints with nothing to shed (ping, or a request
  /// already at the floor) answer at level 0 even when asked to degrade.
  unsigned degrade_level = 0;
};

/// Executes \p request, returning complete response bytes. Never throws:
/// malformed or out-of-policy requests yield a Status::BadRequest
/// response, handler failures a Status::InternalError response. Ping
/// returns an empty Ok; Shutdown is transport-level and answers
/// BadRequest here.
Bytes dispatch(std::span<const std::uint8_t> request,
               const DispatchOptions& options = {});

/// Request-validation caps, exposed for tests and documentation. Requests
/// beyond these bounds are rejected with BadRequest before any work runs
/// (an unbounded query could otherwise pin a worker for minutes).
struct DispatchLimits {
  static constexpr std::uint32_t kMaxAdderWidth = 32;
  static constexpr std::uint64_t kMaxCharacterizeVectors = 1u << 16;
  static constexpr std::uint32_t kMaxExhaustiveBits = 24;
  static constexpr std::uint64_t kMaxSamples = 1u << 24;
  static constexpr std::uint32_t kMaxGearSpaceWidth = 16;
  static constexpr std::uint32_t kMaxHeteroSpaceWidth = 32;
  static constexpr std::uint32_t kMaxHeteroBlockWidth = 8;
  static constexpr std::uint32_t kMaxMulSpaceWidth = 16;
  static constexpr std::uint32_t kMaxStaticSpaceWidth = 32;
  static constexpr std::uint32_t kMaxStaticApproxLsbs = 10;
  static constexpr std::uint16_t kMaxProbeDim = 256;
  static constexpr std::uint16_t kMaxProbeFrames = 32;
};

/// Floors the degrade ladder never crosses, exposed for tests and the
/// guardband discussion in DESIGN.md §9.
struct DegradeFloors {
  /// Stimulus vectors per power sim under degradation.
  static constexpr std::uint64_t kMinCharacterizeVectors = 64;
  /// Monte-Carlo samples per error evaluation under degradation.
  static constexpr std::uint64_t kMinSamples = 4096;
  /// Exhaustive-evaluation cutover at level 1 / level >= 2.
  static constexpr std::uint32_t kExhaustiveBitsL1 = 12;
  static constexpr std::uint32_t kExhaustiveBitsL2 = 8;
};

}  // namespace axc::service
