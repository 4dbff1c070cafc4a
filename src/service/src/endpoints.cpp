#include "axc/service/endpoints.hpp"

#include <algorithm>
#include <string>

#include "axc/accel/sad.hpp"
#include "axc/arith/adder.hpp"
#include "axc/arith/multiplier.hpp"
#include "axc/core/pareto.hpp"
#include "axc/designspace/explorer.hpp"
#include "axc/error/evaluate.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/characterize.hpp"
#include "axc/logic/mul_netlists.hpp"
#include "axc/video/encoder.hpp"
#include "axc/video/sequence.hpp"

namespace axc::service {

namespace {

/// Raised by handlers on out-of-policy parameters; mapped to BadRequest.
class PolicyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void check(bool condition, const char* message) {
  if (!condition) throw PolicyError(message);
}

// --- Degrade-don't-drop ladder --------------------------------------------
//
// Each method maps (requested parameter, degrade level) to the cheaper
// effective parameter for that rung, clamped to a floor so level 255 is as
// safe as level 1. applied() is the level that actually changed
// something: a request already at the floor is served at level 0 and the
// client cannot tell it ever met the controller.
class Ladder {
 public:
  explicit Ladder(const DispatchOptions& options) : options_(options) {}

  unsigned eval_threads() const { return std::max(1u, options_.eval_threads); }
  unsigned applied() const { return applied_; }

  /// Quarters \p value per level, clamped below by min(value, floor).
  std::uint64_t quartering(std::uint64_t value, std::uint64_t floor) {
    if (level() == 0) return value;
    const unsigned shift = std::min(2 * level(), 63u);
    const std::uint64_t shed =
        std::max(std::min(value, floor), value >> shift);
    if (shed != value) apply();
    return shed;
  }

  /// Caps the exhaustive cutover so a degraded evaluation switches to
  /// (cheaper) sampling where the full-fidelity one enumerates.
  std::uint32_t exhaustive_bits(std::uint32_t bits) {
    if (level() == 0) return bits;
    const std::uint32_t cap = level() >= 2 ? DegradeFloors::kExhaustiveBitsL2
                                           : DegradeFloors::kExhaustiveBitsL1;
    if (bits <= cap) return bits;
    apply();
    return cap;
  }

  /// Halves the motion-search range per level, floor 1.
  std::uint8_t search_range(std::uint8_t range) {
    if (level() == 0) return range;
    const unsigned shift = std::min<unsigned>(level(), 7);
    const auto shed = static_cast<std::uint8_t>(
        std::max<unsigned>(1, static_cast<unsigned>(range) >> shift));
    if (shed != range) apply();
    return shed;
  }

  /// Drops the optional per-config power sim — the dominating cost of
  /// every design-space sweep — under degradation. The accuracy/area
  /// ranking is exact maths and survives; power_nw reads 0 and the level
  /// byte makes the substitution visible to the client.
  bool power_estimate(bool estimate_power) {
    if (level() == 0 || !estimate_power) return estimate_power;
    apply();
    return false;
  }

 private:
  unsigned level() const { return options_.degrade_level; }
  void apply() { applied_ = std::max(applied_, level()); }

  const DispatchOptions& options_;
  unsigned applied_ = 0;
};

// --- Shared design-space plumbing -----------------------------------------
//
// All four sweep endpoints answer the same three questions about a swept
// space, and core::rank_space answers them: which points lie on the
// area/error Pareto front, which single point maximizes accuracy, and
// which is the cheapest meeting an accuracy floor.

/// Builds the response for a swept \p space (entries carry a
/// core::DesignPoint `point`); \p fill copies each entry's
/// family-specific fields into its wire point.
template <class Response, class Space, class Fill>
Response rank_design_space(const Space& space, double min_accuracy,
                           Fill fill) {
  const core::Ranking ranking = core::rank_space(space, min_accuracy);
  Response response;
  response.points.resize(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    auto& point = response.points[i];
    fill(point, space[i]);
    point.area_ge = space[i].point.area_ge;
    point.power_nw = space[i].point.power_nw;
    point.accuracy_percent = space[i].point.accuracy_percent;
  }
  for (const std::size_t i : ranking.pareto_front) {
    response.points[i].on_pareto_front = true;
  }
  response.max_accuracy_index =
      static_cast<std::uint32_t>(ranking.max_accuracy_index);
  response.min_area_index = static_cast<std::uint32_t>(ranking.min_area_index);
  return response;
}

void check_min_accuracy(double min_accuracy, const char* message) {
  check(min_accuracy >= 0.0 && min_accuracy <= 100.0, message);
}

// --- Handlers: one `handle` overload per endpoint-table request type ------

CharacterizeResponse characterize(const logic::Netlist& netlist,
                                  std::uint64_t vectors, std::uint64_t seed,
                                  Ladder& ladder) {
  const logic::Characterization c = logic::characterize(
      netlist, std::nullopt,
      ladder.quartering(vectors, DegradeFloors::kMinCharacterizeVectors),
      seed);
  return {c.area_ge, c.power_nw, c.gate_count};
}

CharacterizeResponse handle(const CharacterizeAdderRequest& request,
                            Ladder& ladder) {
  check(request.width >= 1 &&
            request.width <= DispatchLimits::kMaxAdderWidth,
        "characterize_adder: width out of [1, 32]");
  check(request.vectors >= 1 &&
            request.vectors <= DispatchLimits::kMaxCharacterizeVectors,
        "characterize_adder: vectors out of [1, 65536]");
  logic::Netlist netlist;
  if (request.family == AdderFamily::Gear) {
    const arith::GeArConfig config{request.width, request.param_a,
                                   request.param_b};
    check(config.is_valid(),
          "characterize_adder: invalid GeAr(N, R, P) configuration");
    netlist = logic::gear_adder_netlist(config);
  } else {
    check(request.param_a <= request.width,
          "characterize_adder: approx_lsbs exceeds width");
    if (request.family == AdderFamily::Loa) {
      netlist = logic::ripple_adder_netlist(designspace::static_adder_cells(
          designspace::StaticAdderKind::Loa, request.width, request.param_a));
    } else if (request.family == AdderFamily::Etai) {
      netlist = logic::etai_adder_netlist(request.width, request.param_a);
    } else {
      const auto model = arith::RippleAdder::lsb_approximated(
          request.width, request.cell, request.param_a);
      netlist = logic::ripple_adder_netlist(model.cells());
    }
  }
  // Area/power only: quality questions go to evaluate_error, which scales
  // past the widths a truth-table reference could enumerate.
  return characterize(netlist, request.vectors, request.seed, ladder);
}

CharacterizeResponse handle(const CharacterizeMultiplierRequest& request,
                            Ladder& ladder) {
  check(request.width >= 2 && request.width <= 16 &&
            std::has_single_bit(request.width),
        "characterize_multiplier: width must be a power of two in [2, 16]");
  check(request.approx_lsbs <= 2 * request.width,
        "characterize_multiplier: approx_lsbs exceeds product width");
  check(request.vectors >= 1 &&
            request.vectors <= DispatchLimits::kMaxCharacterizeVectors,
        "characterize_multiplier: vectors out of [1, 65536]");
  logic::Netlist netlist;
  if (request.structure == MultiplierStructure::Recursive) {
    logic::MulNetlistSpec spec;
    spec.width = request.width;
    spec.block = request.block;
    spec.adder_cell = request.cell;
    spec.approx_lsbs = request.approx_lsbs;
    netlist = logic::multiplier_netlist(spec);
  } else {
    netlist = logic::wallace_netlist(request.width, request.cell,
                                     request.approx_lsbs);
  }
  return characterize(netlist, request.vectors, request.seed, ladder);
}

EvaluateErrorResponse handle(const EvaluateErrorRequest& request,
                             Ladder& ladder) {
  check(request.max_exhaustive_bits <= DispatchLimits::kMaxExhaustiveBits,
        "evaluate_error: max_exhaustive_bits out of [0, 24]");
  check(request.samples >= 1 &&
            request.samples <= DispatchLimits::kMaxSamples,
        "evaluate_error: samples out of [1, 2^24]");
  error::EvalOptions eval;
  eval.max_exhaustive_bits = ladder.exhaustive_bits(request.max_exhaustive_bits);
  eval.samples = ladder.quartering(request.samples, DegradeFloors::kMinSamples);
  eval.seed = request.seed;
  eval.threads = ladder.eval_threads();

  error::ErrorStats stats;
  if (request.target == EvalTarget::GearAdder) {
    check(request.gear.is_valid(),
          "evaluate_error: invalid GeAr(N, R, P) configuration");
    check(request.gear.n <= DispatchLimits::kMaxAdderWidth,
          "evaluate_error: width out of [1, 32]");
    check(request.correction_iterations <= 64,
          "evaluate_error: correction_iterations out of [0, 64]");
    const arith::GeArAdder adder(request.gear,
                                 request.correction_iterations);
    stats = error::evaluate_adder(adder, eval);
  } else {
    check(request.mul_width >= 2 && request.mul_width <= 16 &&
              std::has_single_bit(request.mul_width),
          "evaluate_error: width must be a power of two in [2, 16]");
    check(request.mul_approx_lsbs <= 2 * request.mul_width,
          "evaluate_error: approx_lsbs exceeds product width");
    arith::MultiplierConfig config;
    config.width = request.mul_width;
    config.block = request.mul_block;
    config.adder_cell = request.mul_cell;
    config.approx_lsbs = request.mul_approx_lsbs;
    const arith::ApproxMultiplier multiplier(config);
    stats = error::evaluate_multiplier(multiplier, eval);
  }
  return {stats.samples,
          stats.error_count,
          stats.max_error,
          stats.error_rate,
          stats.mean_error_distance,
          stats.normalized_med,
          stats.mean_relative_error,
          stats.mean_squared_error,
          stats.root_mean_squared_error,
          stats.exhaustive};
}

GearDesignSpaceResponse handle(const GearDesignSpaceRequest& request,
                               Ladder& ladder) {
  check(request.width >= 2 &&
            request.width <= DispatchLimits::kMaxGearSpaceWidth,
        "gear_design_space: width out of [2, 16]");
  check_min_accuracy(request.min_accuracy,
                     "gear_design_space: min_accuracy out of [0, 100]");
  designspace::SweepOptions sweep;
  sweep.estimate_power = ladder.power_estimate(request.estimate_power);
  return rank_design_space<GearDesignSpaceResponse>(
      designspace::explore_gear_space(request.width, request.min_p,
                                      request.include_exact, sweep),
      request.min_accuracy,
      [](GearDesignSpacePoint& point, const auto& entry) {
        point.r = entry.config.r;
        point.p = entry.config.p;
      });
}

HeteroAdderDesignSpaceResponse handle(
    const HeteroAdderDesignSpaceRequest& request, Ladder& ladder) {
  check(request.width >= 2 &&
            request.width <= DispatchLimits::kMaxHeteroSpaceWidth,
        "hetero_adder_design_space: width out of [2, 32]");
  check(request.block_width >= 1 &&
            request.block_width <= DispatchLimits::kMaxHeteroBlockWidth &&
            request.block_width <= request.width,
        "hetero_adder_design_space: block_width out of [1, min(width, 8)]");
  check_min_accuracy(request.min_accuracy,
                     "hetero_adder_design_space: min_accuracy out of [0, 100]");
  designspace::SweepOptions sweep;
  sweep.estimate_power = ladder.power_estimate(request.estimate_power);
  return rank_design_space<HeteroAdderDesignSpaceResponse>(
      designspace::explore_hetero_space(request.width, request.block_width,
                                        request.include_truncated, sweep),
      request.min_accuracy,
      [](HeteroAdderDesignSpacePoint& point, const auto& entry) {
        point.low_kind = entry.low_kind;
        point.approx_blocks = entry.approx_blocks;
        point.error_rate = entry.model.error_rate;
        point.med = entry.model.med;
        point.nmed = entry.model.nmed;
        point.wce = entry.model.wce;
      });
}

ArrayMulDesignSpaceResponse handle(const ArrayMulDesignSpaceRequest& request,
                                   Ladder& ladder) {
  check(request.width >= 2 &&
            request.width <= DispatchLimits::kMaxMulSpaceWidth,
        "array_mul_design_space: width out of [2, 16]");
  check(request.max_approx_columns <= 2 * request.width,
        "array_mul_design_space: max_approx_columns exceeds product width");
  check_min_accuracy(request.min_accuracy,
                     "array_mul_design_space: min_accuracy out of [0, 100]");
  designspace::SweepOptions sweep;
  sweep.estimate_power = ladder.power_estimate(request.estimate_power);
  return rank_design_space<ArrayMulDesignSpaceResponse>(
      designspace::explore_compressor_mul_space(
          request.width, request.max_approx_columns, sweep),
      request.min_accuracy,
      [](ArrayMulDesignSpacePoint& point, const auto& entry) {
        point.compressor = entry.kind;
        point.approx_columns = entry.approx_columns;
        point.error_rate_est = entry.model.error_rate_est;
        point.med_est = entry.model.med_est;
        point.nmed_est = entry.model.nmed_est;
        point.model_exact = entry.model.exact;
      });
}

StaticAdderDesignSpaceResponse handle(
    const StaticAdderDesignSpaceRequest& request, Ladder& ladder) {
  check(request.width >= 2 &&
            request.width <= DispatchLimits::kMaxStaticSpaceWidth,
        "static_adder_design_space: width out of [2, 32]");
  check(request.max_approx_lsbs <= request.width &&
            request.max_approx_lsbs <= DispatchLimits::kMaxStaticApproxLsbs,
        "static_adder_design_space: max_approx_lsbs out of [0, min(width, 10)]");
  check_min_accuracy(request.min_accuracy,
                     "static_adder_design_space: min_accuracy out of [0, 100]");
  designspace::SweepOptions sweep;
  sweep.estimate_power = ladder.power_estimate(request.estimate_power);
  return rank_design_space<StaticAdderDesignSpaceResponse>(
      designspace::explore_static_adder_space(request.width,
                                              request.max_approx_lsbs, sweep),
      request.min_accuracy,
      [](StaticAdderDesignSpacePoint& point, const auto& entry) {
        point.kind = entry.kind;
        point.approx_lsbs = entry.approx_lsbs;
        point.error_rate = entry.model.error_rate;
        point.med = entry.model.med;
        point.nmed = entry.model.nmed;
        point.wce = entry.model.wce;
      });
}

EncodeProbeResponse handle(const EncodeProbeRequest& request,
                           Ladder& ladder) {
  check(request.block_size >= 2 && request.block_size <= 16,
        "encode_probe: block_size out of [2, 16]");
  check(request.width >= request.block_size &&
            request.width <= DispatchLimits::kMaxProbeDim &&
            request.height >= request.block_size &&
            request.height <= DispatchLimits::kMaxProbeDim,
        "encode_probe: frame dimensions out of [block_size, 256]");
  check(request.width % request.block_size == 0 &&
            request.height % request.block_size == 0,
        "encode_probe: frame dimensions must be block_size multiples");
  check(request.frames >= 1 &&
            request.frames <= DispatchLimits::kMaxProbeFrames,
        "encode_probe: frames out of [1, 32]");
  check(request.objects <= 16, "encode_probe: objects out of [0, 16]");
  check(request.sad_variant <= 5,
        "encode_probe: sad_variant out of [0, 5] (0 = accurate)");
  check(request.approx_lsbs <= 8,
        "encode_probe: approx_lsbs out of [0, 8]");
  check(request.search_range >= 1 && request.search_range <= 16,
        "encode_probe: search_range out of [1, 16]");
  check(request.quant_step >= 1 && request.quant_step <= 255,
        "encode_probe: quant_step out of [1, 255]");

  video::SequenceConfig sc;
  sc.width = request.width;
  sc.height = request.height;
  sc.frames = request.frames;
  sc.objects = request.objects;
  sc.seed = request.sequence_seed;
  const video::Sequence sequence = video::generate_sequence(sc);

  const unsigned block_pixels =
      static_cast<unsigned>(request.block_size) * request.block_size;
  const accel::SadConfig sad_config =
      request.sad_variant == 0
          ? accel::accu_sad(block_pixels)
          : accel::apx_sad_variant(request.sad_variant, request.approx_lsbs,
                                   block_pixels);
  const accel::SadAccelerator sad(sad_config);

  video::EncoderConfig ec;
  ec.motion.block_size = request.block_size;
  ec.motion.search_range = ladder.search_range(request.search_range);
  ec.quant_step = request.quant_step;
  ec.threads = ladder.eval_threads();
  const video::EncodeStats stats = video::Encoder(ec, sad).encode(sequence);
  return {stats.total_bits, stats.bits_per_frame, stats.psnr_db,
          stats.sad_calls};
}

OkResponse handle(const PingRequest&, Ladder&) { return {}; }

OkResponse handle(const ShutdownRequest&, Ladder&) {
  throw PolicyError(
      "shutdown is transport-level (enable it on the TCP server)");
}

OkResponse handle(const CacheInsertRequest&, Ladder&) {
  // Server::submit intercepts replication seeds before dispatch; reaching
  // here means the transport lacks a Server (raw dispatch).
  throw PolicyError(
      "cache_insert is server-level (enable accept_cache_inserts)");
}

}  // namespace

Bytes dispatch(std::span<const std::uint8_t> request,
               const DispatchOptions& options) {
  const std::optional<RequestHeader> header = parse_request_header(request);
  if (!header) {
    return encode_error_response(Status::BadRequest,
                                 "unparseable request header");
  }
  const auto body = request.subspan(kRequestHeaderBytes);
  // Tracks the level each handler *actually* shed to; stamped into the Ok
  // response header so clients can see which ladder rung answered.
  Ladder ladder(options);
  try {
    Bytes response;
    visit_endpoint(header->endpoint, [&](auto spec) {
      using Request = typename decltype(spec)::Request;
      response = encode_response(handle(decode_body<Request>(body), ladder));
    });
    set_response_level(
        response, static_cast<std::uint8_t>(std::min(ladder.applied(), 255u)));
    return response;
  } catch (const PolicyError& e) {
    return encode_error_response(Status::BadRequest, e.what());
  } catch (const DecodeError& e) {
    return encode_error_response(Status::BadRequest, e.what());
  } catch (const std::invalid_argument& e) {
    // Library-layer precondition (require/AXC_REQUIRE): still the
    // caller's fault, not a server failure.
    return encode_error_response(Status::BadRequest, e.what());
  } catch (const std::exception& e) {
    return encode_error_response(Status::InternalError, e.what());
  }
}

}  // namespace axc::service
