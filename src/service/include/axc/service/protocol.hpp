/// \file protocol.hpp
/// Wire protocol of the axc design-space service.
///
/// The paper's methodology (Fig. 7) is a query workflow — "characterize
/// this configuration, evaluate its error metrics, rank the design space"
/// — and at production scale those queries arrive as traffic, not as
/// one-shot binaries. This file defines the typed request/response
/// vocabulary that axc::service::Server executes and both transports
/// (loopback, TCP) carry, and the one endpoint table everything else is
/// derived from (see EndpointTable).
///
/// Encoding rules (the *canonical serialization*):
///  - every struct lists its wire fields once, in a static
///    `fields(self, v)` visitor; that one list drives both encode and
///    decode, so a round trip is correct by construction;
///  - every integer is fixed-width little-endian; doubles travel as the
///    IEEE-754 bit pattern in a u64; bools and enums are one byte; a list
///    is [count u32][elements] — so a given typed request has exactly
///    one byte representation and responses are byte-identical across
///    platforms and worker-thread counts;
///  - decode is strict, so every accepted byte string re-encodes to
///    itself: enums are range-checked, bools must be 0 or 1, a list count
///    must fit in the bytes that remain, and trailing bytes are rejected;
///  - a request is  [version u8][endpoint u8][deadline_ms u32][body];
///  - a response is [version u8][status u8][served_level u8][body], where
///    the body is the endpoint's typed payload on Status::Ok and a
///    length-prefixed UTF-8 message otherwise. served_level is the
///    degrade-don't-drop tag (0 = full fidelity): under overload the
///    server walks approximate endpoints down an accuracy ladder instead
///    of rejecting, and the level byte tells the client which rung
///    actually answered (see overload.hpp);
///  - the result-cache key covers every request byte *except* the
///    deadline field (canonical_request_bytes strips it), so the same
///    query with a different deadline still hits the cache.
///
/// Transports frame payloads as [length u32 LE][payload], length capped at
/// kMaxFrameBytes (a rogue peer cannot trigger a giant allocation).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "axc/arith/full_adder.hpp"
#include "axc/arith/gear.hpp"
#include "axc/arith/mul2x2.hpp"
#include "axc/designspace/compressor_mul.hpp"
#include "axc/designspace/hetero_adder.hpp"
#include "axc/designspace/static_adder.hpp"

namespace axc::service {

using Bytes = std::vector<std::uint8_t>;

inline constexpr std::uint8_t kProtocolVersion = 2;

/// Hard ceiling on one framed payload (requests and responses).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 22;

/// The service surface. Values are wire-stable; append only, and give
/// every new value one row in EndpointTable.
enum class Endpoint : std::uint8_t {
  CharacterizeAdder = 1,       ///< gate-level area/power of an adder config
  CharacterizeMultiplier = 2,  ///< gate-level area/power of a multiplier
  EvaluateError = 3,           ///< MED/ER/WCE/... of a config (Sec. 4-5)
  GearDesignSpace = 4,         ///< Table IV / Fig. 4 Pareto query
  EncodeProbe = 5,             ///< Fig. 9 SAD/encode micro-job
  Ping = 6,                    ///< health check, empty body
  Shutdown = 7,                ///< transport-level graceful stop (opt-in)
  CacheInsert = 8,             ///< cluster replication: seed a cache entry
  HeteroAdderDesignSpace = 9,   ///< heterogeneous block-adder Pareto query
  ArrayMulDesignSpace = 10,     ///< 4:2-compressor array-multiplier query
  StaticAdderDesignSpace = 11,  ///< LOA/LOAWA/HEAA static-adder query
};

/// Response status. Values are wire-stable; append only.
enum class Status : std::uint8_t {
  Ok = 0,
  BadRequest = 1,        ///< malformed or out-of-policy request
  Overloaded = 2,        ///< job queue full — explicit backpressure
  DeadlineExceeded = 3,  ///< expired in queue before a worker picked it up
  ShuttingDown = 4,      ///< server is draining; not accepting new work
  InternalError = 5,     ///< handler threw; message carries the what()
};

/// "characterize_adder", "ping", ... (used for obs instrument names and
/// the axc_client command line). Unknown values map to "unknown".
std::string_view endpoint_name(Endpoint endpoint);

/// "ok", "bad_request", ... Unknown values map to "unknown".
std::string_view status_name(Status status);

/// Thrown by decode helpers on truncated/inconsistent payloads.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by the typed client when a response carries a non-Ok status.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(Status status, const std::string& message);
  Status status() const { return status_; }

 private:
  Status status_;
};

// --- Wire enums -----------------------------------------------------------
//
// wire_enum_max(E) is the largest valid raw value of each enum that
// travels on the wire; decode rejects anything above it.

/// Adder family selector for CharacterizeAdder.
enum class AdderFamily : std::uint8_t {
  Gear = 0,    ///< GeAr(n, r, p) — param_a = R, param_b = P
  Loa = 1,     ///< LOA(width, approx_lsbs) — param_a = approx_lsbs
  Etai = 2,    ///< ETAII(width, approx_lsbs) — param_a = approx_lsbs
  Ripple = 3,  ///< ripple with `cell` in the low param_a positions
};

/// Multiplier structure selector for CharacterizeMultiplier.
enum class MultiplierStructure : std::uint8_t {
  Recursive = 0,  ///< recursive 2x2-block build-up (Fig. 6)
  Wallace = 1,    ///< Wallace tree with approximate compressors
};

/// Target selector for EvaluateError.
enum class EvalTarget : std::uint8_t {
  GearAdder = 0,   ///< GeArAdder(gear, correction_iterations)
  Multiplier = 1,  ///< recursive ApproxMultiplier(mul config)
};

constexpr std::uint8_t wire_enum_max(AdderFamily) { return 3; }
constexpr std::uint8_t wire_enum_max(MultiplierStructure) { return 1; }
constexpr std::uint8_t wire_enum_max(EvalTarget) { return 1; }
constexpr std::uint8_t wire_enum_max(arith::FullAdderKind) {
  return arith::kFullAdderKindCount - 1;
}
constexpr std::uint8_t wire_enum_max(arith::Mul2x2Kind) {
  return arith::kMul2x2KindCount - 1;
}
constexpr std::uint8_t wire_enum_max(designspace::HeteroSubAdder) {
  return static_cast<std::uint8_t>(designspace::HeteroSubAdder::Truncated);
}
constexpr std::uint8_t wire_enum_max(designspace::CompressorKind) {
  return static_cast<std::uint8_t>(designspace::CompressorKind::OrPair);
}
constexpr std::uint8_t wire_enum_max(designspace::StaticAdderKind) {
  return static_cast<std::uint8_t>(designspace::StaticAdderKind::Heaa);
}

// --- Typed requests and responses -----------------------------------------
//
// `fields(self, v)` calls v(name, field) once per wire field, in wire
// order. Self is the struct (decode) or the const struct (encode).

struct CharacterizeAdderRequest {
  AdderFamily family = AdderFamily::Gear;
  std::uint32_t width = 8;    ///< operand width N
  std::uint32_t param_a = 2;  ///< R / approx_lsbs (see AdderFamily)
  std::uint32_t param_b = 2;  ///< P (GeAr only)
  arith::FullAdderKind cell = arith::FullAdderKind::Accurate;  ///< Ripple
  std::uint64_t vectors = 1024;  ///< power-sim stimulus vectors
  std::uint64_t seed = 1;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("family", s.family)("width", s.width)("param_a", s.param_a)(
        "param_b", s.param_b)("cell", s.cell)("vectors", s.vectors)(
        "seed", s.seed);
  }
};

struct CharacterizeMultiplierRequest {
  MultiplierStructure structure = MultiplierStructure::Recursive;
  std::uint32_t width = 8;  ///< power of two in [2, 16]
  arith::Mul2x2Kind block = arith::Mul2x2Kind::Accurate;  ///< Recursive only
  arith::FullAdderKind cell = arith::FullAdderKind::Accurate;
  std::uint32_t approx_lsbs = 0;
  std::uint64_t vectors = 1024;
  std::uint64_t seed = 1;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("structure", s.structure)("width", s.width)("block", s.block)(
        "cell", s.cell)("approx_lsbs", s.approx_lsbs)("vectors", s.vectors)(
        "seed", s.seed);
  }
};

struct CharacterizeResponse {
  double area_ge = 0.0;
  double power_nw = 0.0;
  std::uint64_t gate_count = 0;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("area_ge", s.area_ge)("power_nw", s.power_nw)("gate_count",
                                                     s.gate_count);
  }
};

struct EvaluateErrorRequest {
  EvalTarget target = EvalTarget::GearAdder;
  // GearAdder fields.
  arith::GeArConfig gear{8, 2, 2};
  std::uint32_t correction_iterations = 0;
  // Multiplier fields.
  std::uint32_t mul_width = 8;
  arith::Mul2x2Kind mul_block = arith::Mul2x2Kind::Accurate;
  arith::FullAdderKind mul_cell = arith::FullAdderKind::Accurate;
  std::uint32_t mul_approx_lsbs = 0;
  // Evaluation policy (error::EvalOptions without the thread knob — worker
  // parallelism is a server policy, never part of the query identity).
  std::uint32_t max_exhaustive_bits = 20;
  std::uint64_t samples = 1u << 16;
  std::uint64_t seed = 0xA5C0FFEEULL;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("target", s.target)("gear_n", s.gear.n)("gear_r", s.gear.r)(
        "gear_p", s.gear.p)("correction_iterations", s.correction_iterations)(
        "mul_width", s.mul_width)("mul_block", s.mul_block)(
        "mul_cell", s.mul_cell)("mul_approx_lsbs", s.mul_approx_lsbs)(
        "max_exhaustive_bits", s.max_exhaustive_bits)("samples", s.samples)(
        "seed", s.seed);
  }
};

struct EvaluateErrorResponse {
  std::uint64_t samples = 0;
  std::uint64_t error_count = 0;
  std::uint64_t max_error = 0;
  double error_rate = 0.0;
  double mean_error_distance = 0.0;
  double normalized_med = 0.0;
  double mean_relative_error = 0.0;
  double mean_squared_error = 0.0;
  double root_mean_squared_error = 0.0;
  bool exhaustive = false;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("samples", s.samples)("error_count", s.error_count)(
        "max_error", s.max_error)("error_rate", s.error_rate)(
        "mean_error_distance", s.mean_error_distance)(
        "normalized_med", s.normalized_med)(
        "mean_relative_error", s.mean_relative_error)(
        "mean_squared_error", s.mean_squared_error)(
        "root_mean_squared_error", s.root_mean_squared_error)(
        "exhaustive", s.exhaustive);
  }
};

struct GearDesignSpaceRequest {
  std::uint32_t width = 11;       ///< operand width N (Table IV uses 11)
  std::uint32_t min_p = 1;        ///< prediction-width floor
  bool include_exact = false;     ///< add the degenerate L == N point
  bool estimate_power = false;    ///< run the (slow) power sim per config
  double min_accuracy = 90.0;     ///< constraint for min_area_index

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("width", s.width)("min_p", s.min_p)("include_exact", s.include_exact)(
        "estimate_power", s.estimate_power)("min_accuracy", s.min_accuracy);
  }
};

struct GearDesignSpacePoint {
  std::uint32_t r = 0;
  std::uint32_t p = 0;
  double area_ge = 0.0;
  double power_nw = 0.0;
  double accuracy_percent = 0.0;
  bool on_pareto_front = false;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("r", s.r)("p", s.p)("area_ge", s.area_ge)("power_nw", s.power_nw)(
        "accuracy_percent", s.accuracy_percent)("on_pareto_front",
                                                s.on_pareto_front);
  }
};

/// Every design-space response is a point list (in sweep order) plus the
/// two selection queries; an index of points.size() means none/infeasible.
template <class Point>
struct DesignSpaceResponse {
  std::vector<Point> points;
  std::uint32_t max_accuracy_index = 0;
  std::uint32_t min_area_index = 0;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("points", s.points)("max_accuracy_index", s.max_accuracy_index)(
        "min_area_index", s.min_area_index);
  }
};

using GearDesignSpaceResponse = DesignSpaceResponse<GearDesignSpacePoint>;

/// The three designspace sweeps share the gear endpoint's shape: a small
/// request describing a configuration grid, a response listing every
/// point with its analytic error figures and Pareto marking.

struct HeteroAdderDesignSpaceRequest {
  std::uint32_t width = 16;        ///< operand width N
  std::uint32_t block_width = 4;   ///< bits per block (top takes remainder)
  bool include_truncated = true;   ///< also sweep Truncated low blocks
  bool estimate_power = false;     ///< run the power sim per config
  double min_accuracy = 90.0;      ///< constraint for min_area_index

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("width", s.width)("block_width", s.block_width)(
        "include_truncated", s.include_truncated)(
        "estimate_power", s.estimate_power)("min_accuracy", s.min_accuracy);
  }
};

struct HeteroAdderDesignSpacePoint {
  designspace::HeteroSubAdder low_kind = designspace::HeteroSubAdder::Accurate;
  std::uint32_t approx_blocks = 0;  ///< low blocks of low_kind
  double area_ge = 0.0;
  double power_nw = 0.0;
  double accuracy_percent = 0.0;  ///< 100 * (1 - error_rate)
  double error_rate = 0.0;        ///< closed-form, exact
  double med = 0.0;               ///< closed-form, exact
  double nmed = 0.0;
  std::uint64_t wce = 0;
  bool on_pareto_front = false;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("low_kind", s.low_kind)("approx_blocks", s.approx_blocks)(
        "area_ge", s.area_ge)("power_nw", s.power_nw)(
        "accuracy_percent", s.accuracy_percent)("error_rate", s.error_rate)(
        "med", s.med)("nmed", s.nmed)("wce", s.wce)("on_pareto_front",
                                                     s.on_pareto_front);
  }
};

using HeteroAdderDesignSpaceResponse =
    DesignSpaceResponse<HeteroAdderDesignSpacePoint>;

struct ArrayMulDesignSpaceRequest {
  std::uint32_t width = 8;              ///< operand width N in [2, 16]
  std::uint32_t max_approx_columns = 8; ///< sweep 1..this per compressor
  bool estimate_power = false;
  double min_accuracy = 90.0;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("width", s.width)("max_approx_columns", s.max_approx_columns)(
        "estimate_power", s.estimate_power)("min_accuracy", s.min_accuracy);
  }
};

struct ArrayMulDesignSpacePoint {
  designspace::CompressorKind compressor = designspace::CompressorKind::Exact42;
  std::uint32_t approx_columns = 0;
  double area_ge = 0.0;
  double power_nw = 0.0;
  double accuracy_percent = 0.0;  ///< 100 * (1 - error_rate_est)
  double error_rate_est = 0.0;    ///< probabilistic (see MulErrorModel)
  double med_est = 0.0;
  double nmed_est = 0.0;
  bool model_exact = false;  ///< estimates are exact zeros for this point
  bool on_pareto_front = false;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("compressor", s.compressor)("approx_columns", s.approx_columns)(
        "area_ge", s.area_ge)("power_nw", s.power_nw)(
        "accuracy_percent", s.accuracy_percent)(
        "error_rate_est", s.error_rate_est)("med_est", s.med_est)(
        "nmed_est", s.nmed_est)("model_exact", s.model_exact)(
        "on_pareto_front", s.on_pareto_front);
  }
};

using ArrayMulDesignSpaceResponse =
    DesignSpaceResponse<ArrayMulDesignSpacePoint>;

struct StaticAdderDesignSpaceRequest {
  std::uint32_t width = 16;          ///< operand width N
  std::uint32_t max_approx_lsbs = 8; ///< sweep 1..this per family
  bool estimate_power = false;
  double min_accuracy = 90.0;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("width", s.width)("max_approx_lsbs", s.max_approx_lsbs)(
        "estimate_power", s.estimate_power)("min_accuracy", s.min_accuracy);
  }
};

struct StaticAdderDesignSpacePoint {
  designspace::StaticAdderKind kind = designspace::StaticAdderKind::Loa;
  std::uint32_t approx_lsbs = 0;
  double area_ge = 0.0;
  double power_nw = 0.0;
  double accuracy_percent = 0.0;
  double error_rate = 0.0;  ///< exact (4^k enumeration)
  double med = 0.0;
  double nmed = 0.0;
  std::uint64_t wce = 0;
  bool on_pareto_front = false;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("kind", s.kind)("approx_lsbs", s.approx_lsbs)("area_ge", s.area_ge)(
        "power_nw", s.power_nw)("accuracy_percent", s.accuracy_percent)(
        "error_rate", s.error_rate)("med", s.med)("nmed", s.nmed)(
        "wce", s.wce)("on_pareto_front", s.on_pareto_front);
  }
};

using StaticAdderDesignSpaceResponse =
    DesignSpaceResponse<StaticAdderDesignSpacePoint>;

struct EncodeProbeRequest {
  std::uint16_t width = 64;
  std::uint16_t height = 64;
  std::uint16_t frames = 4;
  std::uint16_t objects = 2;
  std::uint64_t sequence_seed = 42;
  std::uint8_t sad_variant = 0;  ///< 0 = accurate, 1..5 = ApxSAD1..5
  std::uint8_t approx_lsbs = 0;
  std::uint8_t block_size = 8;
  std::uint8_t search_range = 2;
  std::uint16_t quant_step = 8;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("width", s.width)("height", s.height)("frames", s.frames)(
        "objects", s.objects)("sequence_seed", s.sequence_seed)(
        "sad_variant", s.sad_variant)("approx_lsbs", s.approx_lsbs)(
        "block_size", s.block_size)("search_range", s.search_range)(
        "quant_step", s.quant_step);
  }
};

struct EncodeProbeResponse {
  std::uint64_t total_bits = 0;
  double bits_per_frame = 0.0;
  double psnr_db = 0.0;
  std::uint64_t sad_calls = 0;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("total_bits", s.total_bits)("bits_per_frame", s.bits_per_frame)(
        "psnr_db", s.psnr_db)("sad_calls", s.sad_calls);
  }
};

/// Body-less requests and the body-less Ok response.
struct PingRequest {
  template <class Self, class V>
  static void fields(Self&, V&) {}
};
struct ShutdownRequest {
  template <class Self, class V>
  static void fields(Self&, V&) {}
};
struct OkResponse {
  template <class Self, class V>
  static void fields(Self&, V&) {}
};

namespace wire {
/// The bytes after the last length-delimited field, unprefixed.
template <class B>
struct Rest {
  B& bytes;
};
template <class B>
Rest<B> rest(B& bytes) {
  return {bytes};
}
}  // namespace wire

/// Cluster replication (Endpoint::CacheInsert): one replicated cache
/// entry — the canonical bytes of the original request (version +
/// endpoint + body, deadline stripped) and its full-fidelity Ok response.
/// Carried as the body [canonical_len u32][canonical][response]; the
/// receiving server validates both halves before seeding its result cache
/// (see ServerOptions::accept_cache_inserts).
struct CacheInsertRequest {
  Bytes canonical;
  Bytes response;

  template <class Self, class V>
  static void fields(Self& s, V& v) {
    v("canonical", s.canonical)("response", wire::rest(s.response));
  }
};

// --- The endpoint table ---------------------------------------------------

/// A string literal usable as a template argument.
template <std::size_t N>
struct FixedName {
  char text[N];
  constexpr FixedName(const char (&s)[N]) {
    std::copy_n(s, N, text);
  }
};

/// One row of the endpoint table. Cacheable endpoints are pure functions
/// of their canonical bytes: the server caches their full-fidelity
/// answers and accepts replicated entries for them. The server-side
/// handler is the `handle` overload for Request in endpoints.cpp.
template <Endpoint Id, FixedName Name, class Req, class Resp, bool Cacheable>
struct EndpointSpec {
  static constexpr Endpoint id = Id;
  static constexpr std::string_view name{Name.text};
  using Request = Req;
  using Response = Resp;
  static constexpr bool cacheable = Cacheable;
};

/// Every endpoint, once. The codec, dispatch, the server's cacheability
/// and CacheInsert validation, the per-endpoint obs instruments and every
/// client derive from this list.
using EndpointTable = std::tuple<
    EndpointSpec<Endpoint::CharacterizeAdder, "characterize_adder",
                 CharacterizeAdderRequest, CharacterizeResponse, true>,
    EndpointSpec<Endpoint::CharacterizeMultiplier, "characterize_multiplier",
                 CharacterizeMultiplierRequest, CharacterizeResponse, true>,
    EndpointSpec<Endpoint::EvaluateError, "evaluate_error",
                 EvaluateErrorRequest, EvaluateErrorResponse, true>,
    EndpointSpec<Endpoint::GearDesignSpace, "gear_design_space",
                 GearDesignSpaceRequest, GearDesignSpaceResponse, true>,
    EndpointSpec<Endpoint::EncodeProbe, "encode_probe", EncodeProbeRequest,
                 EncodeProbeResponse, true>,
    EndpointSpec<Endpoint::Ping, "ping", PingRequest, OkResponse, false>,
    EndpointSpec<Endpoint::Shutdown, "shutdown", ShutdownRequest, OkResponse,
                 false>,
    EndpointSpec<Endpoint::CacheInsert, "cache_insert", CacheInsertRequest,
                 OkResponse, false>,
    EndpointSpec<Endpoint::HeteroAdderDesignSpace,
                 "hetero_adder_design_space", HeteroAdderDesignSpaceRequest,
                 HeteroAdderDesignSpaceResponse, true>,
    EndpointSpec<Endpoint::ArrayMulDesignSpace, "array_mul_design_space",
                 ArrayMulDesignSpaceRequest, ArrayMulDesignSpaceResponse,
                 true>,
    EndpointSpec<Endpoint::StaticAdderDesignSpace,
                 "static_adder_design_space", StaticAdderDesignSpaceRequest,
                 StaticAdderDesignSpaceResponse, true>>;

/// Calls f(spec) for every row, in table order.
template <class F>
constexpr void for_each_endpoint(F&& f) {
  [&]<class... Spec>(std::tuple<Spec...>*) {
    (f(Spec{}), ...);
  }(static_cast<EndpointTable*>(nullptr));
}

/// Calls f(spec) for the row of \p id; false when no row has that id.
template <class F>
constexpr bool visit_endpoint(Endpoint id, F&& f) {
  bool found = false;
  for_each_endpoint([&](auto spec) {
    if (decltype(spec)::id == id) {
      found = true;
      f(spec);
    }
  });
  return found;
}

namespace detail {
template <class Req, class... Spec>
constexpr std::size_t spec_index(std::tuple<Spec...>*) {
  constexpr bool match[] = {std::is_same_v<Req, typename Spec::Request>...};
  for (std::size_t i = 0; i < sizeof...(Spec); ++i) {
    if (match[i]) return i;
  }
  return sizeof...(Spec);
}
template <class Resp, class... Spec>
constexpr bool has_response(std::tuple<Spec...>*) {
  return (std::is_same_v<Resp, typename Spec::Response> || ...);
}
template <class Req>
inline constexpr std::size_t kSpecIndex =
    spec_index<Req>(static_cast<EndpointTable*>(nullptr));
}  // namespace detail

template <class T>
concept WireRequest =
    detail::kSpecIndex<T> < std::tuple_size_v<EndpointTable>;
template <class T>
concept WireResponse =
    detail::has_response<T>(static_cast<EndpointTable*>(nullptr));

/// The table row of a request type, and its response type.
template <WireRequest Req>
using SpecOf = std::tuple_element_t<detail::kSpecIndex<Req>, EndpointTable>;
template <WireRequest Req>
using ResponseOf = typename SpecOf<Req>::Response;

// --- Codec ----------------------------------------------------------------

namespace wire {

template <class T>
void put_int(Bytes& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
inline void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }
inline void put_u32(Bytes& out, std::uint32_t v) { put_int(out, v); }
inline void put_f64(Bytes& out, double v) {
  put_int(out, std::bit_cast<std::uint64_t>(v));
}

/// Sequential reader over a payload; every getter throws DecodeError on
/// underrun so truncated frames surface as BadRequest, never as UB.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  template <class T>
  T get_int() {
    const auto b = take(sizeof(T));
    T v = 0;
    for (std::size_t i = sizeof(T); i-- > 0;) {
      v = static_cast<T>((static_cast<std::uint64_t>(v) << 8) | b[i]);
    }
    return v;
  }
  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() { return get_int<std::uint32_t>(); }
  double f64() { return std::bit_cast<double>(get_int<std::uint64_t>()); }
  std::string string() {
    const auto b = take(u32());
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  std::span<const std::uint8_t> rest() { return take(remaining()); }
  std::size_t remaining() const { return data_.size() - pos_; }
  void expect_done() const {
    if (remaining() != 0) throw DecodeError("trailing bytes after payload");
  }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) throw DecodeError("truncated payload");
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

template <class T>
struct is_vector : std::false_type {};
template <class T>
struct is_vector<std::vector<T>> : std::true_type {};
template <class T>
struct is_rest : std::false_type {};
template <class B>
struct is_rest<Rest<B>> : std::true_type {};

template <class T>
std::size_t min_wire_size();

/// Encoding visitor: appends each field in canonical form.
class Encoder {
 public:
  explicit Encoder(Bytes& out) : out_(out) {}

  template <class T>
  Encoder& operator()(const char*, const T& value) {
    put(value);
    return *this;
  }

  template <class T>
  void put(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      put_u8(out_, value ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      put_u8(out_, static_cast<std::uint8_t>(value));
    } else if constexpr (std::is_same_v<T, double>) {
      put_f64(out_, value);
    } else if constexpr (std::is_integral_v<T>) {
      put_int(out_, value);
    } else if constexpr (is_vector<T>::value) {
      put_u32(out_, static_cast<std::uint32_t>(value.size()));
      out_.reserve(out_.size() +
                   value.size() * min_wire_size<typename T::value_type>());
      for (const auto& element : value) put(element);
    } else if constexpr (is_rest<T>::value) {
      out_.insert(out_.end(), value.bytes.begin(), value.bytes.end());
    } else {
      T::fields(value, *this);
    }
  }

 private:
  Bytes& out_;
};

/// Decoding visitor: the strict inverse of Encoder.
class Decoder {
 public:
  explicit Decoder(Reader& in) : in_(in) {}

  template <class T>
  Decoder& operator()(const char* name, T&& value) {
    get(name, value);
    return *this;
  }

  template <class T>
  void get(const char* name, T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      const std::uint8_t raw = in_.u8();
      if (raw > 1) invalid(name, raw);
      value = raw == 1;
    } else if constexpr (std::is_enum_v<T>) {
      const std::uint8_t raw = in_.u8();
      if (raw > wire_enum_max(T{})) invalid(name, raw);
      value = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, double>) {
      value = in_.f64();
    } else if constexpr (std::is_integral_v<T>) {
      value = in_.get_int<T>();
    } else if constexpr (is_vector<T>::value) {
      using Element = typename T::value_type;
      const std::uint32_t count = in_.u32();
      if (count > in_.remaining() / min_wire_size<Element>()) {
        throw DecodeError(std::string(name) + ": list count " +
                          std::to_string(count) + " exceeds the payload");
      }
      value.assign(count, Element{});
      for (Element& element : value) get(name, element);
    } else if constexpr (is_rest<T>::value) {
      const auto rest = in_.rest();
      value.bytes.assign(rest.begin(), rest.end());
    } else {
      T::fields(value, *this);
    }
  }

 private:
  [[noreturn]] static void invalid(const char* name, std::uint8_t raw) {
    throw DecodeError(std::string("invalid ") + name + " value " +
                      std::to_string(raw));
  }

  Reader& in_;
};

/// Encoded size of a default T: the exact size of fixed-size structs, a
/// lower bound (empty lists) otherwise. Never 0 for a list element.
template <class T>
std::size_t min_wire_size() {
  static const std::size_t size = [] {
    Bytes out;
    Encoder(out).put(T{});
    return std::max<std::size_t>(out.size(), 1);
  }();
  return size;
}

/// [version][endpoint][deadline_ms], reserving room for a body.
Bytes request_prefix(Endpoint endpoint, std::uint32_t deadline_ms,
                     std::size_t body_bytes);
/// [version][status][served_level = 0].
Bytes response_prefix(Status status);
/// The body of an Ok response; throws ServiceError for transported
/// non-Ok statuses and DecodeError for a malformed header.
std::span<const std::uint8_t> ok_body(std::span<const std::uint8_t> response);

/// Strict decode of one typed payload that spans all of \p bytes.
template <class T>
T decode(std::span<const std::uint8_t> bytes) {
  Reader reader(bytes);
  T value;
  Decoder(reader).get("payload", value);
  reader.expect_done();
  return value;
}

}  // namespace wire

// --- Requests -------------------------------------------------------------

struct RequestHeader {
  std::uint8_t version = kProtocolVersion;
  Endpoint endpoint = Endpoint::Ping;
  std::uint32_t deadline_ms = 0;  ///< 0 = no deadline
};

inline constexpr std::size_t kRequestHeaderBytes = 6;

/// Parses the fixed header; nullopt when truncated, unknown version or
/// an endpoint without a table row (the server answers BadRequest).
std::optional<RequestHeader> parse_request_header(
    std::span<const std::uint8_t> request);

template <WireRequest Req>
Bytes encode_request(const Req& request, std::uint32_t deadline_ms = 0) {
  Bytes out = wire::request_prefix(SpecOf<Req>::id, deadline_ms,
                                   wire::min_wire_size<Req>());
  wire::Encoder(out).put(request);
  return out;
}

/// Body-less requests (Ping, Shutdown) by endpoint id.
Bytes encode_request(Endpoint endpoint, std::uint32_t deadline_ms = 0);

/// Strict decode of a request *body* (header already parsed); throws
/// DecodeError, which the server answers with BadRequest.
template <WireRequest Req>
Req decode_body(std::span<const std::uint8_t> body) {
  return wire::decode<Req>(body);
}

inline constexpr auto decode_characterize_adder =
    &decode_body<CharacterizeAdderRequest>;
inline constexpr auto decode_characterize_multiplier =
    &decode_body<CharacterizeMultiplierRequest>;
inline constexpr auto decode_evaluate_error =
    &decode_body<EvaluateErrorRequest>;
inline constexpr auto decode_gear_design_space =
    &decode_body<GearDesignSpaceRequest>;
inline constexpr auto decode_hetero_adder_design_space =
    &decode_body<HeteroAdderDesignSpaceRequest>;
inline constexpr auto decode_array_mul_design_space =
    &decode_body<ArrayMulDesignSpaceRequest>;
inline constexpr auto decode_static_adder_design_space =
    &decode_body<StaticAdderDesignSpaceRequest>;
inline constexpr auto decode_encode_probe = &decode_body<EncodeProbeRequest>;
inline constexpr auto decode_cache_insert = &decode_body<CacheInsertRequest>;

// --- Responses ------------------------------------------------------------

/// Fixed response header: [version u8][status u8][served_level u8].
inline constexpr std::size_t kResponseHeaderBytes = 3;

template <WireResponse Resp>
Bytes encode_response(const Resp& response) {
  Bytes out = wire::response_prefix(Status::Ok);
  wire::Encoder(out).put(response);
  return out;
}

/// Typed client-side decode: the payload on Status::Ok; ServiceError
/// carrying the server's status + message otherwise, DecodeError on
/// malformed bytes.
template <WireResponse Resp>
Resp decode_response(std::span<const std::uint8_t> response) {
  return wire::decode<Resp>(wire::ok_body(response));
}

inline Bytes encode_ok_response() { return encode_response(OkResponse{}); }
inline void decode_ok_response(std::span<const std::uint8_t> response) {
  decode_response<OkResponse>(response);
}
inline constexpr auto decode_characterize_response =
    &decode_response<CharacterizeResponse>;
inline constexpr auto decode_evaluate_error_response =
    &decode_response<EvaluateErrorResponse>;
inline constexpr auto decode_gear_design_space_response =
    &decode_response<GearDesignSpaceResponse>;
inline constexpr auto decode_hetero_adder_design_space_response =
    &decode_response<HeteroAdderDesignSpaceResponse>;
inline constexpr auto decode_array_mul_design_space_response =
    &decode_response<ArrayMulDesignSpaceResponse>;
inline constexpr auto decode_static_adder_design_space_response =
    &decode_response<StaticAdderDesignSpaceResponse>;
inline constexpr auto decode_encode_probe_response =
    &decode_response<EncodeProbeResponse>;

/// Non-Ok response carrying a diagnostic message.
Bytes encode_error_response(Status status, std::string_view message);

/// Status of an encoded response; nullopt when truncated / bad version.
std::optional<Status> response_status(std::span<const std::uint8_t> response);

/// Served accuracy level of an encoded response (0 = full fidelity);
/// nullopt when truncated / bad version.
std::optional<std::uint8_t> response_level(
    std::span<const std::uint8_t> response);

/// Stamps the served accuracy level into an already-encoded response.
/// Throws std::invalid_argument when the response is shorter than a header.
void set_response_level(Bytes& response, std::uint8_t level);

// --- Canonicalization (cache identity) ------------------------------------

/// The request minus its deadline field — the byte string whose hash keys
/// the result cache. Throws DecodeError on requests shorter than a header.
Bytes canonical_request_bytes(std::span<const std::uint8_t> request);

/// 64-bit key over canonical bytes, built with the same SplitMix64-style
/// combiner as the characterization memo (logic::detail::mix_key) so every
/// cache in the system shares one mixing discipline.
std::uint64_t canonical_request_key(std::span<const std::uint8_t> canonical);

// --- Framing --------------------------------------------------------------

/// Appends [length u32 LE][payload] to \p out. Throws std::invalid_argument
/// when payload exceeds kMaxFrameBytes.
void append_frame(Bytes& out, std::span<const std::uint8_t> payload);

}  // namespace axc::service
