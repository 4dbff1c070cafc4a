#include "axc/service/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "axc/service/endpoints.hpp"

namespace axc::service {
namespace {

CharacterizeAdderRequest sample_adder_request() {
  CharacterizeAdderRequest req;
  req.family = AdderFamily::Loa;
  req.width = 16;
  req.param_a = 6;
  req.param_b = 0;
  req.cell = arith::FullAdderKind::Apx3;
  req.vectors = 2048;
  req.seed = 99;
  return req;
}

TEST(Protocol, CharacterizeAdderRoundTrip) {
  const CharacterizeAdderRequest req = sample_adder_request();
  const Bytes wire = encode_request(req, 250);

  const auto header = parse_request_header(wire);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->version, kProtocolVersion);
  EXPECT_EQ(header->endpoint, Endpoint::CharacterizeAdder);
  EXPECT_EQ(header->deadline_ms, 250u);

  const auto decoded = decode_characterize_adder(
      std::span<const std::uint8_t>(wire).subspan(kRequestHeaderBytes));
  EXPECT_EQ(decoded.family, req.family);
  EXPECT_EQ(decoded.width, req.width);
  EXPECT_EQ(decoded.param_a, req.param_a);
  EXPECT_EQ(decoded.param_b, req.param_b);
  EXPECT_EQ(decoded.cell, req.cell);
  EXPECT_EQ(decoded.vectors, req.vectors);
  EXPECT_EQ(decoded.seed, req.seed);
}

TEST(Protocol, CharacterizeMultiplierRoundTrip) {
  CharacterizeMultiplierRequest req;
  req.structure = MultiplierStructure::Wallace;
  req.width = 8;
  req.block = arith::Mul2x2Kind::Ours;
  req.cell = arith::FullAdderKind::Apx1;
  req.approx_lsbs = 4;
  req.vectors = 512;
  req.seed = 7;
  const Bytes wire = encode_request(req);

  const auto decoded = decode_characterize_multiplier(
      std::span<const std::uint8_t>(wire).subspan(kRequestHeaderBytes));
  EXPECT_EQ(decoded.structure, req.structure);
  EXPECT_EQ(decoded.width, req.width);
  EXPECT_EQ(decoded.block, req.block);
  EXPECT_EQ(decoded.cell, req.cell);
  EXPECT_EQ(decoded.approx_lsbs, req.approx_lsbs);
  EXPECT_EQ(decoded.vectors, req.vectors);
  EXPECT_EQ(decoded.seed, req.seed);
}

TEST(Protocol, EvaluateErrorRoundTrip) {
  EvaluateErrorRequest req;
  req.target = EvalTarget::Multiplier;
  req.gear = {12, 3, 3};
  req.correction_iterations = 2;
  req.mul_width = 8;
  req.mul_block = arith::Mul2x2Kind::SoA;
  req.mul_cell = arith::FullAdderKind::Apx5;
  req.mul_approx_lsbs = 3;
  req.max_exhaustive_bits = 18;
  req.samples = 4096;
  req.seed = 0xDEADBEEF;
  const Bytes wire = encode_request(req, 1000);

  const auto decoded = decode_evaluate_error(
      std::span<const std::uint8_t>(wire).subspan(kRequestHeaderBytes));
  EXPECT_EQ(decoded.target, req.target);
  EXPECT_EQ(decoded.gear.n, req.gear.n);
  EXPECT_EQ(decoded.gear.r, req.gear.r);
  EXPECT_EQ(decoded.gear.p, req.gear.p);
  EXPECT_EQ(decoded.correction_iterations, req.correction_iterations);
  EXPECT_EQ(decoded.mul_width, req.mul_width);
  EXPECT_EQ(decoded.mul_block, req.mul_block);
  EXPECT_EQ(decoded.mul_cell, req.mul_cell);
  EXPECT_EQ(decoded.mul_approx_lsbs, req.mul_approx_lsbs);
  EXPECT_EQ(decoded.max_exhaustive_bits, req.max_exhaustive_bits);
  EXPECT_EQ(decoded.samples, req.samples);
  EXPECT_EQ(decoded.seed, req.seed);
}

TEST(Protocol, GearDesignSpaceRoundTrip) {
  GearDesignSpaceRequest req;
  req.width = 11;
  req.min_p = 2;
  req.include_exact = true;
  req.estimate_power = true;
  req.min_accuracy = 95.5;
  const Bytes wire = encode_request(req);

  const auto decoded = decode_gear_design_space(
      std::span<const std::uint8_t>(wire).subspan(kRequestHeaderBytes));
  EXPECT_EQ(decoded.width, req.width);
  EXPECT_EQ(decoded.min_p, req.min_p);
  EXPECT_EQ(decoded.include_exact, req.include_exact);
  EXPECT_EQ(decoded.estimate_power, req.estimate_power);
  EXPECT_DOUBLE_EQ(decoded.min_accuracy, req.min_accuracy);
}

TEST(Protocol, EncodeProbeRoundTrip) {
  EncodeProbeRequest req;
  req.width = 96;
  req.height = 48;
  req.frames = 5;
  req.objects = 3;
  req.sequence_seed = 1234;
  req.sad_variant = 3;
  req.approx_lsbs = 4;
  req.block_size = 16;
  req.search_range = 3;
  req.quant_step = 12;
  const Bytes wire = encode_request(req);

  const auto decoded = decode_encode_probe(
      std::span<const std::uint8_t>(wire).subspan(kRequestHeaderBytes));
  EXPECT_EQ(decoded.width, req.width);
  EXPECT_EQ(decoded.height, req.height);
  EXPECT_EQ(decoded.frames, req.frames);
  EXPECT_EQ(decoded.objects, req.objects);
  EXPECT_EQ(decoded.sequence_seed, req.sequence_seed);
  EXPECT_EQ(decoded.sad_variant, req.sad_variant);
  EXPECT_EQ(decoded.approx_lsbs, req.approx_lsbs);
  EXPECT_EQ(decoded.block_size, req.block_size);
  EXPECT_EQ(decoded.search_range, req.search_range);
  EXPECT_EQ(decoded.quant_step, req.quant_step);
}

TEST(Protocol, ResponseRoundTrips) {
  {
    CharacterizeResponse r{83.88, 12995.96, 36};
    const auto d = decode_characterize_response(encode_response(r));
    EXPECT_DOUBLE_EQ(d.area_ge, r.area_ge);
    EXPECT_DOUBLE_EQ(d.power_nw, r.power_nw);
    EXPECT_EQ(d.gate_count, r.gate_count);
  }
  {
    EvaluateErrorResponse r;
    r.samples = 65536;
    r.error_count = 12288;
    r.max_error = 64;
    r.error_rate = 0.1875;
    r.mean_error_distance = 7.5;
    r.normalized_med = 0.0147;
    r.mean_relative_error = 0.0365;
    r.mean_squared_error = 408.0;
    r.root_mean_squared_error = 20.2;
    r.exhaustive = true;
    const auto d = decode_evaluate_error_response(encode_response(r));
    EXPECT_EQ(d.samples, r.samples);
    EXPECT_EQ(d.error_count, r.error_count);
    EXPECT_EQ(d.max_error, r.max_error);
    EXPECT_DOUBLE_EQ(d.error_rate, r.error_rate);
    EXPECT_DOUBLE_EQ(d.mean_error_distance, r.mean_error_distance);
    EXPECT_DOUBLE_EQ(d.normalized_med, r.normalized_med);
    EXPECT_DOUBLE_EQ(d.mean_relative_error, r.mean_relative_error);
    EXPECT_DOUBLE_EQ(d.mean_squared_error, r.mean_squared_error);
    EXPECT_DOUBLE_EQ(d.root_mean_squared_error, r.root_mean_squared_error);
    EXPECT_EQ(d.exhaustive, r.exhaustive);
  }
  {
    GearDesignSpaceResponse r;
    r.points.push_back({1, 2, 97.8, 0.0, 39.8, false});
    r.points.push_back({2, 2, 153.8, 10.5, 93.75, true});
    r.max_accuracy_index = 1;
    r.min_area_index = 0;
    const auto d = decode_gear_design_space_response(encode_response(r));
    ASSERT_EQ(d.points.size(), 2u);
    EXPECT_EQ(d.points[1].r, 2u);
    EXPECT_EQ(d.points[1].p, 2u);
    EXPECT_DOUBLE_EQ(d.points[1].area_ge, 153.8);
    EXPECT_DOUBLE_EQ(d.points[1].accuracy_percent, 93.75);
    EXPECT_TRUE(d.points[1].on_pareto_front);
    EXPECT_FALSE(d.points[0].on_pareto_front);
    EXPECT_EQ(d.max_accuracy_index, 1u);
    EXPECT_EQ(d.min_area_index, 0u);
  }
  {
    EncodeProbeResponse r{10966, 5483.0, 40.98, 400};
    const auto d = decode_encode_probe_response(encode_response(r));
    EXPECT_EQ(d.total_bits, r.total_bits);
    EXPECT_DOUBLE_EQ(d.bits_per_frame, r.bits_per_frame);
    EXPECT_DOUBLE_EQ(d.psnr_db, r.psnr_db);
    EXPECT_EQ(d.sad_calls, r.sad_calls);
  }
}

TEST(Protocol, ErrorResponseCarriesStatusAndMessage) {
  const Bytes wire = encode_error_response(Status::Overloaded,
                                           "job queue full (64 pending)");
  ASSERT_TRUE(response_status(wire).has_value());
  EXPECT_EQ(*response_status(wire), Status::Overloaded);
  try {
    decode_characterize_response(wire);
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::Overloaded);
    EXPECT_STREQ(e.what(), "overloaded: job queue full (64 pending)");
  }
}

TEST(Protocol, OkResponseDecode) {
  EXPECT_NO_THROW(decode_ok_response(encode_ok_response()));
  EXPECT_THROW(decode_ok_response(
                   encode_error_response(Status::ShuttingDown, "bye")),
               ServiceError);
}

// The cache identity must cover every request byte *except* the deadline.
TEST(Protocol, CanonicalBytesStripDeadlineOnly) {
  const CharacterizeAdderRequest req = sample_adder_request();
  const Bytes a = encode_request(req, 0);
  const Bytes b = encode_request(req, 5000);
  EXPECT_NE(a, b);  // the wire bytes differ (deadline field)

  const Bytes ca = canonical_request_bytes(a);
  const Bytes cb = canonical_request_bytes(b);
  EXPECT_EQ(ca, cb);
  EXPECT_EQ(ca.size(), a.size() - 4);  // exactly the u32 deadline removed
  EXPECT_EQ(canonical_request_key(ca), canonical_request_key(cb));

  CharacterizeAdderRequest other = req;
  other.seed += 1;
  const Bytes cc = canonical_request_bytes(encode_request(other, 0));
  EXPECT_NE(ca, cc);
  EXPECT_NE(canonical_request_key(ca), canonical_request_key(cc));
}

TEST(Protocol, HeaderRejectsTruncationVersionAndEndpoint) {
  const Bytes good = encode_request(Endpoint::Ping);
  ASSERT_TRUE(parse_request_header(good).has_value());

  Bytes truncated(good.begin(), good.begin() + 3);
  EXPECT_FALSE(parse_request_header(truncated).has_value());

  Bytes bad_version = good;
  bad_version[0] = 0x7F;
  EXPECT_FALSE(parse_request_header(bad_version).has_value());

  Bytes bad_endpoint = good;
  bad_endpoint[1] = 0xFF;
  EXPECT_FALSE(parse_request_header(bad_endpoint).has_value());

  EXPECT_THROW(canonical_request_bytes(truncated), DecodeError);
}

TEST(Protocol, BodyDecodersRejectTruncationAndTrailingBytes) {
  const Bytes wire = encode_request(sample_adder_request());
  Bytes body(wire.begin() + kRequestHeaderBytes, wire.end());

  Bytes truncated(body.begin(), body.end() - 1);
  EXPECT_THROW(decode_characterize_adder(truncated), DecodeError);

  Bytes trailing = body;
  trailing.push_back(0);
  EXPECT_THROW(decode_characterize_adder(trailing), DecodeError);

  // A decoder for the wrong endpoint must not silently accept the bytes.
  EXPECT_THROW(decode_gear_design_space(body), DecodeError);
}

// The degrade-don't-drop tag: third header byte, 0 by default, stampable
// in place, invisible to status and body decoding.
TEST(Protocol, ResponseLevelByteRoundTrips) {
  Bytes wire = encode_response(CharacterizeResponse{1.0, 2.0, 3});
  ASSERT_GE(wire.size(), kResponseHeaderBytes);
  EXPECT_EQ(response_level(wire), 0);

  set_response_level(wire, 3);
  EXPECT_EQ(response_level(wire), 3);
  EXPECT_EQ(response_status(wire), Status::Ok);
  const auto d = decode_characterize_response(wire);
  EXPECT_DOUBLE_EQ(d.area_ge, 1.0);
  EXPECT_EQ(d.gate_count, 3u);

  // Error responses carry the header too (level stays 0).
  const Bytes error = encode_error_response(Status::Overloaded, "full");
  EXPECT_EQ(response_level(error), 0);

  EXPECT_FALSE(response_level(Bytes{}).has_value());
  Bytes tiny = {kProtocolVersion, 0};
  EXPECT_FALSE(response_level(tiny).has_value());
  EXPECT_THROW(set_response_level(tiny, 1), std::invalid_argument);
}

TEST(Protocol, ResponseDecodersRejectMalformedBytes) {
  const Bytes wire = encode_response(CharacterizeResponse{1.0, 2.0, 3});
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_THROW(decode_characterize_response(truncated), DecodeError);
  EXPECT_FALSE(response_status(Bytes{}).has_value());
}

TEST(Protocol, FramingRoundTripAndCap) {
  Bytes payload = {1, 2, 3, 4, 5};
  Bytes out;
  append_frame(out, payload);
  ASSERT_EQ(out.size(), 4 + payload.size());
  EXPECT_EQ(out[0], 5u);  // little-endian length
  EXPECT_EQ(out[1], 0u);
  EXPECT_EQ(Bytes(out.begin() + 4, out.end()), payload);

  Bytes huge(kMaxFrameBytes + 1, 0);
  Bytes sink;
  EXPECT_THROW(append_frame(sink, huge), std::invalid_argument);
}

TEST(Protocol, Names) {
  EXPECT_EQ(endpoint_name(Endpoint::CharacterizeAdder), "characterize_adder");
  EXPECT_EQ(endpoint_name(Endpoint::EncodeProbe), "encode_probe");
  EXPECT_EQ(endpoint_name(Endpoint::CacheInsert), "cache_insert");
  EXPECT_EQ(endpoint_name(static_cast<Endpoint>(0xEE)), "unknown");
  EXPECT_EQ(status_name(Status::Ok), "ok");
  EXPECT_EQ(status_name(Status::Overloaded), "overloaded");
  EXPECT_EQ(status_name(static_cast<Status>(0xEE)), "unknown");
}

TEST(Protocol, CacheInsertRoundTrip) {
  CharacterizeAdderRequest adder;
  adder.width = 8;
  adder.param_a = 2;
  adder.param_b = 2;
  CacheInsertRequest insert;
  insert.canonical = canonical_request_bytes(encode_request(adder, 250));
  insert.response = encode_ok_response();

  const Bytes wire = encode_request(insert);
  const auto header = parse_request_header(wire);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->endpoint, Endpoint::CacheInsert);
  EXPECT_EQ(header->deadline_ms, 0u);

  const CacheInsertRequest decoded =
      decode_cache_insert(std::span<const std::uint8_t>(wire).subspan(
          kRequestHeaderBytes));
  EXPECT_EQ(decoded.canonical, insert.canonical);
  EXPECT_EQ(decoded.response, insert.response);
}

TEST(Protocol, CacheInsertDecodeRejectsTruncationAndOverflow) {
  CacheInsertRequest insert;
  insert.canonical = {kProtocolVersion, 1, 42};
  insert.response = encode_ok_response();
  const Bytes wire = encode_request(insert);
  const auto body =
      std::span<const std::uint8_t>(wire).subspan(kRequestHeaderBytes);

  // Shorter than the length word, then a canonical_len pointing past the
  // end of the body.
  EXPECT_THROW(decode_cache_insert(body.subspan(0, 3)), DecodeError);
  Bytes lying(body.begin(), body.end());
  lying[0] = 0xFF;
  lying[1] = 0xFF;
  lying[2] = 0xFF;
  lying[3] = 0x7F;  // canonical_len = 2 GiB
  EXPECT_THROW(decode_cache_insert(lying), DecodeError);
}

// A list count read off the wire must be bounded by the bytes that
// follow it, before anything is allocated for it.
TEST(Protocol, ListCountBeyondPayloadIsDecodeError) {
  const Bytes lying = {kProtocolVersion, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(decode_gear_design_space_response(lying), DecodeError);
  EXPECT_THROW(decode_hetero_adder_design_space_response(lying), DecodeError);
  EXPECT_THROW(decode_array_mul_design_space_response(lying), DecodeError);
  EXPECT_THROW(decode_static_adder_design_space_response(lying), DecodeError);

  // One point fewer than announced is still caught.
  GearDesignSpaceResponse two;
  two.points.resize(2);
  Bytes short_list = encode_response(two);
  short_list[kResponseHeaderBytes] = 3;
  EXPECT_THROW(decode_gear_design_space_response(short_list), DecodeError);
}

std::vector<Bytes> golden_requests() {
  std::vector<Bytes> requests;
  for_each_endpoint([&](auto spec) {
    std::ifstream in(std::string(AXC_GOLDEN_DIR) + "/" +
                     std::string(decltype(spec)::name) + ".hex");
    std::string key;
    std::string hex;
    in >> key >> hex;
    Bytes request;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
      request.push_back(static_cast<std::uint8_t>(
          std::stoul(hex.substr(i, 2), nullptr, 16)));
    }
    requests.push_back(request);
  });
  return requests;
}

/// Decodes a request with its endpoint's typed decoder and encodes it
/// again; throws DecodeError when the body does not decode.
Bytes reencode(const Bytes& request) {
  const auto header = parse_request_header(request);
  if (!header) throw DecodeError("bad header");
  const auto body =
      std::span<const std::uint8_t>(request).subspan(kRequestHeaderBytes);
  Bytes out;
  visit_endpoint(header->endpoint, [&](auto spec) {
    using Request = typename decltype(spec)::Request;
    out = encode_request(decode_body<Request>(body), header->deadline_ms);
  });
  return out;
}

// Strict decode gives every query exactly one byte representation (and so
// one cache key): any single-bit body mutation that still decodes must
// re-encode to exactly the mutated bytes.
TEST(Protocol, EveryAcceptedMutationReencodesToItself) {
  const std::vector<Bytes> requests = golden_requests();
  ASSERT_EQ(requests.size(), std::tuple_size_v<EndpointTable>);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const Bytes& request : requests) {
    ASSERT_EQ(reencode(request), request);
    for (std::size_t i = kRequestHeaderBytes; i < request.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes mutated = request;
        mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ (1u << bit));
        try {
          EXPECT_EQ(reencode(mutated), mutated)
              << endpoint_name(parse_request_header(request)->endpoint)
              << " byte " << i << " bit " << bit;
          ++accepted;
        } catch (const DecodeError&) {
          ++rejected;
        }
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Protocol, BoolByteOtherThanZeroOrOneIsBadRequest) {
  GearDesignSpaceRequest gear;
  gear.width = 6;
  Bytes wire = encode_request(gear);
  const std::size_t include_exact = kRequestHeaderBytes + 8;
  ASSERT_EQ(wire[include_exact], 0u);
  wire[include_exact] = 2;
  EXPECT_THROW(
      decode_gear_design_space(
          std::span<const std::uint8_t>(wire).subspan(kRequestHeaderBytes)),
      DecodeError);
  const Bytes response = dispatch(wire);
  EXPECT_EQ(response_status(response), Status::BadRequest);
  try {
    decode_ok_response(response);
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_STREQ(e.what(), "bad_request: invalid include_exact value 2");
  }
}

// The five lower-part cells after ApxFA5 stay off the wire: a raw cell
// byte of 6 (the first of them) in any request that carries a
// FullAdderKind must decode as BadRequest, as any out-of-range enum does.
template <class Request, class Decode>
void expect_cell_byte_rejected(Request request,
                               arith::FullAdderKind Request::*cell,
                               Decode decode, const char* name) {
  request.*cell = arith::FullAdderKind::Accurate;
  const Bytes zero = encode_request(request);
  request.*cell = arith::FullAdderKind::Apx5;
  Bytes wire = encode_request(request);
  ASSERT_EQ(wire.size(), zero.size()) << name;
  std::size_t offset = wire.size();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (wire[i] != zero[i]) {
      ASSERT_EQ(offset, wire.size()) << name << ": cell byte not unique";
      offset = i;
    }
  }
  ASSERT_LT(offset, wire.size()) << name;
  ASSERT_EQ(wire[offset], 5u) << name;
  wire[offset] = static_cast<std::uint8_t>(arith::FullAdderKind::LowOr);
  ASSERT_EQ(wire[offset], 6u) << name;
  EXPECT_THROW(
      decode(std::span<const std::uint8_t>(wire).subspan(kRequestHeaderBytes)),
      DecodeError)
      << name;
  EXPECT_EQ(response_status(dispatch(wire)), Status::BadRequest) << name;
}

TEST(Protocol, LowerPartCellByteIsBadRequest) {
  static_assert(wire_enum_max(arith::FullAdderKind{}) ==
                arith::kFullAdderKindCount - 1);
  CharacterizeAdderRequest adder = sample_adder_request();
  adder.family = AdderFamily::Ripple;
  expect_cell_byte_rejected(adder, &CharacterizeAdderRequest::cell,
                            decode_characterize_adder, "characterize_adder");
  CharacterizeMultiplierRequest mul;
  mul.width = 4;
  expect_cell_byte_rejected(mul, &CharacterizeMultiplierRequest::cell,
                            decode_characterize_multiplier,
                            "characterize_multiplier");
  EvaluateErrorRequest eval;
  eval.target = EvalTarget::Multiplier;
  expect_cell_byte_rejected(eval, &EvaluateErrorRequest::mul_cell,
                            decode_evaluate_error, "evaluate_error");
}

}  // namespace
}  // namespace axc::service
