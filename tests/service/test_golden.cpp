// Golden wire vectors: one small canonical request per endpoint and its
// full-fidelity dispatch() response, stored as hex under
// tests/service/golden/<endpoint_name>.hex. They pin the wire format byte
// for byte: every vector must decode and re-encode to identical bytes, and
// dispatching the stored request must reproduce the stored response.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "axc/service/endpoints.hpp"
#include "axc/service/protocol.hpp"

namespace axc::service {
namespace {

constexpr int kFirstEndpoint = 1;
constexpr int kLastEndpoint = 11;

struct GoldenVector {
  Bytes request;
  Bytes response;
};

Bytes from_hex(const std::string& text) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(text.substr(i, 2), nullptr, 16)));
  }
  return out;
}

GoldenVector load(Endpoint endpoint) {
  const std::string path = std::string(AXC_GOLDEN_DIR) + "/" +
                           std::string(endpoint_name(endpoint)) + ".hex";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden vector " << path;
  GoldenVector vector;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    std::string hex;
    fields >> key >> hex;
    if (key == "request") vector.request = from_hex(hex);
    if (key == "response") vector.response = from_hex(hex);
  }
  return vector;
}

/// Decodes the request body with the endpoint's typed decoder and encodes
/// the result again under the same deadline.
Bytes reencode_request(const Bytes& request) {
  const auto header = parse_request_header(request);
  if (!header) throw DecodeError("golden request header does not parse");
  const auto body =
      std::span<const std::uint8_t>(request).subspan(kRequestHeaderBytes);
  const std::uint32_t deadline = header->deadline_ms;
  switch (header->endpoint) {
    case Endpoint::CharacterizeAdder:
      return encode_request(decode_characterize_adder(body), deadline);
    case Endpoint::CharacterizeMultiplier:
      return encode_request(decode_characterize_multiplier(body), deadline);
    case Endpoint::EvaluateError:
      return encode_request(decode_evaluate_error(body), deadline);
    case Endpoint::GearDesignSpace:
      return encode_request(decode_gear_design_space(body), deadline);
    case Endpoint::EncodeProbe:
      return encode_request(decode_encode_probe(body), deadline);
    case Endpoint::Ping:
    case Endpoint::Shutdown:
      if (!body.empty()) throw DecodeError("body-less request has a body");
      return encode_request(header->endpoint, deadline);
    case Endpoint::CacheInsert:
      return encode_request(decode_cache_insert(body), deadline);
    case Endpoint::HeteroAdderDesignSpace:
      return encode_request(decode_hetero_adder_design_space(body),
                            deadline);
    case Endpoint::ArrayMulDesignSpace:
      return encode_request(decode_array_mul_design_space(body), deadline);
    case Endpoint::StaticAdderDesignSpace:
      return encode_request(decode_static_adder_design_space(body),
                            deadline);
  }
  throw DecodeError("unknown endpoint");
}

/// Decodes an Ok response with the endpoint's typed decoder (an error
/// response through ServiceError) and encodes the result again.
Bytes reencode_response(Endpoint endpoint, const Bytes& response) {
  try {
    switch (endpoint) {
      case Endpoint::CharacterizeAdder:
      case Endpoint::CharacterizeMultiplier:
        return encode_response(decode_characterize_response(response));
      case Endpoint::EvaluateError:
        return encode_response(decode_evaluate_error_response(response));
      case Endpoint::GearDesignSpace:
        return encode_response(decode_gear_design_space_response(response));
      case Endpoint::EncodeProbe:
        return encode_response(decode_encode_probe_response(response));
      case Endpoint::HeteroAdderDesignSpace:
        return encode_response(
            decode_hetero_adder_design_space_response(response));
      case Endpoint::ArrayMulDesignSpace:
        return encode_response(
            decode_array_mul_design_space_response(response));
      case Endpoint::StaticAdderDesignSpace:
        return encode_response(
            decode_static_adder_design_space_response(response));
      case Endpoint::Ping:
      case Endpoint::Shutdown:
      case Endpoint::CacheInsert:
        decode_ok_response(response);
        return encode_ok_response();
    }
  } catch (const ServiceError& e) {
    // what() is "<status name>: <message>".
    const std::string prefix = std::string(status_name(e.status())) + ": ";
    return encode_error_response(e.status(),
                                 std::string(e.what()).substr(prefix.size()));
  }
  throw DecodeError("unknown endpoint");
}

TEST(GoldenWire, EveryEndpointHasAVector) {
  for (int raw = kFirstEndpoint; raw <= kLastEndpoint; ++raw) {
    const auto endpoint = static_cast<Endpoint>(raw);
    const GoldenVector vector = load(endpoint);
    ASSERT_FALSE(vector.request.empty()) << endpoint_name(endpoint);
    ASSERT_FALSE(vector.response.empty()) << endpoint_name(endpoint);
    const auto header = parse_request_header(vector.request);
    ASSERT_TRUE(header.has_value()) << endpoint_name(endpoint);
    EXPECT_EQ(header->endpoint, endpoint);
    EXPECT_EQ(header->deadline_ms, 0u) << "golden requests are canonical";
  }
}

TEST(GoldenWire, RequestsReencodeByteForByte) {
  for (int raw = kFirstEndpoint; raw <= kLastEndpoint; ++raw) {
    const auto endpoint = static_cast<Endpoint>(raw);
    const GoldenVector vector = load(endpoint);
    EXPECT_EQ(reencode_request(vector.request), vector.request)
        << endpoint_name(endpoint);
  }
}

TEST(GoldenWire, ResponsesReencodeByteForByte) {
  for (int raw = kFirstEndpoint; raw <= kLastEndpoint; ++raw) {
    const auto endpoint = static_cast<Endpoint>(raw);
    const GoldenVector vector = load(endpoint);
    EXPECT_EQ(reencode_response(endpoint, vector.response), vector.response)
        << endpoint_name(endpoint);
  }
}

TEST(GoldenWire, DispatchReproducesStoredResponses) {
  for (int raw = kFirstEndpoint; raw <= kLastEndpoint; ++raw) {
    const auto endpoint = static_cast<Endpoint>(raw);
    const GoldenVector vector = load(endpoint);
    EXPECT_EQ(dispatch(vector.request), vector.response)
        << endpoint_name(endpoint);
  }
}

}  // namespace
}  // namespace axc::service
