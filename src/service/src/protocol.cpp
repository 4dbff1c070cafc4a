#include "axc/service/protocol.hpp"

#include <cstring>

#include "axc/common/require.hpp"
#include "axc/logic/characterize.hpp"

namespace axc::service {

std::string_view endpoint_name(Endpoint endpoint) {
  std::string_view name = "unknown";
  visit_endpoint(endpoint, [&](auto spec) { name = decltype(spec)::name; });
  return name;
}

std::string_view status_name(Status status) {
  switch (status) {
    case Status::Ok: return "ok";
    case Status::BadRequest: return "bad_request";
    case Status::Overloaded: return "overloaded";
    case Status::DeadlineExceeded: return "deadline_exceeded";
    case Status::ShuttingDown: return "shutting_down";
    case Status::InternalError: return "internal_error";
  }
  return "unknown";
}

ServiceError::ServiceError(Status status, const std::string& message)
    : std::runtime_error(std::string(status_name(status)) + ": " + message),
      status_(status) {}

namespace wire {

Bytes request_prefix(Endpoint endpoint, std::uint32_t deadline_ms,
                     std::size_t body_bytes) {
  Bytes out;
  out.reserve(kRequestHeaderBytes + body_bytes);
  put_u8(out, kProtocolVersion);
  put_u8(out, static_cast<std::uint8_t>(endpoint));
  put_u32(out, deadline_ms);
  return out;
}

Bytes response_prefix(Status status) {
  Bytes out;
  put_u8(out, kProtocolVersion);
  put_u8(out, static_cast<std::uint8_t>(status));
  put_u8(out, 0);  // served_level; stamped later via set_response_level
  return out;
}

std::span<const std::uint8_t> ok_body(std::span<const std::uint8_t> response) {
  if (response.size() < kResponseHeaderBytes) {
    throw DecodeError("truncated response");
  }
  if (response[0] != kProtocolVersion) {
    throw DecodeError("unknown response version " +
                      std::to_string(response[0]));
  }
  const auto status = static_cast<Status>(response[1]);
  if (status == Status::Ok) return response.subspan(kResponseHeaderBytes);
  Reader reader(response.subspan(kResponseHeaderBytes));
  std::string message;
  try {
    message = reader.string();
  } catch (const DecodeError&) {
    message = "(no message)";
  }
  throw ServiceError(status, message);
}

}  // namespace wire

std::optional<RequestHeader> parse_request_header(
    std::span<const std::uint8_t> request) {
  if (request.size() < kRequestHeaderBytes) return std::nullopt;
  if (request[0] != kProtocolVersion) return std::nullopt;
  RequestHeader header;
  header.version = request[0];
  header.endpoint = static_cast<Endpoint>(request[1]);
  if (!visit_endpoint(header.endpoint, [](auto) {})) return std::nullopt;
  header.deadline_ms = wire::Reader(request.subspan(2, 4)).u32();
  return header;
}

Bytes encode_request(Endpoint endpoint, std::uint32_t deadline_ms) {
  require(endpoint == Endpoint::Ping || endpoint == Endpoint::Shutdown,
          "encode_request: endpoint requires a typed body");
  return wire::request_prefix(endpoint, deadline_ms, 0);
}

Bytes encode_error_response(Status status, std::string_view message) {
  require(status != Status::Ok,
          "encode_error_response: Ok is not an error status");
  Bytes out = wire::response_prefix(status);
  wire::put_u32(out, static_cast<std::uint32_t>(message.size()));
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

std::optional<Status> response_status(
    std::span<const std::uint8_t> response) {
  if (response.size() < kResponseHeaderBytes ||
      response[0] != kProtocolVersion) {
    return std::nullopt;
  }
  if (response[1] > static_cast<std::uint8_t>(Status::InternalError)) {
    return std::nullopt;
  }
  return static_cast<Status>(response[1]);
}

std::optional<std::uint8_t> response_level(
    std::span<const std::uint8_t> response) {
  if (!response_status(response)) return std::nullopt;
  return response[2];
}

void set_response_level(Bytes& response, std::uint8_t level) {
  require(response.size() >= kResponseHeaderBytes,
          "set_response_level: response shorter than a header");
  response[2] = level;
}

// --- Canonicalization -----------------------------------------------------

Bytes canonical_request_bytes(std::span<const std::uint8_t> request) {
  if (request.size() < kRequestHeaderBytes) {
    throw DecodeError("request shorter than header");
  }
  Bytes canonical;
  canonical.reserve(request.size() - 4);
  canonical.push_back(request[0]);  // version
  canonical.push_back(request[1]);  // endpoint
  canonical.insert(canonical.end(), request.begin() + kRequestHeaderBytes,
                   request.end());
  return canonical;
}

std::uint64_t canonical_request_key(
    std::span<const std::uint8_t> canonical) {
  // Seeded off the length, then folded 8 bytes at a time (zero-padded
  // tail) through the shared characterization-cache combiner.
  std::uint64_t key = logic::detail::mix_key(0x5EB51CEULL, canonical.size());
  for (std::size_t base = 0; base < canonical.size(); base += 8) {
    std::uint64_t word = 0;
    const std::size_t n = std::min<std::size_t>(8, canonical.size() - base);
    std::memcpy(&word, canonical.data() + base, n);
    key = logic::detail::mix_key(key, word);
  }
  return key;
}

// --- Framing --------------------------------------------------------------

void append_frame(Bytes& out, std::span<const std::uint8_t> payload) {
  require(payload.size() <= kMaxFrameBytes,
          "append_frame: payload exceeds kMaxFrameBytes");
  wire::put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace axc::service
