#include "axc/service/framing.hpp"

#include <cstring>

#include "axc/common/require.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {

namespace {

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// The payload length a header word announces; throws FrameOverflow past
/// the cap, before anything is allocated or awaited.
std::uint32_t checked_length(std::uint32_t word) {
  const std::uint32_t length = word & ~kMuxFrameFlag;
  if (length > kMaxFrameBytes) {
    throw TransportError(TransportError::Kind::FrameOverflow,
                         "frame length " + std::to_string(length) +
                             " exceeds kMaxFrameBytes");
  }
  return length;
}

void put_u32le(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

void append_mux_frame(Bytes& out, std::uint32_t request_id,
                      std::span<const std::uint8_t> payload) {
  require(payload.size() <= kMaxFrameBytes,
          "append_mux_frame: payload exceeds kMaxFrameBytes");
  put_u32le(out, static_cast<std::uint32_t>(payload.size()) | kMuxFrameFlag);
  put_u32le(out, request_id);
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameAssembler::finish_header() {
  const std::uint32_t word = read_u32le(header_);
  current_.mux = (word & kMuxFrameFlag) != 0;
  const std::uint32_t length = checked_length(word);
  current_.request_id = current_.mux ? read_u32le(header_ + 4) : 0;
  body_need_ = length;
  current_.payload.clear();
  current_.payload.reserve(length);
  state_ = State::Body;
}

void FrameAssembler::feed(std::span<const std::uint8_t> bytes) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (state_ != State::Body) {
      // Collect 4 header bytes; if they announce a mux frame, 4 more for
      // the request id. A one-byte-per-call trickle lands here repeatedly
      // with header_got_ carrying the partial header across calls.
      const std::size_t need = state_ == State::MuxId
                                   ? kMuxFrameHeaderBytes
                                   : kFrameHeaderBytes;
      const std::size_t take =
          std::min(need - header_got_, bytes.size() - pos);
      std::memcpy(header_ + header_got_, bytes.data() + pos, take);
      header_got_ += take;
      pos += take;
      if (header_got_ < need) continue;  // bytes exhausted mid-header
      if (state_ == State::Header) {
        // The length word alone decides an overflow: a hostile mux
        // announcement must not park the connection waiting for an id
        // word that never comes.
        const std::uint32_t word = read_u32le(header_);
        checked_length(word);
        if ((word & kMuxFrameFlag) != 0) {
          state_ = State::MuxId;
          continue;  // need the id word before the header is complete
        }
      }
      finish_header();  // moves to State::Body
      header_got_ = 0;
      if (body_need_ > 0) continue;
      // Zero-length frame: complete immediately.
      frames_.push_back(std::move(current_));
      current_ = Frame{};
      state_ = State::Header;
      continue;
    }
    const std::size_t take =
        std::min(body_need_ - current_.payload.size(), bytes.size() - pos);
    current_.payload.insert(current_.payload.end(), bytes.data() + pos,
                            bytes.data() + pos + take);
    pos += take;
    if (current_.payload.size() == body_need_) {
      frames_.push_back(std::move(current_));
      current_ = Frame{};
      state_ = State::Header;
    }
  }
}

Frame FrameAssembler::next_frame() {
  require(!frames_.empty(), "FrameAssembler::next_frame: no frame ready");
  Frame frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

}  // namespace axc::service
