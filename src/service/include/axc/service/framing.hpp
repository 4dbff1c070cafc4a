/// \file framing.hpp
/// Frame layer of the wire protocol, including the multiplexing extension.
///
/// Every transport carries [length u32 LE][payload] frames (protocol.hpp).
/// Because kMaxFrameBytes is 4 MiB, bits 31..23 of a legacy length word
/// are always zero — which is what makes the *multiplexed* frame a
/// backward-compatible extension rather than a new protocol version:
///
///   legacy frame:  [length u32 LE            ][payload]
///   mux frame:     [length u32 LE | kMuxFlag ][request_id u32 LE][payload]
///
/// A request frame with kMuxFlag set carries a client-chosen request id;
/// the server echoes the id on the response frame, and responses to mux
/// frames may complete *out of order* — that is the whole point: one
/// connection can hold many requests in flight. Frames without the flag
/// keep the PR 5 contract verbatim (responses in request order), so old
/// clients work against a reactor server unchanged. The *payload* bytes
/// are identical in both framings — the byte-identical-response contract
/// and the result-cache identity never see the request id.
///
/// (Multiplexing is opt-in on the client: a server that predates the
/// flag reads it as an oversized length and drops the connection with a
/// typed transport/frame_overflow error — fail-fast, never silent
/// corruption.)
///
/// FrameAssembler is the incremental parser both the reactor's
/// per-connection read state machine and the tests share: feed it bytes in
/// arbitrary-sized slices (one byte at a time, a frame and a half, ...)
/// and it yields complete frames in arrival order.
#pragma once

#include <cstdint>
#include <deque>
#include <span>

#include "axc/service/protocol.hpp"

namespace axc::service {

/// High bit of the frame length word: set = multiplexed frame.
inline constexpr std::uint32_t kMuxFrameFlag = 0x8000'0000u;

/// Bytes of frame header that precede the payload.
inline constexpr std::size_t kFrameHeaderBytes = 4;
inline constexpr std::size_t kMuxFrameHeaderBytes = 8;

/// Appends [length|kMuxFrameFlag][request_id][payload] to \p out. Throws
/// std::invalid_argument when payload exceeds kMaxFrameBytes.
void append_mux_frame(Bytes& out, std::uint32_t request_id,
                      std::span<const std::uint8_t> payload);

/// One parsed frame: a legacy frame has mux == false (request_id is 0 and
/// meaningless), a multiplexed frame carries the peer's request id.
struct Frame {
  bool mux = false;
  std::uint32_t request_id = 0;
  Bytes payload;
};

/// Incremental frame parser: accepts bytes in arbitrary slices and yields
/// complete frames. This is the per-connection read state machine of the
/// reactor (DESIGN.md §11) — short reads land mid-header or mid-body and
/// the assembler carries the partial state across calls.
class FrameAssembler {
 public:
  /// Consumes \p bytes. Throws TransportError(FrameOverflow) when a frame
  /// announces a payload above kMaxFrameBytes (the caller drops the
  /// connection; nothing else a hostile peer sends can allocate memory
  /// beyond the cap + one slice).
  void feed(std::span<const std::uint8_t> bytes);

  /// True when at least one complete frame is ready.
  bool has_frame() const { return !frames_.empty(); }

  /// Pops the oldest complete frame; call has_frame() first.
  Frame next_frame();

  /// True while a frame is partially assembled (mid-header or mid-body).
  bool mid_frame() const {
    return state_ != State::Header || header_got_ > 0;
  }

 private:
  enum class State : std::uint8_t { Header, MuxId, Body };

  void finish_header();

  State state_ = State::Header;
  std::uint8_t header_[kMuxFrameHeaderBytes] = {};
  std::size_t header_got_ = 0;
  Frame current_;
  std::size_t body_need_ = 0;
  std::deque<Frame> frames_;
};

}  // namespace axc::service
