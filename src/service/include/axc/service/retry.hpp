/// \file retry.hpp
/// Typed retrying client: bounded attempts, seeded exponential backoff
/// with deterministic jitter, reconnect-on-broken-stream.
///
/// Retries are *safe by construction* here: responses are a pure function
/// of the canonical request bytes (the PR 2/3 thread-invariance contract)
/// and cacheable by canonical hash, so re-sending a request the server may
/// already have executed cannot change the answer — at worst it hits the
/// result cache. That property is what lets the chaos harness demand
/// "zero client-visible failures" under a 5%+ frame-fault schedule.
///
/// Classification:
///  - TransportError (any kind)  -> drop the connection, back off, retry
///    on a fresh one from the factory (factory failures count as attempts
///    too, so a client can out-wait a restarting server);
///  - unparseable response header -> treated as a corrupt frame: drop the
///    connection, back off, retry;
///  - Status::Overloaded          -> back off, retry on the same
///    connection (opt-out via RetryPolicy::retry_overloaded);
///  - Status::BadRequest          -> NOT retried by default (a malformed
///    request stays malformed); chaos harnesses that corrupt requests
///    in flight opt in via retry_bad_request;
///  - other non-Ok statuses       -> surfaced to the caller immediately
///    (the typed decoders throw ServiceError).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "axc/common/rng.hpp"
#include "axc/service/protocol.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {

struct RetryPolicy {
  /// Total tries per call, first attempt included. 1 = no retries.
  unsigned max_attempts = 4;
  /// Backoff before retry k (0-based) is drawn from
  /// [d/2, d] with d = min(max_backoff_ms, base_backoff_ms << k) — full
  /// exponential growth, half-width deterministic jitter.
  std::uint32_t base_backoff_ms = 1;
  std::uint32_t max_backoff_ms = 64;
  /// Seeds the jitter stream; two clients with the same seed back off
  /// identically (the load harness relies on this).
  std::uint64_t jitter_seed = 0x9E3779B9ULL;
  bool retry_overloaded = true;
  bool retry_bad_request = false;
  /// Test/harness hook replacing the real sleep; receives the jittered
  /// delay in ms. {} = std::this_thread::sleep_for.
  std::function<void(std::uint32_t)> sleep_ms = {};
};

/// Typed client over a reconnectable connection source: call(request)
/// has Client's contract plus the retry semantics above. When every
/// attempt is exhausted the *last* failure is what escapes: TransportError
/// for transport-level deaths, ServiceError for non-Ok statuses.
/// Single-threaded like any Connection.
class RetryingClient : public TypedClient<RetryingClient> {
 public:
  using ConnectionFactory = std::function<std::unique_ptr<Connection>()>;

  /// \p factory is called lazily on first use and again after any
  /// transport failure. It may throw (e.g. TcpConnection refusing while
  /// the server restarts); the throw is classified like a transport
  /// failure of the attempt it would have served.
  RetryingClient(ConnectionFactory factory, RetryPolicy policy = {});

  /// One fully-encoded request -> raw response bytes, with retries.
  /// Exposed for harnesses that byte-compare responses.
  Bytes call_bytes(const Bytes& request);

  /// Pipelined batch: submits every request on the connection before
  /// collecting any response (depth = batch size on a multiplexed
  /// transport; serial depth-1 on anything else — same bytes either way).
  /// Responses come back positionally aligned with \p requests. Retries
  /// work per-request: a transport death resubmits only the not-yet-
  /// collected requests on a fresh connection, a retryable status
  /// (Overloaded / opted-in BadRequest) re-enters just that request in
  /// the next round. Safe for the same reason call_bytes is: responses
  /// are pure functions of request bytes.
  std::vector<Bytes> call_bytes_batch(const std::vector<Bytes>& requests);

  /// Per-request served levels of the last call_bytes_batch, positionally
  /// aligned with its requests (empty until the first batch call). A
  /// request retried across rounds reports the level of the response that
  /// was actually returned for it. After a batch, last_served_level() is
  /// the *maximum* of these (the worst degradation any request saw), not
  /// whichever response happened to be collected last.
  const std::vector<std::uint8_t>& last_served_levels() const {
    return last_served_levels_;
  }
  /// Lifetime retry/reconnect/backoff totals for this client.
  std::uint64_t retries() const { return retries_; }
  std::uint64_t reconnects() const { return reconnects_; }
  std::uint64_t backoff_total_ms() const { return backoff_total_ms_; }

 private:
  Connection& connection();
  void drop_connection();
  void backoff(unsigned attempt);

  ConnectionFactory factory_;
  RetryPolicy policy_;
  Rng jitter_;
  std::unique_ptr<Connection> connection_;
  std::vector<std::uint8_t> last_served_levels_;
  std::uint64_t retries_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t backoff_total_ms_ = 0;
};

}  // namespace axc::service
