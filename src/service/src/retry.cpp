#include "axc/service/retry.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "axc/obs/obs.hpp"

namespace axc::service {

RetryingClient::RetryingClient(ConnectionFactory factory, RetryPolicy policy)
    : factory_(std::move(factory)),
      policy_(policy),
      jitter_(policy.jitter_seed) {}

Connection& RetryingClient::connection() {
  if (!connection_) connection_ = factory_();
  return *connection_;
}

void RetryingClient::drop_connection() {
  if (connection_) {
    connection_.reset();
    ++reconnects_;
  }
}

void RetryingClient::backoff(unsigned attempt) {
  static obs::Histogram& backoff_hist = obs::histogram("service.backoff_ms");
  const unsigned shift = std::min(attempt, 20u);
  const std::uint64_t grown =
      static_cast<std::uint64_t>(policy_.base_backoff_ms) << shift;
  const std::uint64_t capped =
      std::min<std::uint64_t>(grown, policy_.max_backoff_ms);
  const std::uint64_t low = capped / 2;
  const auto delay =
      static_cast<std::uint32_t>(low + jitter_.below(capped - low + 1));
  backoff_hist.record(delay);
  backoff_total_ms_ += delay;
  if (policy_.sleep_ms) {
    policy_.sleep_ms(delay);
  } else if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

Bytes RetryingClient::call_bytes(const Bytes& request) {
  static obs::Counter& retry_counter = obs::counter("service.retries");
  const unsigned max_attempts = std::max(1u, policy_.max_attempts);
  for (unsigned attempt = 0;; ++attempt) {
    const bool last = attempt + 1 >= max_attempts;
    try {
      Bytes response = connection().roundtrip(request);
      const std::optional<Status> status = response_status(response);
      if (!status) {
        // The stream produced a frame we cannot even parse the header of:
        // treat it exactly like a broken connection.
        throw TransportError(TransportError::Kind::Corrupt,
                             "unparseable response header");
      }
      const bool retryable_status =
          (*status == Status::Overloaded && policy_.retry_overloaded) ||
          (*status == Status::BadRequest && policy_.retry_bad_request);
      if (retryable_status && !last) {
        ++retries_;
        retry_counter.add();
        backoff(attempt);
        continue;  // the connection itself is healthy; reuse it
      }
      last_served_level_ = response_level(response).value_or(0);
      return response;
    } catch (const TransportError&) {
      drop_connection();
      if (last) throw;
      ++retries_;
      retry_counter.add();
      backoff(attempt);
    }
  }
}

std::vector<Bytes> RetryingClient::call_bytes_batch(
    const std::vector<Bytes>& requests) {
  static obs::Counter& retry_counter = obs::counter("service.retries");
  const unsigned max_attempts = std::max(1u, policy_.max_attempts);
  std::vector<Bytes> responses(requests.size());
  std::vector<bool> done(requests.size(), false);
  std::size_t remaining = requests.size();
  last_served_levels_.assign(requests.size(), 0);
  for (unsigned attempt = 0; remaining > 0; ++attempt) {
    const bool last = attempt + 1 >= max_attempts;
    try {
      Connection& conn = connection();
      // Submit every incomplete request before collecting anything: on a
      // multiplexed transport all of them are on the wire at once.
      std::vector<std::pair<std::size_t, std::uint32_t>> inflight;
      inflight.reserve(remaining);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!done[i]) inflight.emplace_back(i, conn.submit(requests[i]));
      }
      bool saw_retryable_status = false;
      for (const auto& [index, id] : inflight) {
        Bytes response = conn.collect(id);
        const std::optional<Status> status = response_status(response);
        if (!status) {
          throw TransportError(TransportError::Kind::Corrupt,
                               "unparseable response header");
        }
        const bool retryable_status =
            (*status == Status::Overloaded && policy_.retry_overloaded) ||
            (*status == Status::BadRequest && policy_.retry_bad_request);
        if (retryable_status && !last) {
          saw_retryable_status = true;  // resubmitted next round
          continue;
        }
        // Record per request: the scalar last_served_level_ used to keep
        // only whichever response was collected last, hiding degradation
        // anywhere else in the batch.
        last_served_levels_[index] = response_level(response).value_or(0);
        responses[index] = std::move(response);
        done[index] = true;
        --remaining;
      }
      if (remaining == 0) break;
      if (saw_retryable_status) {
        // The connection itself is healthy; back off and re-enter just
        // the requests the server pushed back on.
        ++retries_;
        retry_counter.add();
        backoff(attempt);
      }
    } catch (const TransportError&) {
      // Everything uncollected died with the stream. The collected
      // responses stay valid; only the remainder is resubmitted.
      drop_connection();
      if (last) throw;
      ++retries_;
      retry_counter.add();
      backoff(attempt);
    }
  }
  last_served_level_ = last_served_levels_.empty()
                           ? 0
                           : *std::max_element(last_served_levels_.begin(),
                                               last_served_levels_.end());
  return responses;
}

}  // namespace axc::service
