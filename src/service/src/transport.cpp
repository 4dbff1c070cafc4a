#include "axc/service/transport.hpp"

#include <memory>
#include <utility>

namespace axc::service {

std::uint32_t Connection::submit(std::span<const std::uint8_t> request) {
  // After 2^32 submits the counter wraps: id 0 stays reserved and an id
  // whose response is still uncollected must not be reissued, or the two
  // exchanges would alias and collect() would hand back the wrong payload.
  while (next_deferred_id_ == 0 ||
         deferred_.find(next_deferred_id_) != deferred_.end()) {
    ++next_deferred_id_;
  }
  const std::uint32_t id = next_deferred_id_++;
  deferred_.emplace(id, Bytes(request.begin(), request.end()));
  return id;
}

Bytes Connection::collect(std::uint32_t request_id) {
  auto it = deferred_.find(request_id);
  if (it == deferred_.end()) {
    throw std::invalid_argument("Connection::collect: unknown request id " +
                                std::to_string(request_id));
  }
  // Take the request out before the roundtrip: if the exchange throws, the
  // id is spent either way (the stream state is unknown; retrying clients
  // resubmit on a fresh connection).
  Bytes request = std::move(it->second);
  deferred_.erase(it);
  return roundtrip(request);
}

std::uint32_t LoopbackConnection::submit(
    std::span<const std::uint8_t> request) {
  while (next_id_ == 0 || pending_.find(next_id_) != pending_.end()) {
    ++next_id_;  // wraparound: never reuse an uncollected in-flight id
  }
  const std::uint32_t id = next_id_++;
  auto promise = std::make_shared<std::promise<Bytes>>();
  pending_.emplace(id, promise->get_future());
  server_.submit(Bytes(request.begin(), request.end()),
                 [promise](Bytes response) {
                   promise->set_value(std::move(response));
                 });
  return id;
}

Bytes LoopbackConnection::collect(std::uint32_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    throw std::invalid_argument(
        "LoopbackConnection::collect: unknown request id " +
        std::to_string(request_id));
  }
  std::future<Bytes> future = std::move(it->second);
  pending_.erase(it);
  return future.get();
}

Bytes Client::call_bytes(const Bytes& request) {
  Bytes response = connection_.roundtrip(request);
  last_served_level_ = response_level(response).value_or(0);
  return response;
}

std::uint32_t Client::submit_bytes(const Bytes& request) {
  return connection_.submit(request);
}

Bytes Client::collect_bytes(std::uint32_t request_id) {
  Bytes response = connection_.collect(request_id);
  last_served_level_ = response_level(response).value_or(0);
  return response;
}

}  // namespace axc::service
