#include "axc/service/server.hpp"

#include <algorithm>
#include <future>
#include <mutex>
#include <string>

#include "axc/obs/obs.hpp"

namespace axc::service {

namespace {

/// One past the largest endpoint id (array bound for per-endpoint slots).
constexpr std::size_t kEndpointSlots = [] {
  std::size_t slots = 0;
  for_each_endpoint([&](auto spec) {
    slots = std::max(slots, static_cast<std::size_t>(decltype(spec)::id) + 1);
  });
  return slots;
}();

/// The table's cacheable flag; false for unknown ids.
constexpr bool endpoint_cacheable(Endpoint id) {
  bool cacheable = false;
  visit_endpoint(id, [&](auto spec) { cacheable = decltype(spec)::cacheable; });
  return cacheable;
}

/// Per-endpoint instruments, resolved once (obs handles are stable for the
/// process lifetime, so after the first call this is a plain array load).
struct EndpointInstruments {
  obs::Counter* requests[kEndpointSlots] = {};
  obs::SpanStat* latency[kEndpointSlots] = {};
};

const EndpointInstruments& endpoint_instruments() {
  static const EndpointInstruments instance = [] {
    EndpointInstruments out;
    for_each_endpoint([&](auto spec) {
      using Spec = decltype(spec);
      const std::string name(Spec::name);
      const auto slot = static_cast<std::size_t>(Spec::id);
      out.requests[slot] = &obs::counter("service." + name + ".requests");
      out.latency[slot] = &obs::span("service.latency." + name);
    });
    return out;
  }();
  return instance;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards),
      overload_(options_.overload) {
  if (options_.workers == 0) {
    options_.workers = std::max(1u, std::thread::hardware_concurrency());
  }
  if (options_.dispatcher) {
    dispatcher_ = options_.dispatcher;
  } else {
    const unsigned eval_threads = options_.eval_threads;
    dispatcher_ = [eval_threads](std::span<const std::uint8_t> request,
                                 unsigned degrade_level) {
      DispatchOptions dispatch_options;
      dispatch_options.eval_threads = eval_threads;
      dispatch_options.degrade_level = degrade_level;
      return dispatch(request, dispatch_options);
    };
  }
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { stop(); }

void Server::submit(Bytes request, ResponseCallback done) {
  static obs::Counter& total = obs::counter("service.requests");
  static obs::Counter& bad = obs::counter("service.rejected.bad_request");
  static obs::Counter& shedding =
      obs::counter("service.rejected.overloaded");
  static obs::Counter& draining =
      obs::counter("service.rejected.shutting_down");
  static obs::Counter& cache_hits = obs::counter("service.cache.hits");
  static obs::Counter& cache_misses = obs::counter("service.cache.misses");
  static obs::Histogram& depth = obs::histogram("service.queue_depth");

  total.add();
  const std::optional<RequestHeader> header = parse_request_header(request);
  if (!header) {
    bad.add();
    done(encode_error_response(Status::BadRequest,
                               "unparseable request header"));
    return;
  }
  endpoint_instruments().requests[static_cast<std::size_t>(header->endpoint)]->add();

  if (header->endpoint == Endpoint::CacheInsert) {
    // Synchronous: seeding a replica entry is a couple of hash-map moves,
    // and queuing it behind compute jobs would let a draining or
    // overloaded node lose replication it already earned.
    done(handle_cache_insert(request));
    return;
  }

  Job job;
  job.endpoint = header->endpoint;
  job.cacheable =
      endpoint_cacheable(header->endpoint) && cache_.capacity() > 0;
  if (job.cacheable) {
    job.canonical = canonical_request_bytes(request);
    job.cache_key = canonical_request_key(job.canonical);
    if (std::optional<Bytes> cached =
            cache_.lookup(job.cache_key, job.canonical)) {
      cache_hits.add();
      done(std::move(*cached));
      return;
    }
    cache_misses.add();
  }
  if (header->deadline_ms != 0) {
    job.has_deadline = true;
    job.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(header->deadline_ms);
  }
  job.request = std::move(request);
  job.done = std::move(done);

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      draining.add();
      job.done(encode_error_response(Status::ShuttingDown,
                                     "server is draining"));
      return;
    }
    if (queue_.size() >= options_.queue_capacity) {
      shedding.add();
      job.done(encode_error_response(
          Status::Overloaded,
          "job queue full (" + std::to_string(options_.queue_capacity) +
              " pending)"));
      return;
    }
    // Admission-time depth (this job included) feeds the degrade ladder;
    // under the same lock, so a deterministic submission schedule yields a
    // deterministic level trajectory.
    job.degrade_level = overload_.admit(queue_.size() + 1);
    queue_.push_back(std::move(job));
    depth.record(static_cast<std::int64_t>(queue_.size()));
  }
  work_available_.notify_one();
}

Bytes Server::handle_cache_insert(std::span<const std::uint8_t> request) {
  static obs::Counter& accepted =
      obs::counter("service.cluster.cache_inserts");
  static obs::Counter& rejected =
      obs::counter("service.cluster.cache_insert_rejects");
  if (!options_.accept_cache_inserts) {
    rejected.add();
    return encode_error_response(
        Status::BadRequest, "cache inserts not enabled on this server");
  }
  CacheInsertRequest insert;
  try {
    insert = decode_body<CacheInsertRequest>(
        request.subspan(kRequestHeaderBytes));
  } catch (const DecodeError& e) {
    rejected.add();
    return encode_error_response(Status::BadRequest, e.what());
  }
  // The canonical half must be a well-formed [version][endpoint][body]
  // for a cacheable endpoint, and the response half a full-fidelity Ok —
  // the only bytes insert()/run_job would ever have cached locally. A
  // peer cannot seed degraded, error or transport-level entries.
  if (insert.canonical.size() < 2 ||
      insert.canonical[0] != kProtocolVersion) {
    rejected.add();
    return encode_error_response(Status::BadRequest,
                                 "cache_insert: malformed canonical bytes");
  }
  if (!endpoint_cacheable(static_cast<Endpoint>(insert.canonical[1]))) {
    rejected.add();
    return encode_error_response(
        Status::BadRequest, "cache_insert: endpoint is not cacheable");
  }
  if (response_status(insert.response) != Status::Ok ||
      response_level(insert.response).value_or(255) != 0) {
    rejected.add();
    return encode_error_response(
        Status::BadRequest,
        "cache_insert: response is not a full-fidelity Ok");
  }
  const std::uint64_t key = canonical_request_key(insert.canonical);
  cache_.insert_replica(key, insert.canonical, std::move(insert.response));
  accepted.add();
  return encode_ok_response();
}

Bytes Server::call(std::span<const std::uint8_t> request) {
  std::promise<Bytes> promise;
  std::future<Bytes> future = promise.get_future();
  submit(Bytes(request.begin(), request.end()),
         [&promise](Bytes response) { promise.set_value(std::move(response)); });
  return future.get();
}

void Server::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    joining_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void Server::request_stop() {
  const std::lock_guard<std::mutex> lock(mutex_);
  accepting_ = false;
}

bool Server::stopping() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return !accepting_;
}

std::size_t Server::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return !queue_.empty() || joining_; });
      if (queue_.empty()) return;  // joining_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(job);
  }
}

void Server::run_job(Job& job) {
  static obs::Counter& expired = obs::counter("service.rejected.deadline");
  static obs::Counter& completed = obs::counter("service.completed");
  static obs::Counter& internal = obs::counter("service.errors.internal");
  static obs::Counter& bad = obs::counter("service.rejected.bad_request");
  static obs::Counter& degraded =
      obs::counter("service.degraded_responses");

  if (job.has_deadline &&
      std::chrono::steady_clock::now() > job.deadline) {
    expired.add();
    job.done(encode_error_response(Status::DeadlineExceeded,
                                   "deadline expired while queued"));
    return;
  }
  Bytes response;
  {
    obs::Span span(
        *endpoint_instruments().latency[static_cast<std::size_t>(job.endpoint)]);
    response = dispatcher_(job.request, job.degrade_level);
  }
  const std::optional<Status> status = response_status(response);
  if (status == Status::InternalError) internal.add();
  if (status == Status::BadRequest) bad.add();  // body decode/policy errors
  const std::uint8_t served_level = response_level(response).value_or(0);
  if (served_level > 0) degraded.add();
  // Only full-fidelity answers enter the cache: a degraded response must
  // never outlive the overload that produced it (and a later cache hit on
  // the same key must be the best-known answer, not the cheapest).
  if (job.cacheable && status == Status::Ok && served_level == 0) {
    cache_.insert(job.cache_key, job.canonical, response);
  }
  completed.add();
  job.done(std::move(response));
}

}  // namespace axc::service
