/// TcpConnection against the ReactorServer: concurrent clients, idle
/// behaviour and connect failures. Endpoint round trips, byte identity
/// with the loopback path and remote shutdown are covered by
/// test_reactor.cpp.
#include "axc/service/tcp.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "axc/obs/obs.hpp"
#include "axc/service/reactor.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {
namespace {

std::uint64_t counter_value(const std::string& name) {
  const auto snap = obs::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(Tcp, ConcurrentConnectionsEachGetTheirOwnAnswers) {
  Server server({.workers = 4});
  ReactorServer reactor(server, {});

  std::vector<std::thread> clients;
  std::vector<std::uint64_t> gates(4, 0);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&reactor, &gates, t] {
      TcpConnection connection("127.0.0.1", reactor.port());
      Client client(connection);
      for (int i = 0; i < 5; ++i) {
        CharacterizeAdderRequest req;
        req.family = AdderFamily::Loa;
        req.width = 8;
        req.param_a = static_cast<std::uint32_t>(t + 1);
        req.vectors = 64;
        gates[static_cast<std::size_t>(t)] =
            client.call(req).gate_count;
      }
    });
  }
  for (std::thread& c : clients) c.join();
  // Distinct configurations -> distinct gate counts, so any cross-wired
  // response would show up as a duplicate.
  for (int t = 1; t < 4; ++t) {
    EXPECT_NE(gates[static_cast<std::size_t>(t)], gates[0]);
  }
  reactor.stop();
  server.stop();
}

TEST(Tcp, IdleAcceptorTakesZeroWakeups) {
  // The reactor waits with no timeout and an eventfd for stop signals: an
  // idle server must take exactly zero wakeups over an idle window, and
  // shutdown must still be immediate. Counter deltas, not timing
  // asserts: robust on loaded CI.
  Server server({.workers = 1});
  ReactorServer reactor(server, {});
  {
    TcpConnection connection("127.0.0.1", reactor.port());
    Client client(connection);
    client.call(PingRequest{});  // prove the reactor is alive first
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t wakeups_before =
      counter_value("service.reactor.epoll_wakeups");
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(counter_value("service.reactor.epoll_wakeups"), wakeups_before);

  const auto stop_started = std::chrono::steady_clock::now();
  reactor.stop();
  const auto stop_took = std::chrono::steady_clock::now() - stop_started;
  EXPECT_TRUE(reactor.stopped());
  // Generous bound: the point is "eventfd wakeup", not "poll interval".
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(stop_took)
                .count(),
            5000);
  server.stop();
}

TEST(Tcp, ConnectToClosedPortThrows) {
  std::uint16_t dead_port = 0;
  {
    Server server({.workers = 1});
    ReactorServer reactor(server, {});
    dead_port = reactor.port();
    reactor.stop();
    server.stop();
  }
  EXPECT_THROW(TcpConnection("127.0.0.1", dead_port), std::runtime_error);
}

}  // namespace
}  // namespace axc::service
