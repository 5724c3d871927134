// Multi-threaded synthetic origin tier.
//
// Hosts the site-generator's WebSites behind real loopback listeners: N
// event-loop threads, each with its own HttpServer, with hosts sharded
// across them by name hash. A host lives on exactly one loop thread, so
// its stateful handler (WebSite advances a fetch counter per request) and
// its fault-schedule cursors need no locks and see requests in a single
// well-defined order — the socket-tier analog of the sim Network's
// per-host dispatch mutex.
//
// The tier owns one faults::FaultPlanSlot, installed from the config's
// plan, and every shard's HttpServer reads it, so a plan replays alike on
// every shard and as in the sim.
//
// Register hosts, then start(); the tier binds one ephemeral port per
// shard and resolves host names to ports via resolver() — the loopback
// stand-in for DNS that the AsyncHttpClient plugs in.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "faults/fault_engine.h"
#include "faults/fault_plan.h"
#include "net/http.h"
#include "net/transport.h"
#include "serve/event_loop.h"
#include "serve/http_server.h"

namespace cookiepicker::serve {

using HostResolver =
    std::function<std::optional<std::uint16_t>(const std::string& host)>;

struct OriginTierConfig {
  int threads = 1;
  std::uint64_t seed = 2007;
  // The plan every shard replays (nullptr: none).
  std::shared_ptr<const faults::FaultPlan> faultPlan;
};

class OriginTier {
 public:
  explicit OriginTier(OriginTierConfig config = {});
  ~OriginTier();
  OriginTier(const OriginTier&) = delete;
  OriginTier& operator=(const OriginTier&) = delete;

  // Before start() only. The tier shares ownership of the handler.
  void addHost(const std::string& host,
               std::shared_ptr<net::HttpHandler> handler);

  void start();
  void stop();

  std::optional<std::uint16_t> portForHost(const std::string& host) const;
  HostResolver resolver() const;

  int threads() const { return static_cast<int>(shards_.size()); }
  // Aggregated across shards; call after stop() (or accept slight skew).
  HttpServerStats stats() const;

 private:
  struct Shard {
    std::unique_ptr<EventLoop> loop;
    std::unique_ptr<HttpServer> server;
    std::unordered_map<std::string, std::shared_ptr<net::HttpHandler>> hosts;
    std::uint16_t port = 0;
    std::thread thread;
  };

  std::size_t shardIndexFor(const std::string& host) const;

  OriginTierConfig config_;
  faults::FaultPlanSlot faults_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::string, std::size_t> hostShard_;
  bool running_ = false;
  // Counters carried over from shards already torn down by stop().
  HttpServerStats retiredStats_;
};

}  // namespace cookiepicker::serve
