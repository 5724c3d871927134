#include "serve/origin_tier.h"

#include <algorithm>
#include <stdexcept>

#include "util/strings.h"

namespace cookiepicker::serve {

OriginTier::OriginTier(OriginTierConfig config)
    : config_(config), faults_(config_.faultPlan) {
  const int threads = std::max(1, config_.threads);
  for (int i = 0; i < threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

OriginTier::~OriginTier() { stop(); }

std::size_t OriginTier::shardIndexFor(const std::string& host) const {
  return static_cast<std::size_t>(util::fnv1a64(host) % shards_.size());
}

void OriginTier::addHost(const std::string& host,
                         std::shared_ptr<net::HttpHandler> handler) {
  if (running_) throw std::logic_error("OriginTier::addHost after start()");
  const std::string key = util::toLowerAscii(host);
  const std::size_t shard = shardIndexFor(key);
  shards_[shard]->hosts[key] = std::move(handler);
  hostShard_[key] = shard;
}

void OriginTier::start() {
  if (running_) return;
  for (auto& shard : shards_) {
    shard->loop = std::make_unique<EventLoop>();
    // The router reads the shard's host map, which is frozen after start().
    Shard* raw = shard.get();
    shard->server = std::make_unique<HttpServer>(
        *shard->loop,
        [raw](const std::string& host) -> net::HttpHandler* {
          const auto it = raw->hosts.find(host);
          return it == raw->hosts.end() ? nullptr : it->second.get();
        },
        config_.seed, &faults_);
    shard->port = shard->server->listen(0);
    shard->thread = std::thread([raw]() { raw->loop->run(); });
  }
  running_ = true;
}

void OriginTier::stop() {
  if (!running_) {
    // Shards may still hold joined-out threads from a partial start.
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
    return;
  }
  for (auto& shard : shards_) {
    if (shard->loop) shard->loop->stop();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
    if (shard->server) {
      const HttpServerStats s = shard->server->stats();
      retiredStats_.connectionsAccepted += s.connectionsAccepted;
      retiredStats_.requestsServed += s.requestsServed;
      retiredStats_.faultsInjected += s.faultsInjected;
      retiredStats_.parseErrors += s.parseErrors;
    }
    shard->server.reset();
    shard->loop.reset();
  }
  running_ = false;
}

std::optional<std::uint16_t> OriginTier::portForHost(
    const std::string& host) const {
  const auto it = hostShard_.find(util::toLowerAscii(host));
  if (it == hostShard_.end()) return std::nullopt;
  return shards_[it->second]->port;
}

HostResolver OriginTier::resolver() const {
  return [this](const std::string& host) { return portForHost(host); };
}

HttpServerStats OriginTier::stats() const {
  HttpServerStats total = retiredStats_;
  for (const auto& shard : shards_) {
    if (!shard->server) continue;
    const HttpServerStats s = shard->server->stats();
    total.connectionsAccepted += s.connectionsAccepted;
    total.requestsServed += s.requestsServed;
    total.faultsInjected += s.faultsInjected;
    total.parseErrors += s.parseErrors;
  }
  return total;
}

}  // namespace cookiepicker::serve
