#include "serve/async_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/recorder.h"
#include "util/strings.h"

namespace cookiepicker::serve {

AsyncHttpClient::AsyncHttpClient(EventLoop& loop, AsyncClientConfig config)
    : loop_(loop),
      config_(std::move(config)),
      rng_(config_.seed, /*sequence=*/0x636c6e74UL) {}

AsyncHttpClient::~AsyncHttpClient() {
  // Connections, pools, and deadline timers are loop-confined; tear them
  // down on the loop thread (or inline once the loop has stopped) so the
  // natural stack order — client declared after the LoopThread, destroyed
  // before it — is safe. Callers should not have fetches outstanding: any
  // still in flight are dropped without their callbacks running, and a
  // fetchWithRetry sleeping on the wheel is defused via aliveToken_.
  loop_.runSync([this]() {
    aliveToken_.reset();
    std::vector<Conn*> conns;
    conns.reserve(connections_.size());
    for (auto& [fd, conn] : connections_) conns.push_back(conn.get());
    for (Conn* conn : conns) {
      destroyConnection(conn, /*requeueInflight=*/false);
    }
    pools_.clear();
  });
}

AsyncClientStats AsyncHttpClient::stats() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return stats_;
}

void AsyncHttpClient::fetch(net::HttpRequest request, FetchCallback done) {
  if (loop_.inLoopThread()) {
    fetchOnLoop(std::move(request), std::move(done));
    return;
  }
  auto boxedRequest = std::make_shared<net::HttpRequest>(std::move(request));
  auto boxedDone = std::make_shared<FetchCallback>(std::move(done));
  loop_.post([this, boxedRequest, boxedDone]() {
    fetchOnLoop(std::move(*boxedRequest), std::move(*boxedDone));
  });
}

void AsyncHttpClient::fetchOnLoop(net::HttpRequest request,
                                  FetchCallback done) {
  const std::string host = util::toLowerAscii(request.url.host());
  const auto port = config_.resolve ? config_.resolve(host) : std::nullopt;
  if (!port) {
    // Same page the sim synthesizes for a host nothing answers for.
    net::Exchange exchange;
    exchange.requestBytes = serializeRequest(request).size();
    exchange.response = net::HttpResponse::notFound(request.url.toString());
    exchange.responseBytes = net::wireSize(exchange.response);
    {
      std::lock_guard<std::mutex> lock(statsMutex_);
      ++stats_.dispatches;
    }
    done(std::move(exchange));
    return;
  }
  HostPool& pool = pools_[host];
  pool.queue.push_back(Pending{std::move(request), std::move(done)});
  pump(host);
}

void AsyncHttpClient::pump(const std::string& host) {
  HostPool& pool = pools_[host];
  while (!pool.queue.empty()) {
    // Prefer the live connection with the most free pipeline slots; open a
    // fresh one only when every pooled connection is saturated.
    Conn* best = nullptr;
    for (Conn* conn : pool.conns) {
      if (static_cast<int>(conn->inflight.size()) >= config_.maxPipelineDepth) {
        continue;
      }
      if (best == nullptr || conn->inflight.size() < best->inflight.size()) {
        best = conn;
      }
    }
    if (best == nullptr) {
      if (static_cast<int>(pool.conns.size()) >=
          std::max(1, config_.maxConnectionsPerHost)) {
        return;  // saturated; a completion will re-pump
      }
      const auto port = config_.resolve(host);
      if (!port) return;
      best = openConnection(host, *port);
      if (best == nullptr) {
        // Could not even create a socket: fail one request as a drop.
        Pending pending = std::move(pool.queue.front());
        pool.queue.pop_front();
        net::Exchange exchange;
        exchange.requestBytes = serializeRequest(pending.request).size();
        exchange.response.status = 0;
        exchange.response.statusText = net::kConnectionDropped;
        {
          std::lock_guard<std::mutex> lock(statsMutex_);
          ++stats_.dispatches;
          ++stats_.drops;
        }
        pending.done(std::move(exchange));
        continue;
      }
      pool.conns.push_back(best);
    }
    Pending pending = std::move(pool.queue.front());
    pool.queue.pop_front();
    sendOn(best, std::move(pending));
  }
}

AsyncHttpClient::Conn* AsyncHttpClient::openConnection(const std::string& host,
                                                       std::uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }
  auto conn = std::make_unique<Conn>(fd);
  conn->id = nextConnId_++;
  conn->host = host;
  conn->connecting = (rc != 0);
  conn->writableArmed = conn->connecting;
  Conn* raw = conn.get();
  connections_[fd] = std::move(conn);
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++stats_.connectionsOpened;
  }
  obs::countGlobal(obs::Counter::ServeConnectionsOpened);
  const std::uint64_t id = raw->id;
  loop_.add(fd,
            EventLoop::kReadable |
                (raw->connecting ? EventLoop::kWritable : 0u),
            [this, fd, id](std::uint32_t events) {
              onConnEvent(fd, id, events);
            });
  return raw;
}

void AsyncHttpClient::sendOn(Conn* conn, Pending pending) {
  InFlight flight;
  flight.request = std::move(pending.request);
  flight.done = std::move(pending.done);
  flight.sentAtMs = EventLoop::monotonicMs();
  const std::string wire = serializeRequest(flight.request);
  flight.requestBytes = wire.size();
  conn->socket.queueWrite(wire);
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++stats_.dispatches;
    if (conn->sentCount > 0) ++stats_.reusedDispatches;
  }
  obs::countGlobal(obs::Counter::ServeDispatches);
  if (conn->sentCount > 0) {
    obs::countGlobal(obs::Counter::ServeReusedDispatches);
  }
  ++conn->sentCount;
  const int fd = conn->socket.fd();
  const std::uint64_t connId = conn->id;
  flight.deadline = loop_.runAfter(
      config_.requestDeadlineMs, [this, fd, connId]() {
        Conn* held = findConn(fd, connId);
        if (held == nullptr) return;
        {
          std::lock_guard<std::mutex> lock(statsMutex_);
          ++stats_.timeouts;
        }
        failConnection(held, net::kTimedOut);
      });
  conn->inflight.push_back(std::move(flight));
  if (!conn->connecting) {
    if (!conn->socket.flush()) {
      failConnection(conn, net::kConnectionDropped);
      return;
    }
    armWritable(conn, conn->socket.wantsWrite());
  }
}

AsyncHttpClient::Conn* AsyncHttpClient::findConn(int fd, std::uint64_t id) {
  auto it = connections_.find(fd);
  if (it == connections_.end() || it->second->id != id) return nullptr;
  return it->second.get();
}

void AsyncHttpClient::armWritable(Conn* conn, bool want) {
  if (want == conn->writableArmed) return;
  conn->writableArmed = want;
  loop_.modify(conn->socket.fd(),
               EventLoop::kReadable | (want ? EventLoop::kWritable : 0u));
}

void AsyncHttpClient::onConnEvent(int fd, std::uint64_t id,
                                  std::uint32_t events) {
  Conn* conn = findConn(fd, id);
  if (conn == nullptr) return;
  if (events & EventLoop::kWritable) {
    if (conn->connecting) {
      int soError = 0;
      socklen_t len = sizeof(soError);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &len);
      if (soError != 0) {
        failConnection(conn, net::kConnectionDropped);
        return;
      }
      conn->connecting = false;
    }
    if (!conn->socket.flush()) {
      failConnection(conn, net::kConnectionDropped);
      return;
    }
    armWritable(conn, conn->socket.wantsWrite());
    conn = findConn(fd, id);
    if (conn == nullptr) return;
  }
  if (events & EventLoop::kError) {
    failConnection(conn, net::kConnectionDropped);
    return;
  }
  if (events & EventLoop::kReadable) {
    onReadable(conn);
  }
}

void AsyncHttpClient::onReadable(Conn* conn) {
  const int fd = conn->socket.fd();
  const std::uint64_t id = conn->id;
  conn->socket.fillFromSocket();
  conn->parser.feed(conn->socket.inbox());
  conn->socket.inbox().clear();
  while (true) {
    ParsedResponse parsed;
    const ParseStatus status = conn->parser.poll(&parsed);
    if (status == ParseStatus::Ready) {
      completeFront(conn, std::move(parsed));
      conn = findConn(fd, id);
      if (conn == nullptr) return;
      continue;
    }
    if (status == ParseStatus::Error) {
      failConnection(conn, net::kConnectionDropped);
      return;
    }
    break;
  }
  if (conn->socket.eof() || conn->socket.hadError()) {
    ParsedResponse parsed;
    const ParseStatus status = conn->parser.finishAtEof(&parsed);
    if (status == ParseStatus::Ready && !conn->inflight.empty()) {
      completeFront(conn, std::move(parsed));
      conn = findConn(fd, id);
      if (conn == nullptr) return;
      destroyConnection(conn, /*requeueInflight=*/true);
      return;
    }
    if (!conn->inflight.empty()) {
      failConnection(conn, net::kConnectionDropped);
      return;
    }
    destroyConnection(conn, /*requeueInflight=*/false);
  }
}

void AsyncHttpClient::completeFront(Conn* conn, ParsedResponse parsed) {
  if (conn->inflight.empty()) {
    // A response nobody asked for: protocol violation; kill the stream.
    destroyConnection(conn, /*requeueInflight=*/false);
    return;
  }
  InFlight flight = std::move(conn->inflight.front());
  conn->inflight.pop_front();
  loop_.cancelTimer(flight.deadline);
  const bool keepAlive = parsed.keepAlive;
  net::Exchange exchange;
  exchange.latencyMs = EventLoop::monotonicMs() - flight.sentAtMs;
  exchange.requestBytes = flight.requestBytes;
  exchange.response = toHttpResponse(std::move(parsed));
  exchange.responseBytes = net::wireSize(exchange.response);
  {
    obs::MetricsRegistry& global = obs::MetricsRegistry::global();
    if (global.enabled()) {
      global.recordTimerNs(
          obs::Timer::ServeDispatch,
          static_cast<std::uint64_t>(std::max(0.0, exchange.latencyMs) * 1e6));
    }
  }
  const std::string host = conn->host;
  const int fd = conn->socket.fd();
  const std::uint64_t id = conn->id;
  // The callback may re-enter fetch()/pump() and tear this connection down.
  flight.done(std::move(exchange));
  conn = findConn(fd, id);
  if (!keepAlive && conn != nullptr) {
    destroyConnection(conn, /*requeueInflight=*/true);
  }
  pump(host);
}

void AsyncHttpClient::failConnection(Conn* conn, const char* reason) {
  if (!conn->inflight.empty()) {
    InFlight flight = std::move(conn->inflight.front());
    conn->inflight.pop_front();
    loop_.cancelTimer(flight.deadline);
    net::Exchange exchange;
    exchange.latencyMs = EventLoop::monotonicMs() - flight.sentAtMs;
    exchange.requestBytes = flight.requestBytes;
    exchange.response.status = 0;
    exchange.response.statusText = reason;
    if (std::string_view(reason) != net::kTimedOut) {
      // A timeout was counted by its deadline callback.
      std::lock_guard<std::mutex> lock(statsMutex_);
      ++stats_.drops;
    }
    const std::string host = conn->host;
    destroyConnection(conn, /*requeueInflight=*/true);
    flight.done(std::move(exchange));
    pump(host);
    return;
  }
  destroyConnection(conn, /*requeueInflight=*/false);
}

void AsyncHttpClient::destroyConnection(Conn* conn, bool requeueInflight) {
  const int fd = conn->socket.fd();
  const std::string host = conn->host;
  HostPool& pool = pools_[host];
  pool.conns.erase(std::remove(pool.conns.begin(), pool.conns.end(), conn),
                   pool.conns.end());
  // Unanswered pipelined requests go back to the head of the host queue in
  // their original order; the origin never evaluated them, so re-sending
  // keeps every logical request's fault-schedule slot intact.
  std::deque<InFlight> orphans = std::move(conn->inflight);
  loop_.remove(fd);
  connections_.erase(fd);
  if (requeueInflight) {
    for (auto it = orphans.rbegin(); it != orphans.rend(); ++it) {
      loop_.cancelTimer(it->deadline);
      pool.queue.push_front(
          Pending{std::move(it->request), std::move(it->done)});
    }
    if (!pool.queue.empty()) pump(host);
  } else {
    for (InFlight& orphan : orphans) loop_.cancelTimer(orphan.deadline);
  }
}

// ---- retrying fetch ----

struct AsyncHttpClient::RetryState {
  net::HttpRequest request;
  net::RetrySpec spec;
  RetryCallback done;
  int attempt = 0;  // index of the attempt in flight
  std::uint64_t budgetLeft = 0;
  net::FetchOutcome outcome;
};

void AsyncHttpClient::fetchWithRetry(net::HttpRequest request,
                                     net::RetrySpec spec, RetryCallback done) {
  auto state = std::make_shared<RetryState>();
  state->request = std::move(request);
  state->spec = spec;
  state->done = std::move(done);
  state->budgetLeft = spec.retryBudget;
  if (loop_.inLoopThread()) {
    runRetryAttempt(std::move(state));
  } else {
    loop_.post([this, state]() { runRetryAttempt(state); });
  }
}

void AsyncHttpClient::runRetryAttempt(std::shared_ptr<RetryState> state) {
  state->request.attempt = state->attempt;
  net::HttpRequest attemptRequest = state->request;
  fetchOnLoop(std::move(attemptRequest), [this,
                                          state](net::Exchange exchange) {
    net::FetchOutcome& outcome = state->outcome;
    outcome.totalLatencyMs += exchange.latencyMs;
    outcome.attempts = state->attempt + 1;
    const std::string reason = net::fetchFailureReason(exchange.response);
    if (reason.empty()) {
      outcome.exchange = std::move(exchange);
      outcome.failureReason.clear();
      state->done(std::move(outcome));
      return;
    }
    // Same decision order as the browser's virtual-clock loop: attempt
    // ceiling first, then the session retry budget.
    if (state->attempt + 1 >= state->spec.maxAttempts) {
      outcome.exchange = std::move(exchange);
      outcome.degraded = true;
      outcome.failureReason = reason;
      state->done(std::move(outcome));
      return;
    }
    if (state->budgetLeft == 0) {
      outcome.exchange = std::move(exchange);
      outcome.degraded = true;
      outcome.budgetExhausted = true;
      outcome.failureReason = reason;
      state->done(std::move(outcome));
      return;
    }
    const double backoff = net::backoffMs(state->spec, state->attempt, rng_);
    outcome.totalLatencyMs += backoff;
    ++outcome.retriesUsed;
    --state->budgetLeft;
    ++state->attempt;
    {
      std::lock_guard<std::mutex> lock(statsMutex_);
      ++stats_.retriesScheduled;
    }
    obs::countGlobal(obs::Counter::ServeRetriesScheduled);
    loop_.runAfter(backoff,
                   [this, state,
                    alive = std::weak_ptr<char>(aliveToken_)]() {
                     if (alive.expired()) return;  // client destroyed
                     runRetryAttempt(state);
                   });
  });
}

}  // namespace cookiepicker::serve
