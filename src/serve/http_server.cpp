#include "serve/http_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/recorder.h"
#include "util/strings.h"

namespace cookiepicker::serve {

namespace {

// Slow-drip responses are cut into this many chunked pieces, spaced evenly
// across the rule's extra-ms.
constexpr int kSlowDripPieces = 4;

// The Host header without an optional :port suffix, lowercased.
std::string hostOf(const ParsedRequest& parsed) {
  std::string host = parsed.headers.get("Host").value_or("");
  const std::size_t colon = host.rfind(':');
  if (colon != std::string::npos) host.resize(colon);
  return util::toLowerAscii(host);
}

}  // namespace

HttpServer::HttpServer(EventLoop& loop, HostRouter router, std::uint64_t seed,
                       const faults::FaultPlanSlot* faults)
    : loop_(loop), router_(std::move(router)), seed_(seed), faults_(faults) {}

HttpServer::~HttpServer() {
  // Connection state is loop-confined; drop it on the loop thread (or
  // inline once the loop has stopped) so destruction order relative to
  // the loop doesn't matter. Resetting aliveToken_ defuses wheel timers
  // (timeout holds, slow-drips) that would otherwise fire into freed state.
  loop_.runSync([this]() {
    aliveToken_.reset();
    std::vector<Connection*> conns;
    conns.reserve(connections_.size());
    for (auto& [fd, conn] : connections_) conns.push_back(conn.get());
    for (Connection* conn : conns) closeConnection(conn);
    if (listenFd_ >= 0) {
      loop_.remove(listenFd_);
      ::close(listenFd_);
      listenFd_ = -1;
    }
  });
}

std::uint16_t HttpServer::listen(std::uint16_t port) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw std::runtime_error(std::string("bind() failed: ") +
                             std::strerror(errno));
  }
  if (::listen(listenFd_, 512) != 0) {
    throw std::runtime_error("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  loop_.add(listenFd_, EventLoop::kReadable,
            [this](std::uint32_t) { onAcceptable(); });
  return ntohs(addr.sin_port);
}

void HttpServer::onAcceptable() {
  while (true) {
    const int fd = ::accept4(listenFd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(fd);
    conn->id = nextConnectionId_++;
    Connection* raw = conn.get();
    connections_[fd] = std::move(conn);
    ++stats_.connectionsAccepted;
    const std::uint64_t id = raw->id;
    loop_.add(fd, EventLoop::kReadable, [this, fd, id](std::uint32_t events) {
      onConnectionEvent(fd, id, events);
    });
  }
}

HttpServer::Connection* HttpServer::findConnection(int fd, std::uint64_t id) {
  auto it = connections_.find(fd);
  if (it == connections_.end() || it->second->id != id) return nullptr;
  return it->second.get();
}

void HttpServer::onConnectionEvent(int fd, std::uint64_t id,
                                   std::uint32_t events) {
  Connection* conn = findConnection(fd, id);
  if (conn == nullptr) return;
  if (events & EventLoop::kError) {
    closeConnection(conn);
    return;
  }
  if (events & EventLoop::kWritable) {
    if (!conn->socket.flush()) {
      closeConnection(conn);
      return;
    }
    finishWrite(conn);
    conn = findConnection(fd, id);
    if (conn == nullptr) return;
  }
  if (events & EventLoop::kReadable) {
    conn->socket.fillFromSocket();
    if (conn->socket.hadError()) {
      closeConnection(conn);
      return;
    }
    conn->parser.feed(conn->socket.inbox());
    conn->socket.inbox().clear();
    parseAndPump(conn);
    conn = findConnection(fd, id);
    if (conn == nullptr) return;
    if (conn->socket.eof() && !conn->socket.wantsWrite() && !conn->busy &&
        conn->pending.empty()) {
      closeConnection(conn);
    }
  }
}

void HttpServer::parseAndPump(Connection* conn) {
  while (true) {
    ParsedRequest parsed;
    const ParseStatus status = conn->parser.poll(&parsed);
    if (status == ParseStatus::Ready) {
      conn->pending.push_back(std::move(parsed));
      continue;
    }
    if (status == ParseStatus::Error) {
      ++stats_.parseErrors;
      obs::countGlobal(obs::Counter::ServeParseErrors);
      const net::HttpResponse reject =
          conn->parser.error() == "oversized-headers"
              ? net::HttpResponse::error(431,
                                         "Request Header Fields Too Large")
              : net::HttpResponse::error(400, "Bad Request");
      ResponseWireOptions options;
      options.keepAlive = false;
      conn->socket.queueWrite(serializeResponse(reject, options));
      conn->closing = true;
      conn->pending.clear();
      if (!conn->socket.flush()) {
        closeConnection(conn);
        return;
      }
      finishWrite(conn);
      return;
    }
    break;  // NeedMore
  }
  pump(conn);
}

void HttpServer::pump(Connection* conn) {
  while (!conn->busy && !conn->closing && !conn->pending.empty()) {
    const int fd = conn->socket.fd();
    const std::uint64_t id = conn->id;
    ParsedRequest parsed = std::move(conn->pending.front());
    conn->pending.pop_front();
    serveOne(conn, parsed);
    conn = findConnection(fd, id);  // serveOne may drop the connection
    if (conn == nullptr) return;
  }
  if (!conn->socket.flush()) {
    closeConnection(conn);
    return;
  }
  finishWrite(conn);
}

HttpServer::HostFaults& HttpServer::faultsFor(const std::string& host) {
  auto it = hostFaults_.find(host);
  if (it == hostFaults_.end()) {
    HostFaults entry;
    // The sim Network's per-host stream, so probability gates and
    // Set-Cookie corruption draw alike on both transports.
    entry.rng = net::hostStream(seed_, host);
    it = hostFaults_.emplace(host, std::move(entry)).first;
  }
  return it->second;
}

void HttpServer::serveOne(Connection* conn, const ParsedRequest& parsed) {
  const std::string host = hostOf(parsed);
  net::HttpRequest request = toHttpRequest(parsed, host);
  net::HttpHandler* handler = router_ ? router_(host) : nullptr;

  ResponseWireOptions options;
  options.keepAlive = parsed.keepAlive;

  faults::FiredRule fault;
  HostFaults* hostFaults = nullptr;
  if (handler != nullptr && faults_ != nullptr) {
    hostFaults = &faultsFor(host);
    fault = faults_->evaluate(hostFaults->state, host,
                              net::faultScope(request.kind),
                              request.attempt == 0, hostFaults->rng);
  }
  const auto countFault = [this]() {
    ++stats_.faultsInjected;
    obs::countGlobal(obs::Counter::ServeFaultsInjected);
  };
  // The handler never runs; what goes on the wire instead is this server's.
  const bool shortCircuit = fault && net::shortCircuits(fault->action);
  if (shortCircuit) countFault();

  if (fault && fault->action == faults::Action::ConnectionDrop) {
    // Close with nothing on the wire. Requests pipelined behind this one
    // die unevaluated; the client re-issues them elsewhere.
    closeConnection(conn);
    return;
  }
  if (fault && fault->action == faults::Action::Timeout) {
    // Go silent, then drop. The connection is parked: no pipelined request
    // behind it is served meanwhile.
    conn->busy = true;
    const int fd = conn->socket.fd();
    const std::uint64_t id = conn->id;
    loop_.runAfter(fault->extraLatencyMs,
                   [this, fd, id, alive = std::weak_ptr<char>(aliveToken_)]() {
                     if (alive.expired()) return;  // server gone, loop up
                     if (Connection* held = findConnection(fd, id)) {
                       closeConnection(held);
                     }
                   });
    return;
  }

  net::HttpResponse response;
  if (handler == nullptr) {
    // Same page the sim serves for an unregistered host.
    response = net::HttpResponse::notFound(request.url.toString());
  } else if (shortCircuit) {  // the one left: a server error
    response = net::serverErrorPage(fault->status);
  } else {
    response = handler->handle(request);
  }
  ++stats_.requestsServed;
  obs::countGlobal(obs::Counter::ServeRequestsServed);

  if (fault && fault->action == faults::Action::TruncateBody) {
    if (response.body.size() > fault->truncateAtBytes) {
      countFault();
      options.declaredContentLength = response.body.size();
      options.keepAlive = false;
      response.body.resize(
          static_cast<std::size_t>(fault->truncateAtBytes));
      conn->socket.queueWrite(serializeResponse(response, options));
      conn->closing = true;  // the lying Content-Length poisons the stream
      return;
    }
    fault = {};
  }
  if (fault && fault->action == faults::Action::CorruptSetCookie &&
      net::corruptSetCookies(response, hostFaults->rng)) {
    countFault();
  }
  if (fault && fault->action == faults::Action::SlowDrip) {
    countFault();
    // Trickle the body out as chunked pieces spread across extra-ms. The
    // connection is parked so pipelined responses keep request order.
    conn->busy = true;
    conn->socket.queueWrite(serializeChunkedHead(response, parsed.keepAlive));
    const int pieces = kSlowDripPieces;
    const double stepMs = fault->extraLatencyMs / pieces;
    const std::size_t pieceBytes =
        std::max<std::size_t>(1, (response.body.size() + pieces - 1) / pieces);
    const int fd = conn->socket.fd();
    const std::uint64_t id = conn->id;
    const bool keepAlive = parsed.keepAlive;
    auto body = std::make_shared<std::string>(std::move(response.body));
    for (int piece = 0; piece < pieces; ++piece) {
      const bool last = piece == pieces - 1;
      loop_.runAfter(stepMs * (piece + 1),
                     [this, fd, id, body, piece, pieceBytes, last, keepAlive,
                      alive = std::weak_ptr<char>(aliveToken_)]() {
        if (alive.expired()) return;  // server destroyed, loop still up
        Connection* held = findConnection(fd, id);
        if (held == nullptr) return;
        const std::size_t start = pieceBytes * static_cast<std::size_t>(piece);
        if (start < body->size()) {
          held->socket.queueWrite(encodeChunk(
              std::string_view(*body).substr(start, pieceBytes)));
        }
        if (last) {
          held->socket.queueWrite(encodeLastChunk());
          held->busy = false;
          if (!keepAlive) held->closing = true;
        }
        if (!held->socket.flush()) {
          closeConnection(held);
          return;
        }
        finishWrite(held);
        if (last) {
          if (Connection* again = findConnection(fd, id)) pump(again);
        }
      });
    }
    return;
  }

  conn->socket.queueWrite(serializeResponse(response, options));
  if (!parsed.keepAlive) conn->closing = true;
}

void HttpServer::finishWrite(Connection* conn) {
  const bool drained = !conn->socket.wantsWrite();
  if (drained && conn->closing) {
    closeConnection(conn);
    return;
  }
  const bool wantWritable = conn->socket.wantsWrite();
  if (wantWritable != conn->writableArmed) {
    conn->writableArmed = wantWritable;
    loop_.modify(conn->socket.fd(),
                 EventLoop::kReadable |
                     (wantWritable ? EventLoop::kWritable : 0u));
  }
}

void HttpServer::closeConnection(Connection* conn) {
  const int fd = conn->socket.fd();
  loop_.remove(fd);
  connections_.erase(fd);
}

}  // namespace cookiepicker::serve
