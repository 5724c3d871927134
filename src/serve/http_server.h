// Event-loop HTTP/1.1 server with socket-layer fault injection.
//
// One HttpServer binds one loopback listener on one EventLoop and serves
// every host routed to it (the OriginTier shards hosts across servers and
// routes by Host header). Connections are keep-alive by default and
// process pipelined requests strictly in order.
//
// An origin server reads the OriginTier's one faults::FaultPlanSlot (the
// verdict frontend passes none), and applies a fired rule with the effects
// net/transport.h shares with the sim plus its own socket-layer wire
// effect, where faults belong in a real deployment:
//
//  * server-error     → the shared synthetic 5xx page written back,
//                       handler never runs
//  * connection-drop  → TCP close before any response bytes; pipelined
//                       requests buffered behind the dropped one are
//                       discarded unevaluated (the client re-sends them on
//                       a fresh connection, so each logical request meets
//                       the fault schedule exactly once — as in the sim)
//  * timeout          → the connection goes silent for extra-ms, then
//                       closes; the client's deadline usually fires first
//  * truncate-body    → Content-Length declares the uncut size, the body
//                       stops early, and the connection closes — the wire
//                       shape of a mid-transfer cut
//  * corrupt-set-cookie → Set-Cookie values garbled with the host's stream,
//                       draw for draw as in the sim
//  * slow-drip        → the response trickles out as four chunked pieces
//                       on wheel timers spread over extra-ms
//
// Like the sim, fault schedules are per host: each host's cursors advance
// only with that host's requests, in arrival order on its (single) loop
// thread — no locks needed, same determinism story.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "faults/fault_engine.h"
#include "net/http.h"
#include "net/transport.h"
#include "serve/buffered_socket.h"
#include "serve/event_loop.h"
#include "serve/http1.h"
#include "util/rng.h"

namespace cookiepicker::serve {

// Resolves a Host header (lowercased, port stripped) to its handler, or
// nullptr for 404. Called on the loop thread only.
using HostRouter = std::function<net::HttpHandler*(const std::string& host)>;

struct HttpServerStats {
  std::uint64_t connectionsAccepted = 0;
  std::uint64_t requestsServed = 0;
  std::uint64_t faultsInjected = 0;
  std::uint64_t parseErrors = 0;
};

class HttpServer {
 public:
  // `faults` (not owned; nullptr for none) must outlive the server.
  HttpServer(EventLoop& loop, HostRouter router, std::uint64_t seed,
             const faults::FaultPlanSlot* faults = nullptr);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and registers the listener with
  // the loop. Call before the loop starts running (or from its thread).
  // Returns the bound port.
  std::uint16_t listen(std::uint16_t port = 0);

  // Loop thread (or post-stop) only.
  HttpServerStats stats() const { return stats_; }

 private:
  struct Connection {
    std::uint64_t id = 0;
    BufferedSocket socket;
    RequestParser parser;
    std::deque<ParsedRequest> pending;
    // A timeout hold or slow-drip is in progress; later pipelined requests
    // wait in `pending` so responses keep request order.
    bool busy = false;
    bool closing = false;        // close once the outbox flushes
    bool writableArmed = false;
    explicit Connection(int fd) : socket(fd) {}
  };

  void onAcceptable();
  void onConnectionEvent(int fd, std::uint64_t id, std::uint32_t events);
  void parseAndPump(Connection* conn);
  void pump(Connection* conn);
  void serveOne(Connection* conn, const ParsedRequest& parsed);
  void finishWrite(Connection* conn);
  void closeConnection(Connection* conn);
  Connection* findConnection(int fd, std::uint64_t id);

  struct HostFaults {
    faults::HostFaultState state;
    util::Pcg32 rng;
  };
  HostFaults& faultsFor(const std::string& host);

  EventLoop& loop_;
  HostRouter router_;
  std::uint64_t seed_;
  const faults::FaultPlanSlot* faults_;
  int listenFd_ = -1;
  std::uint64_t nextConnectionId_ = 1;
  // Wheel timers (timeout holds, slow-drips) capture a weak_ptr to this
  // token and no-op once the destructor resets it, so a timer outliving
  // the server on a still-running loop cannot touch freed state.
  std::shared_ptr<char> aliveToken_ = std::make_shared<char>(0);
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::unordered_map<std::string, HostFaults> hostFaults_;

  HttpServerStats stats_;
};

}  // namespace cookiepicker::serve
