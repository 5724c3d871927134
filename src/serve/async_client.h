// Asynchronous HTTP/1.1 client on an event loop.
//
// Per-host connection pools with keep-alive reuse, a per-host concurrency
// cap, and optional pipelining: up to maxPipelineDepth requests ride one
// connection back-to-back, responses completing strictly in request order
// (HTTP/1.1's pipelining contract). Requests beyond the caps queue per
// host and drain as slots free up.
//
// Failure handling speaks the sim Network's status-0 vocabulary so
// everything above the Transport seam classifies identically:
//   * peer closes before any response bytes → status 0, kConnectionDropped
//   * per-request deadline expires          → status 0, kTimedOut
//   * peer closes mid-body                  → the declared Content-Length
//     survives with the short body, so net::bodyTruncated() fires
// A connection that dies with pipelined requests behind the failed one
// re-queues them transparently (same attempt number — the origin never
// evaluated them), preserving exactly-once fault-schedule semantics.
//
// fetchWithRetry runs the browser's exponential-backoff policy on the
// loop's timer wheel — the socket-mode answer to the sim's virtual-clock
// retry loop, with the same attempt arithmetic and budget bookkeeping.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/http.h"
#include "net/transport.h"
#include "serve/buffered_socket.h"
#include "serve/event_loop.h"
#include "serve/http1.h"
#include "serve/origin_tier.h"
#include "util/rng.h"

namespace cookiepicker::serve {

struct AsyncClientConfig {
  HostResolver resolve;
  int maxConnectionsPerHost = 6;
  // 1 = plain keep-alive; >1 allows that many in-flight requests per
  // connection (pipelining).
  int maxPipelineDepth = 1;
  double requestDeadlineMs = 30000.0;
  std::uint64_t seed = 1;  // backoff jitter stream
};

struct AsyncClientStats {
  std::uint64_t dispatches = 0;
  std::uint64_t connectionsOpened = 0;
  // Dispatches sent on a connection that had already carried at least one
  // earlier request — the keep-alive reuse the bench gates on.
  std::uint64_t reusedDispatches = 0;
  std::uint64_t drops = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retriesScheduled = 0;

  double reuseRatio() const {
    return dispatches == 0
               ? 0.0
               : static_cast<double>(reusedDispatches) /
                     static_cast<double>(dispatches);
  }
};

class AsyncHttpClient {
 public:
  using FetchCallback = std::function<void(net::Exchange)>;
  using RetryCallback = std::function<void(net::FetchOutcome)>;

  AsyncHttpClient(EventLoop& loop, AsyncClientConfig config);
  ~AsyncHttpClient();
  AsyncHttpClient(const AsyncHttpClient&) = delete;
  AsyncHttpClient& operator=(const AsyncHttpClient&) = delete;

  // Thread-safe; `done` runs on the loop thread.
  void fetch(net::HttpRequest request, FetchCallback done);
  void fetchWithRetry(net::HttpRequest request, net::RetrySpec spec,
                      RetryCallback done);

  AsyncClientStats stats() const;

 private:
  struct InFlight {
    net::HttpRequest request;
    FetchCallback done;
    double sentAtMs = 0.0;
    std::size_t requestBytes = 0;
    TimerId deadline = kInvalidTimer;
  };
  struct Pending {
    net::HttpRequest request;
    FetchCallback done;
  };
  struct Conn {
    std::uint64_t id = 0;
    std::string host;
    BufferedSocket socket;
    ResponseParser parser;
    std::deque<InFlight> inflight;
    bool connecting = true;
    bool writableArmed = true;  // armed while the connect is in flight
    std::uint64_t sentCount = 0;
    explicit Conn(int fd) : socket(fd) {}
  };
  struct HostPool {
    std::deque<Pending> queue;
    std::vector<Conn*> conns;
  };
  struct RetryState;

  void fetchOnLoop(net::HttpRequest request, FetchCallback done);
  void pump(const std::string& host);
  Conn* openConnection(const std::string& host, std::uint16_t port);
  void sendOn(Conn* conn, Pending pending);
  void onConnEvent(int fd, std::uint64_t id, std::uint32_t events);
  void onReadable(Conn* conn);
  void completeFront(Conn* conn, ParsedResponse parsed);
  // Fails the front in-flight request with status 0/`reason`, re-queues the
  // rest, closes the connection.
  void failConnection(Conn* conn, const char* reason);
  void destroyConnection(Conn* conn, bool requeueInflight);
  void armWritable(Conn* conn, bool want);
  Conn* findConn(int fd, std::uint64_t id);
  void runRetryAttempt(std::shared_ptr<RetryState> state);

  EventLoop& loop_;
  AsyncClientConfig config_;
  std::unordered_map<int, std::unique_ptr<Conn>> connections_;
  std::unordered_map<std::string, HostPool> pools_;
  std::uint64_t nextConnId_ = 1;
  // Retry-backoff timers capture a weak_ptr to this token and no-op once
  // the destructor resets it, so a fetchWithRetry sleeping on the wheel
  // cannot fire into a destroyed client. (Deadline timers need no guard:
  // destroyConnection cancels them.)
  std::shared_ptr<char> aliveToken_ = std::make_shared<char>(0);
  util::Pcg32 rng_;

  mutable std::mutex statsMutex_;
  AsyncClientStats stats_;
};

}  // namespace cookiepicker::serve
