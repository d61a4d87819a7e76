// Epoll-based socket server exposing a service::QueryService.
//
// Threading model — an acceptor/worker split:
//   * One acceptor thread sits in blocking accept() on the listen socket
//     and hands each new connection to a worker (round robin).
//   * `num_workers` worker threads each own an epoll instance plus the
//     connections assigned to them; a worker decodes request frames
//     (wire_protocol.h), submits them to the QueryService and writes the
//     response frames back. Workers never run engine math — evaluation
//     happens on the service's dispatcher thread; the worker is woken
//     through an eventfd by the Submit on_done completion hook, so no
//     thread ever blocks per in-flight request.
//
// Ordering: responses on one connection are sent strictly in request order
// (a per-connection FIFO of pending replies), so clients may pipeline
// freely.
//
// Backpressure — bounded everywhere, by construction:
//   * More than `max_pipeline` unanswered requests on one connection, or a
//     service admission failure (queue full / memory budget), produce an
//     immediate kResourceExhausted response frame; queued requests that
//     outlive their deadline produce kDeadlineExceeded. The client always
//     gets a status frame — the server never buffers unboundedly on behalf
//     of a flooding client.
//   * When a connection's outgoing buffer exceeds a 64 MiB soft cap (a slow
//     reader), the worker stops reading from that socket until the buffer
//     drains — the kernel's TCP window then pushes back on the client.
//   * A request frame larger than kMaxRequestFrameBytes, or one that fails to
//     decode, is answered with an error frame and the connection is closed
//     (a garbage stream cannot be re-synchronised).
//
// Observability: csrplus.net.* metrics and net_read / net_dispatch /
// net_write spans (reference: docs/observability.md).

#ifndef CSRPLUS_NET_SERVER_H_
#define CSRPLUS_NET_SERVER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/wire_protocol.h"
#include "service/query_service.h"

namespace csrplus::net {

/// Server knobs.
struct ServerOptions {
  /// Interface to bind; empty = all interfaces.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Worker event-loop threads (the acceptor thread is extra).
  int num_workers = 2;
  /// Unanswered requests allowed per connection before the server answers
  /// kResourceExhausted instead of admitting more.
  int max_pipeline = 64;

  /// One routing target: a service plus its node-id translation between
  /// the wire and the engine, for graphs whose original ids were compacted
  /// at load time (e.g. sparse SNAP ids). `to_internal` maps each request
  /// query id to an engine index (a non-OK status is returned to the client
  /// as an error frame); `to_external` maps node ids in top-k responses
  /// back. Unset = identity. Both must be thread-safe: workers call them
  /// concurrently. Column bodies are positional (engine node order) and are
  /// never translated. Tenants load different graphs, so each has its own.
  struct Route {
    service::QueryService* service = nullptr;
    std::function<Result<Index>(int64_t)> to_internal;
    std::function<int64_t(Index)> to_external;
  };
  /// Multi-graph routing hook (wire v3 `graph_id` -> tenant). When set, each
  /// query request is dispatched to `router(graph_id)` — typically a thin
  /// wrapper over service::EngineRegistry::Route. Returning null answers
  /// the request with kNotFound. The returned Route must stay valid for the
  /// server's lifetime (tenant addresses are stable in the registry). Pings
  /// are answered without routing. When unset the server is single-service:
  /// every request goes to the constructor's service through an identity
  /// Route, and a non-empty graph_id is answered with kNotFound.
  std::function<const Route*(const std::string&)> router;
};

/// A TCP front end for one QueryService — or, with ServerOptions::router
/// set, for many (one per registry tenant). Every routed service must
/// outlive the server. Start() spawns the threads; Shutdown() (or the
/// destructor) cancels in-flight requests, flushes what it can and joins
/// them.
class Server {
 public:
  /// `service` is the single-service target; it may be null when
  /// `options.router` is set (all query traffic is then routed).
  explicit Server(service::QueryService* service, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor + workers. Fails with kIOError
  /// when the address cannot be bound; kFailedPrecondition when already
  /// started.
  Status Start();

  /// Stops accepting, cancels in-flight tickets, closes every connection
  /// and joins all threads. Idempotent; implied by the destructor. The
  /// underlying QueryService is not touched (the server does not own it).
  void Shutdown();

  /// The bound port (resolved after Start(), also for port 0).
  int port() const;
  /// "host:port" with the resolved port.
  std::string address() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace csrplus::net

#endif  // CSRPLUS_NET_SERVER_H_
