#include "net/server.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "net/socket_util.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace csrplus::net {
namespace {

// Outgoing-buffer level above which a worker stops reading from the
// connection until it drains (slow-reader backpressure).
constexpr std::size_t kWriteBufferSoftBytes = std::size_t{64} << 20;

void CountBytesIn(int64_t n) {
  CSRPLUS_OBS_COUNTER_ADD("csrplus.net.bytes_in", "bytes",
                          "bytes read from client sockets", n);
}

void CountBytesOut(int64_t n) {
  CSRPLUS_OBS_COUNTER_ADD("csrplus.net.bytes_out", "bytes",
                          "bytes written to client sockets", n);
}

void CountDecodeError() {
  CSRPLUS_OBS_COUNTER_ADD("csrplus.net.decode_errors", "frames",
                          "request frames that failed to decode", 1);
}

void CountFrameRejected() {
  CSRPLUS_OBS_COUNTER_ADD(
      "csrplus.net.frames_rejected", "frames",
      "well-formed request frames refused for backpressure (pipeline cap, "
      "admission queue, memory budget)",
      1);
}

// The worker wake-up channel. Completion callbacks handed to
// QueryService::Submit capture a shared_ptr to this object, so a callback
// that fires while (or after) the worker shuts down still writes a live fd.
class WakeFd {
 public:
  WakeFd() : fd_(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~WakeFd() {
    if (fd_ >= 0) close(fd_);
  }
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  int fd() const { return fd_; }
  void Notify() const {
    const uint64_t one = 1;
    // A full eventfd counter still wakes the reader; nothing to handle.
    [[maybe_unused]] const ssize_t n = write(fd_, &one, sizeof(one));
  }
  void Drain() const {
    uint64_t value = 0;
    while (read(fd_, &value, sizeof(value)) > 0) {
    }
  }

 private:
  int fd_;
};

// One queued reply on a connection. Replies go out strictly in request
// order; a reply is either pre-encoded (pings, admission errors — ready
// immediately) or waits on a service ticket.
struct PendingReply {
  std::string ready;  ///< encoded frame; used when `ticket` is empty
  std::optional<service::QueryService::Ticket> ticket;
  bool wants_topk = false;  ///< request asked for top_k > 0
  /// Ticket replies only: the route the request went through, for its
  /// to_external translation.
  const ServerOptions::Route* route = nullptr;
};

struct Connection {
  int fd = -1;
  std::vector<uint8_t> rbuf;
  std::size_t rsize = 0;  ///< valid bytes at the front of rbuf
  std::string wbuf;
  std::size_t woff = 0;  ///< bytes of wbuf already written
  std::deque<PendingReply> pending;
  bool closing = false;        ///< flush wbuf, then close
  bool reading_paused = false; ///< EPOLLIN off (slow reader backpressure)
  bool want_write = false;     ///< EPOLLOUT on
};

// Encodes the response of a finished ticket reply onto `out`. The event
// loop and the shutdown drain both encode through here, so a reply carries
// the same fields whichever path flushes it.
void AppendTicketReply(PendingReply& reply, std::string* out) {
  const service::QueryResponse& response = reply.ticket->Wait();
  WireResponse wire;
  wire.status_code = static_cast<uint16_t>(response.status.code());
  wire.message = response.status.message();
  wire.batch_requests = static_cast<uint32_t>(response.batch_requests);
  wire.batch_queries = response.batch_queries;
  wire.wait_micros = response.wait_micros;
  wire.total_micros = response.total_micros;
  wire.served_tier = response.served_tier;
  if (!response.status.ok()) {
    AppendResponseFrame(wire, out);
  } else if (reply.wants_topk) {
    // Rewrite the engine indexes as external node ids. Scores and ordering
    // are untouched, so the translated body stays bit-identical to what the
    // in-process path prints after its own translation.
    wire.topk = response.topk;
    if (reply.route->to_external) {
      for (std::vector<core::ScoredNode>& column : wire.topk) {
        for (core::ScoredNode& entry : column) {
          entry.node = reply.route->to_external(entry.node);
        }
      }
    }
    AppendResponseFrame(wire, out);
  } else {
    // Borrow the score block straight out of the ticket — copying an
    // n x |Q| matrix into `wire` first costs real socket throughput.
    AppendResponseFrame(wire, response.scores, out);
  }
}

}  // namespace

struct Server::Impl {
  ServerOptions options;
  /// Without a router, every request goes through this identity route to
  /// the constructor's service.
  ServerOptions::Route single_route;

  int listen_fd = -1;
  int bound_port = 0;
  std::thread acceptor;
  std::atomic<bool> started{false};
  std::atomic<bool> stopped{false};
  std::atomic<uint64_t> next_worker{0};
  /// Open client connections across all workers. Kept as an atomic rather
  /// than summing per-worker map sizes: each worker mutates its own map
  /// concurrently, so a cross-worker sum would be a data race.
  std::atomic<int64_t> active_connections{0};

  struct Worker {
    Impl* owner = nullptr;
    int epoll_fd = -1;
    std::shared_ptr<WakeFd> wake;
    std::thread thread;
    std::mutex mu;
    std::vector<int> inbox;  ///< accepted fds awaiting adoption (guarded by mu)
    std::atomic<bool> stop{false};
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
  };
  std::vector<std::unique_ptr<Worker>> workers;

  void AcceptLoop();
  void WorkerLoop(Worker& w);
  void AdoptInbox(Worker& w);
  void UpdateEpoll(Worker& w, Connection& conn);
  void HandleReadable(Worker& w, Connection& conn);
  void ParseFrames(Worker& w, Connection& conn);
  void HandleRequestFrame(Worker& w, Connection& conn, const uint8_t* payload,
                          std::size_t size);
  void PumpConnection(Worker& w, Connection& conn);
  bool FlushWrites(Worker& w, Connection& conn);
  void CloseConnection(Worker& w, Connection& conn);
  void DrainWorker(Worker& w);
  void SetActiveGauge();
};

Server::Server(service::QueryService* service, ServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
  impl_->single_route.service = service;
}

Server::~Server() { Shutdown(); }

int Server::port() const { return impl_->bound_port; }

std::string Server::address() const {
  const std::string& host = impl_->options.host;
  return FormatAddress(host.empty() ? "127.0.0.1" : host, impl_->bound_port);
}

Status Server::Start() {
  Impl& impl = *impl_;
  if (impl.started.load()) {
    return Status::FailedPrecondition("server already started");
  }

  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  const std::string port_str = std::to_string(impl.options.port);
  addrinfo* resolved = nullptr;
  const int gai = getaddrinfo(
      impl.options.host.empty() ? nullptr : impl.options.host.c_str(),
      port_str.c_str(), &hints, &resolved);
  if (gai != 0) {
    return Status::IOError("cannot resolve listen address '" +
                           impl.options.host + "': " + gai_strerror(gai));
  }

  int fd = -1;
  Status bind_status = Status::IOError("no usable address");
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) {
      bind_status = Status::IOError("socket: " + ErrnoString(errno));
      continue;
    }
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      bind_status = Status::OK();
      break;
    }
    bind_status = Status::IOError("bind " + address() + ": " +
                                  ErrnoString(errno));
    close(fd);
    fd = -1;
  }
  freeaddrinfo(resolved);
  CSR_RETURN_IF_ERROR(bind_status);

  if (listen(fd, 128) != 0) {
    const Status st = Status::IOError("listen: " + ErrnoString(errno));
    close(fd);
    return st;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    impl.bound_port = ntohs(bound.sin_port);
  }
  impl.listen_fd = fd;

  const int num_workers = std::max(1, impl.options.num_workers);
  for (int i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Impl::Worker>();
    worker->owner = &impl;
    worker->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    worker->wake = std::make_shared<WakeFd>();
    if (worker->epoll_fd < 0 || worker->wake->fd() < 0) {
      const Status st = Status::IOError("epoll/eventfd: " + ErrnoString(errno));
      if (worker->epoll_fd >= 0) close(worker->epoll_fd);
      close(impl.listen_fd);
      impl.listen_fd = -1;
      for (auto& started_worker : impl.workers) {
        started_worker->stop.store(true);
        started_worker->wake->Notify();
        started_worker->thread.join();
        close(started_worker->epoll_fd);
      }
      impl.workers.clear();
      return st;
    }
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake->fd();
    epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake->fd(), &ev);
    worker->thread = std::thread(
        [&impl, raw = worker.get()] { impl.WorkerLoop(*raw); });
    impl.workers.push_back(std::move(worker));
  }

  impl.acceptor = std::thread([&impl] { impl.AcceptLoop(); });
  impl.started.store(true);
  CSR_LOG_INFO << "csrplus server listening on " << address() << " ("
               << num_workers << " workers)";
  return Status::OK();
}

void Server::Shutdown() {
  Impl& impl = *impl_;
  if (!impl.started.load() || impl.stopped.exchange(true)) return;
  // Unblock the acceptor: shutdown() on a listening socket makes a blocked
  // accept() return with an error.
  shutdown(impl.listen_fd, SHUT_RDWR);
  impl.acceptor.join();
  close(impl.listen_fd);
  impl.listen_fd = -1;
  for (auto& worker : impl.workers) {
    worker->stop.store(true);
    worker->wake->Notify();
  }
  for (auto& worker : impl.workers) {
    worker->thread.join();
    close(worker->epoll_fd);
    // Connections the acceptor handed over that the worker never adopted.
    for (int fd : worker->inbox) close(fd);
    worker->inbox.clear();
  }
  impl.workers.clear();
  impl.SetActiveGauge();
}

void Server::Impl::SetActiveGauge() {
  CSRPLUS_OBS_GAUGE_SET("csrplus.net.active_connections", "connections",
                        "client connections currently open",
                        active_connections.load(std::memory_order_relaxed));
}

void Server::Impl::AcceptLoop() {
  for (;;) {
    const int cfd = accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      // Shutdown() (EINVAL) or a fatal listen-socket error: stop accepting.
      break;
    }
    SetNonBlocking(cfd);
    const int one = 1;
    setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    CSRPLUS_OBS_COUNTER_ADD("csrplus.net.connections", "connections",
                            "client connections accepted", 1);
    Worker& w = *workers[next_worker.fetch_add(1) % workers.size()];
    {
      std::lock_guard<std::mutex> lock(w.mu);
      w.inbox.push_back(cfd);
    }
    w.wake->Notify();
  }
}

void Server::Impl::AdoptInbox(Worker& w) {
  std::vector<int> adopted;
  {
    std::lock_guard<std::mutex> lock(w.mu);
    adopted.swap(w.inbox);
  }
  for (int fd : adopted) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    w.conns.emplace(fd, std::move(conn));
    active_connections.fetch_add(1, std::memory_order_relaxed);
  }
  if (!adopted.empty()) SetActiveGauge();
}

void Server::Impl::UpdateEpoll(Worker& w, Connection& conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = (conn.reading_paused ? 0u : EPOLLIN) |
              (conn.want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::Impl::WorkerLoop(Worker& w) {
  std::vector<epoll_event> events(64);
  for (;;) {
    const int n = epoll_wait(w.epoll_fd, events.data(),
                             static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == w.wake->fd()) {
        w.wake->Drain();
        continue;
      }
      // A connection closed earlier in this event batch vanishes from the
      // map; its remaining events are stale — skip them.
      const auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(w, conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(w, conn);
      if (w.conns.find(fd) == w.conns.end()) continue;  // closed by read path
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!FlushWrites(w, conn)) CloseConnection(w, conn);
      }
    }
    AdoptInbox(w);
    if (w.stop.load()) break;
    // Any number of tickets may have completed since the wake: pump every
    // connection's FIFO (cheap when nothing is ready).
    std::vector<int> to_close;
    for (auto& [fd, conn] : w.conns) {
      PumpConnection(w, *conn);
      if (conn->fd < 0) to_close.push_back(fd);
    }
    for (int fd : to_close) w.conns.erase(fd);
  }
  DrainWorker(w);
}

void Server::Impl::HandleReadable(Worker& w, Connection& conn) {
  CSRPLUS_TRACE_SPAN(span, obs::spans::kNetRead);
  if (conn.reading_paused || conn.closing) return;
  for (;;) {
    if (conn.rsize == conn.rbuf.size()) {
      conn.rbuf.resize(std::max<std::size_t>(4096, conn.rbuf.size() * 2));
    }
    const ssize_t got = recv(conn.fd, conn.rbuf.data() + conn.rsize,
                             conn.rbuf.size() - conn.rsize, 0);
    if (got > 0) {
      conn.rsize += static_cast<std::size_t>(got);
      CountBytesIn(got);
      continue;
    }
    if (got == 0) {
      // Peer closed. Drop the connection; in-flight tickets are cancelled.
      CloseConnection(w, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(w, conn);
    return;
  }
  ParseFrames(w, conn);
}

void Server::Impl::ParseFrames(Worker& w, Connection& conn) {
  std::size_t offset = 0;
  while (!conn.closing) {
    const uint8_t* payload = nullptr;
    std::size_t payload_size = 0;
    std::size_t consumed = 0;
    const FrameStatus fs =
        ExtractFrame(conn.rbuf.data() + offset, conn.rsize - offset,
                     kMaxRequestFrameBytes, &payload, &payload_size,
                     &consumed);
    if (fs == FrameStatus::kIncomplete) break;
    if (fs == FrameStatus::kTooLarge) {
      CountDecodeError();
      PendingReply reply;
      AppendErrorResponseFrame(
          Status::InvalidArgument("request frame exceeds " +
                                  std::to_string(kMaxRequestFrameBytes) +
                                  " bytes"),
          &reply.ready);
      conn.pending.push_back(std::move(reply));
      conn.closing = true;  // cannot re-synchronise the stream
      break;
    }
    HandleRequestFrame(w, conn, payload, payload_size);
    offset += consumed;
  }
  if (offset > 0) {
    std::memmove(conn.rbuf.data(), conn.rbuf.data() + offset,
                 conn.rsize - offset);
    conn.rsize -= offset;
  }
  PumpConnection(w, conn);
  if (conn.fd < 0) {
    // Closed during the pump; the map key is the old fd, so erase by value.
    for (auto it = w.conns.begin(); it != w.conns.end(); ++it) {
      if (it->second.get() == &conn) {
        w.conns.erase(it);
        break;
      }
    }
  }
}

void Server::Impl::HandleRequestFrame(Worker& w, Connection& conn,
                                      const uint8_t* payload,
                                      std::size_t size) {
  CSRPLUS_TRACE_SPAN(span, obs::spans::kNetDispatch);
  CSRPLUS_OBS_COUNTER_ADD("csrplus.net.requests", "frames",
                          "request frames received", 1);
  Result<WireRequest> decoded = DecodeRequest(payload, size);
  if (!decoded.ok()) {
    CountDecodeError();
    PendingReply reply;
    AppendErrorResponseFrame(decoded.status(), &reply.ready);
    conn.pending.push_back(std::move(reply));
    conn.closing = true;  // framing is intact but the peer speaks garbage
    return;
  }
  const WireRequest& request = *decoded;

  if (request.method == Method::kPing) {
    WireResponse pong;  // status 0, no body
    PendingReply reply;
    AppendResponseFrame(pong, &reply.ready);
    conn.pending.push_back(std::move(reply));
    return;
  }

  // Multi-graph routing (wire v3). With a router, the graph_id picks the
  // tenant; without one this is a single-service server and only the
  // default (empty) graph_id is routable.
  const ServerOptions::Route* route = &single_route;
  if (options.router) {
    route = options.router(request.graph_id);
    if (route == nullptr || route->service == nullptr) {
      CSRPLUS_OBS_COUNTER_ADD("csrplus.net.unknown_graph", "frames",
                              "query frames naming an unknown graph_id", 1);
      PendingReply reply;
      AppendErrorResponseFrame(
          Status::NotFound("unknown graph '" + request.graph_id + "'"),
          &reply.ready);
      conn.pending.push_back(std::move(reply));
      return;
    }
  } else if (!request.graph_id.empty()) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.net.unknown_graph", "frames",
                            "query frames naming an unknown graph_id", 1);
    PendingReply reply;
    AppendErrorResponseFrame(
        Status::NotFound("this server serves a single unnamed graph; "
                         "cannot route graph '" +
                         request.graph_id + "'"),
        &reply.ready);
    conn.pending.push_back(std::move(reply));
    return;
  }

  // Backpressure: refuse (with a status frame, in order) rather than buffer
  // without bound. The pipeline cap bounds tickets per connection; the
  // write-buffer check bounds response bytes a slow reader can pin.
  if (static_cast<int>(conn.pending.size()) >= options.max_pipeline ||
      conn.wbuf.size() - conn.woff > kWriteBufferSoftBytes) {
    CountFrameRejected();
    PendingReply reply;
    AppendErrorResponseFrame(
        Status::ResourceExhausted(
            "connection has too many unanswered requests (max_pipeline " +
            std::to_string(options.max_pipeline) + ")"),
        &reply.ready);
    conn.pending.push_back(std::move(reply));
    return;
  }

  service::QueryRequest service_request;
  const auto& to_internal = route->to_internal;
  if (to_internal) {
    service_request.queries.reserve(request.queries.size());
    for (const int64_t external : request.queries) {
      Result<Index> mapped = to_internal(external);
      if (!mapped.ok()) {
        PendingReply reply;
        AppendErrorResponseFrame(mapped.status(), &reply.ready);
        conn.pending.push_back(std::move(reply));
        return;
      }
      service_request.queries.push_back(*mapped);
    }
  } else {
    service_request.queries.assign(request.queries.begin(),
                                   request.queries.end());
  }
  service_request.top_k = request.top_k;
  service_request.exclude_query = request.exclude_query;
  service_request.timeout_micros = request.deadline_micros;
  service_request.quality = request.quality;
  service_request.tag = "net";
  auto wake = w.wake;  // shared: the callback may outlive the worker
  Result<service::QueryService::Ticket> submitted = route->service->Submit(
      std::move(service_request), [wake] { wake->Notify(); });
  if (!submitted.ok()) {
    CountFrameRejected();
    PendingReply reply;
    AppendErrorResponseFrame(submitted.status(), &reply.ready);
    conn.pending.push_back(std::move(reply));
    return;
  }
  PendingReply reply;
  reply.ticket = std::move(*submitted);
  reply.wants_topk = request.top_k > 0;
  reply.route = route;
  conn.pending.push_back(std::move(reply));
}

void Server::Impl::PumpConnection(Worker& w, Connection& conn) {
  if (conn.fd < 0) return;
  while (!conn.pending.empty()) {
    PendingReply& front = conn.pending.front();
    if (!front.ticket.has_value()) {
      conn.wbuf.append(front.ready);
      conn.pending.pop_front();
      continue;
    }
    if (!front.ticket->Done()) break;  // strict FIFO: wait for the head
    CSRPLUS_TRACE_SPAN(span, obs::spans::kNetWrite);
    AppendTicketReply(front, &conn.wbuf);
    conn.pending.pop_front();
  }
  if (!FlushWrites(w, conn)) {
    CloseConnection(w, conn);
    return;
  }
  if (conn.fd < 0) return;  // FlushWrites completed a deferred close
  // Slow-reader backpressure: stop reading while the outgoing buffer is
  // over the soft cap; resume once it drains.
  const std::size_t backlog = conn.wbuf.size() - conn.woff;
  const bool should_pause = backlog > kWriteBufferSoftBytes;
  if (should_pause != conn.reading_paused) {
    conn.reading_paused = should_pause;
    UpdateEpoll(w, conn);
  }
}

bool Server::Impl::FlushWrites(Worker& w, Connection& conn) {
  if (conn.fd < 0) return true;
  CSRPLUS_TRACE_SPAN(span, obs::spans::kNetWrite);
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t sent =
        send(conn.fd, conn.wbuf.data() + conn.woff,
             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (sent > 0) {
      conn.woff += static_cast<std::size_t>(sent);
      CountBytesOut(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        UpdateEpoll(w, conn);
      }
      return true;
    }
    if (sent < 0 && errno == EINTR) continue;
    return false;  // peer gone
  }
  conn.wbuf.clear();
  conn.woff = 0;
  if (conn.want_write) {
    conn.want_write = false;
    UpdateEpoll(w, conn);
  }
  if (conn.closing && conn.pending.empty()) {
    CloseConnection(w, conn);
  }
  return true;
}

void Server::Impl::CloseConnection(Worker& w, Connection& conn) {
  if (conn.fd < 0) return;
  for (PendingReply& reply : conn.pending) {
    if (reply.ticket.has_value()) reply.ticket->Cancel();
  }
  conn.pending.clear();
  epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  close(conn.fd);
  // Callers may be iterating w.conns (keyed by the old fd); flag the close
  // via fd = -1 and let the event loop / ParseFrames erase where safe.
  conn.fd = -1;
  active_connections.fetch_sub(1, std::memory_order_relaxed);
  SetActiveGauge();
}

void Server::Impl::DrainWorker(Worker& w) {
  // Orderly shutdown with clients still connected: finish every in-flight
  // ticket (cancelling queued ones), flush what the sockets will take
  // without blocking, then close.
  for (auto& [fd, conn] : w.conns) {
    if (conn->fd < 0) continue;
    while (!conn->pending.empty()) {
      PendingReply& front = conn->pending.front();
      if (front.ticket.has_value()) {
        front.ticket->Cancel();
        AppendTicketReply(front, &conn->wbuf);
      } else {
        conn->wbuf.append(front.ready);
      }
      conn->pending.pop_front();
    }
    while (conn->woff < conn->wbuf.size()) {
      const ssize_t sent =
          send(conn->fd, conn->wbuf.data() + conn->woff,
               conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
      if (sent > 0) {
        conn->woff += static_cast<std::size_t>(sent);
        CountBytesOut(sent);
        continue;
      }
      if (sent < 0 && errno == EINTR) continue;
      break;  // EAGAIN or error: best effort only — do not block shutdown
    }
    close(conn->fd);
    conn->fd = -1;
    active_connections.fetch_sub(1, std::memory_order_relaxed);
  }
  w.conns.clear();
  SetActiveGauge();
}

}  // namespace csrplus::net
