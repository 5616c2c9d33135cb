// ERPC: the protobuf-style RPC framework the paper cites as the typical
// X-RDMA consumer (§VII-B — "a protobuf RPC framework with RDMA support at
// Alibaba", where switching to X-RDMA saved 70% of team man-months).
//
// A small typed-service layer over core::Channel:
//   - WireWriter/WireReader: a varint + length-delimited field codec
//     (protobuf wire-format-shaped, enough for realistic message schemas);
//   - Service/method registration by id, request dispatch, error replies;
//   - ClientStub with per-method calls, deadlines, and typed decoding.
// The X-RDMA channel underneath supplies everything the paper's framework
// got for free: mixed messaging for large responses, seq-ack delivery
// guarantees, keepalive, and the analysis hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"

namespace xrdma::apps::erpc {

/// Varint + length-delimited field encoder (protobuf-shaped).
class WireWriter {
 public:
  void put_varint(std::uint64_t v);
  void put_u32(std::uint32_t v) { put_varint(v); }
  void put_u64(std::uint64_t v) { put_varint(v); }
  void put_bytes(const std::uint8_t* data, std::size_t len);
  void put_string(const std::string& s) {
    put_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  Buffer finish() const;
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class WireReader {
 public:
  /// Keeps a (refcounted) copy of the buffer, so reading from a temporary
  /// is safe.
  explicit WireReader(Buffer buffer)
      : buffer_(std::move(buffer)),
        data_(buffer_.data()),
        size_(buffer_.size()) {}

  std::optional<std::uint64_t> varint();
  std::optional<std::string> string();
  bool exhausted() const { return pos_ >= size_; }
  bool ok() const { return ok_; }

 private:
  Buffer buffer_;
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

using MethodId = std::uint32_t;

/// Server-side service container bound to one context/port.
class Server {
 public:
  /// respond(payload) sends the success reply; respond_error(errc) the
  /// failure. Exactly one must be called (possibly asynchronously).
  struct Call {
    Buffer request;
    std::function<void(Buffer)> respond;
    std::function<void(Errc)> respond_error;
    net::NodeId peer = net::kInvalidNode;
  };
  using Handler = std::function<void(Call)>;

  Server(core::Context& ctx, std::uint16_t port);

  void register_method(MethodId id, Handler handler);
  std::uint64_t calls_served() const { return served_; }
  std::uint64_t unknown_methods() const { return unknown_; }
  /// Requests dropped by deadline-aware shedding: the client's remaining
  /// budget (propagated in the wire header) could not cover the estimated
  /// service time, so serving would only have produced a late, wasted
  /// reply. Shed requests answer Errc::overloaded immediately.
  std::uint64_t calls_shed() const { return shed_; }

 private:
  void dispatch(core::Channel& ch, core::Msg&& msg);
  /// Service-time estimate used for shedding: p50 of observed handler
  /// times once enough samples exist, 0 (never shed) before that.
  Nanos estimated_service_time() const;

  core::Context& ctx_;
  std::map<MethodId, Handler> methods_;
  Histogram service_time_;  // dispatch -> respond, ns
  std::uint64_t served_ = 0;
  std::uint64_t unknown_ = 0;
  std::uint64_t shed_ = 0;
};

/// Client-side stub: one logical connection, typed calls by method id.
class ClientStub {
 public:
  using Callback = std::function<void(Result<Buffer>)>;

  ClientStub(core::Context& ctx, net::NodeId server, std::uint16_t port);

  /// Establish the underlying channel; calls before `ready` fires fail.
  void connect(std::function<void(Errc)> ready);
  bool connected() const { return channel_ && channel_->usable(); }

  /// Issues the call, retrying transparently while the deadline budget
  /// lasts when the local channel pushes back (Errc::would_block from the
  /// bounded tx queue) or the server sheds (Errc::overloaded). Retries use
  /// capped exponential backoff with jitter; the callback sees the final
  /// outcome only.
  Errc call(MethodId method, Buffer request, Callback cb,
            Nanos deadline = millis(100));

  core::Channel* channel() { return channel_; }
  std::uint64_t retries() const { return retries_; }
  void set_retry_backoff(Nanos base) { retry_backoff_ = base; }

 private:
  struct CallState {
    MethodId method = 0;
    Buffer request;
    Callback cb;
    Nanos abs_deadline = 0;
    std::uint32_t attempt = 0;
  };

  Errc attempt(const std::shared_ptr<CallState>& s);
  /// Returns false when the next backoff step would overrun the deadline.
  bool schedule_retry(const std::shared_ptr<CallState>& s);

  core::Context& ctx_;
  net::NodeId server_;
  std::uint16_t port_;
  core::Channel* channel_ = nullptr;
  Rng rng_;
  Nanos retry_backoff_ = micros(50);
  std::uint64_t retries_ = 0;
};

}  // namespace xrdma::apps::erpc
