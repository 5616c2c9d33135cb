#include "apps/erpc.hpp"

#include <cstring>

#include "common/backoff.hpp"

namespace xrdma::apps::erpc {

namespace {
// RPC envelope: [varint method][varint status][payload...]. Status 0 = ok
// on responses (requests always carry 0).
Buffer envelope(MethodId method, std::uint32_t status, const Buffer& payload) {
  WireWriter w;
  w.put_u32(method);
  w.put_u32(status);
  Buffer head = w.finish();
  // A synthetic payload rides as zeros.
  const std::size_t size = head.size() + payload.size();
  Buffer out = payload.data() ? Buffer::make_for_overwrite(size)
                              : Buffer::make(size);
  std::memcpy(out.data(), head.data(), head.size());
  if (payload.data()) {
    std::memcpy(out.data() + head.size(), payload.data(), payload.size());
  }
  return out;
}

bool open_envelope(const Buffer& wire, MethodId& method, std::uint32_t& status,
                   Buffer& payload) {
  WireReader r(wire);
  const auto m = r.varint();
  const auto s = r.varint();
  if (!m || !s) return false;
  method = static_cast<MethodId>(*m);
  status = static_cast<std::uint32_t>(*s);
  // Remaining bytes are the payload; WireReader doesn't expose position,
  // so re-derive it from a second scan.
  WireWriter probe;
  probe.put_u32(method);
  probe.put_u32(status);
  const std::size_t header = probe.size();
  payload = Buffer::copy_of(wire.data() + header, wire.size() - header);
  return true;
}
}  // namespace

// ---------------------------------------------------------------------------
// Wire codec.

void WireWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(v));
}

void WireWriter::put_bytes(const std::uint8_t* data, std::size_t len) {
  put_varint(len);
  bytes_.insert(bytes_.end(), data, data + len);
}

Buffer WireWriter::finish() const {
  return Buffer::copy_of(bytes_.data(), bytes_.size());
}

std::optional<std::uint64_t> WireReader::varint() {
  if (!ok_ || !data_) {
    ok_ = false;
    return std::nullopt;
  }
  std::uint64_t v = 0;
  int shift = 0;
  while (pos_ < size_ && shift <= 63) {
    const std::uint8_t byte = data_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  ok_ = false;
  return std::nullopt;
}

std::optional<std::string> WireReader::string() {
  const auto len = varint();
  if (!len || pos_ + *len > size_) {
    ok_ = false;
    return std::nullopt;
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(*len));
  pos_ += static_cast<std::size_t>(*len);
  return s;
}

// ---------------------------------------------------------------------------
// Server.

Server::Server(core::Context& ctx, std::uint16_t port) : ctx_(ctx) {
  ctx_.listen(port, [this](core::Channel& ch) {
    ch.set_on_msg([this](core::Channel& c, core::Msg&& m) {
      dispatch(c, std::move(m));
    });
  });
}

void Server::register_method(MethodId id, Handler handler) {
  methods_[id] = std::move(handler);
}

void Server::dispatch(core::Channel& ch, core::Msg&& msg) {
  if (!msg.is_rpc_req) return;
  MethodId method = 0;
  std::uint32_t status = 0;
  Buffer payload;
  if (!open_envelope(msg.payload, method, status, payload)) {
    ch.reply(msg.rpc_id,
             envelope(0, static_cast<std::uint32_t>(Errc::bad_message), {}));
    return;
  }
  auto it = methods_.find(method);
  if (it == methods_.end()) {
    ++unknown_;
    ch.reply(msg.rpc_id,
             envelope(method, static_cast<std::uint32_t>(Errc::not_found), {}));
    return;
  }
  // Deadline-aware shedding: the request header carried the client's
  // remaining budget; if it can no longer cover a typical service time the
  // reply would arrive after the client gave up, so the work is wasted —
  // answer overloaded immediately and let the client back off.
  if (msg.has_deadline) {
    const Nanos est = estimated_service_time();
    if (est > 0 && msg.deadline_left < est) {
      ++shed_;
      ch.reply(msg.rpc_id,
               envelope(method, static_cast<std::uint32_t>(Errc::overloaded),
                        {}));
      return;
    }
  }
  ++served_;
  Call call;
  call.request = std::move(payload);
  call.peer = ch.peer_node();
  const std::uint64_t rpc_id = msg.rpc_id;
  const std::uint64_t chan_id = ch.id();
  // Traced request: the response inherits its trace id so the latency
  // decomposition sees one chain across request -> handler -> response
  // (including large responses, which ride Read-replace-Write).
  const std::uint64_t trace_id = msg.traced ? msg.trace_id : 0;
  core::Context* ctx = &ctx_;
  const Nanos t0 = ctx_.engine().now();
  // The handler may respond asynchronously; route through ids so a closed
  // channel degrades to a dropped reply instead of a dangling pointer.
  call.respond = [this, ctx, chan_id, rpc_id, method, trace_id, t0](Buffer rsp) {
    service_time_.record(ctx->engine().now() - t0);
    for (core::Channel* c : ctx->channels()) {
      if (c->id() == chan_id && c->usable()) {
        c->reply(rpc_id, envelope(method, 0, rsp), trace_id);
        return;
      }
    }
  };
  call.respond_error = [this, ctx, chan_id, rpc_id, method, trace_id,
                        t0](Errc e) {
    service_time_.record(ctx->engine().now() - t0);
    for (core::Channel* c : ctx->channels()) {
      if (c->id() == chan_id && c->usable()) {
        c->reply(rpc_id, envelope(method, static_cast<std::uint32_t>(e), {}),
                 trace_id);
        return;
      }
    }
  };
  it->second(std::move(call));
}

Nanos Server::estimated_service_time() const {
  // Need a few samples before trusting the estimate; until then admit
  // everything (a cold server that sheds is worse than a slow one).
  if (service_time_.count() < 8) return 0;
  return service_time_.percentile(50);
}

// ---------------------------------------------------------------------------
// Client.

ClientStub::ClientStub(core::Context& ctx, net::NodeId server,
                       std::uint16_t port)
    : ctx_(ctx),
      server_(server),
      port_(port),
      // Deterministic per-stub jitter stream: same topology, same run.
      rng_(0x517cc1b727220a95ULL ^ (static_cast<std::uint64_t>(server) << 16) ^
           port) {}

void ClientStub::connect(std::function<void(Errc)> ready) {
  ctx_.connect(server_, port_,
               [this, ready = std::move(ready)](Result<core::Channel*> r) {
                 if (r.ok()) channel_ = r.value();
                 if (ready) ready(r.ok() ? Errc::ok : r.error());
               });
}

Errc ClientStub::call(MethodId method, Buffer request, Callback cb,
                      Nanos deadline) {
  if (!connected()) return Errc::unavailable;
  auto s = std::make_shared<CallState>();
  s->method = method;
  s->request = std::move(request);
  s->cb = std::move(cb);
  s->abs_deadline = ctx_.engine().now() + deadline;
  const Errc rc = attempt(s);
  // The very first enqueue can bounce off the bounded tx queue; retrying
  // behind backoff keeps the call alive (the caller sees Errc::ok and the
  // outcome arrives through the callback, like any other async failure).
  if (rc == Errc::would_block && schedule_retry(s)) return Errc::ok;
  return rc;
}

Errc ClientStub::attempt(const std::shared_ptr<CallState>& s) {
  const Nanos remaining = s->abs_deadline - ctx_.engine().now();
  if (remaining <= 0) return Errc::timed_out;
  return channel_->call(
      envelope(s->method, 0, s->request),
      [this, s](Result<core::Msg> r) {
        if (!r.ok()) {
          s->cb(r.error());
          return;
        }
        MethodId method_out = 0;
        std::uint32_t status = 0;
        Buffer payload;
        if (!open_envelope(r.value().payload, method_out, status, payload)) {
          s->cb(Errc::bad_message);
          return;
        }
        if (status != 0) {
          const Errc e = static_cast<Errc>(status);
          // Server shed the request (deadline-aware overload control):
          // back off and retry while the budget lasts.
          if (e == Errc::overloaded && schedule_retry(s)) return;
          s->cb(e);
          return;
        }
        s->cb(std::move(payload));
      },
      remaining);
}

bool ClientStub::schedule_retry(const std::shared_ptr<CallState>& s) {
  ++s->attempt;
  const Nanos delay = backoff_with_jitter(retry_backoff_, s->attempt, rng_);
  if (ctx_.engine().now() + delay >= s->abs_deadline) return false;
  ++retries_;
  ctx_.engine().schedule_after(delay, [this, s] {
    if (!connected()) {
      s->cb(Errc::unavailable);
      return;
    }
    const Errc rc = attempt(s);
    if (rc == Errc::ok) return;
    if (rc == Errc::would_block && schedule_retry(s)) return;
    s->cb(rc);
  });
  return true;
}

}  // namespace xrdma::apps::erpc
