// ibverbs-flavoured RAII facade over the RNIC model.
//
// Pd/Mr/Cq/Qp own their device resources and release them on destruction;
// everything forwards to rnic::Rnic. The middleware, the baselines, and the
// loc_comparison examples all program against this layer — it is the
// "native RDMA library" of the reproduction.
#pragma once

#include <memory>
#include <utility>

#include "rnic/rnic.hpp"

namespace xrdma::verbs {

using rnic::CqId;
using xrdma::Errc;
using rnic::MrInfo;
using rnic::Opcode;
using rnic::QpAttr;
using rnic::QpCaps;
using rnic::QpNum;
using rnic::QpState;
using rnic::QpType;
using rnic::RecvWr;
using rnic::SendWr;
using rnic::Sge;
using rnic::SrqId;
using rnic::Wc;
using rnic::WcOpcode;

class Mr {
 public:
  Mr() = default;
  Mr(rnic::Rnic* nic, MrInfo info) : nic_(nic), info_(info) {}
  ~Mr() { reset(); }
  Mr(Mr&& o) noexcept { *this = std::move(o); }
  Mr& operator=(Mr&& o) noexcept {
    if (this != &o) {
      reset();
      nic_ = std::exchange(o.nic_, nullptr);
      info_ = std::exchange(o.info_, MrInfo{});
    }
    return *this;
  }
  Mr(const Mr&) = delete;
  Mr& operator=(const Mr&) = delete;

  bool valid() const { return nic_ != nullptr; }
  const MrInfo& info() const { return info_; }
  std::uint64_t addr() const { return info_.addr; }
  std::uint64_t size() const { return info_.size; }
  std::uint32_t lkey() const { return info_.lkey; }
  std::uint32_t rkey() const { return info_.rkey; }

  /// Host pointer into the registered region (nullptr for synthetic MRs).
  std::uint8_t* data(std::uint64_t offset = 0, std::uint64_t len = 0) {
    if (!nic_) return nullptr;
    if (len == 0) len = info_.size - offset;
    return nic_->mr_ptr(info_.addr + offset, len);
  }

  void reset() {
    if (nic_) nic_->dereg_mr(info_.lkey);
    nic_ = nullptr;
  }

 private:
  rnic::Rnic* nic_ = nullptr;
  MrInfo info_;
};

class Cq {
 public:
  Cq() = default;
  Cq(rnic::Rnic* nic, CqId id) : nic_(nic), id_(id) {}
  ~Cq() { reset(); }
  Cq(Cq&& o) noexcept { *this = std::move(o); }
  Cq& operator=(Cq&& o) noexcept {
    if (this != &o) {
      reset();
      nic_ = std::exchange(o.nic_, nullptr);
      id_ = std::exchange(o.id_, rnic::kInvalidId);
    }
    return *this;
  }
  Cq(const Cq&) = delete;
  Cq& operator=(const Cq&) = delete;

  bool valid() const { return nic_ != nullptr; }
  CqId id() const { return id_; }
  int poll(Wc* out, int max) { return nic_ ? nic_->poll_cq(id_, out, max) : -1; }
  /// True when a poll would return no completion.
  bool empty() const { return !nic_ || nic_->cq_empty(id_); }
  void arm(std::function<void()> on_event) {
    if (nic_) nic_->arm_cq(id_, std::move(on_event));
  }

  void reset() {
    if (nic_) nic_->destroy_cq(id_);
    nic_ = nullptr;
  }

 private:
  rnic::Rnic* nic_ = nullptr;
  CqId id_ = rnic::kInvalidId;
};

class Qp {
 public:
  Qp() = default;
  Qp(rnic::Rnic* nic, QpNum num) : nic_(nic), num_(num) {}
  ~Qp() { reset(); }
  Qp(Qp&& o) noexcept { *this = std::move(o); }
  Qp& operator=(Qp&& o) noexcept {
    if (this != &o) {
      reset();
      nic_ = std::exchange(o.nic_, nullptr);
      num_ = std::exchange(o.num_, rnic::kInvalidId);
    }
    return *this;
  }
  Qp(const Qp&) = delete;
  Qp& operator=(const Qp&) = delete;

  bool valid() const { return nic_ != nullptr; }
  QpNum num() const { return num_; }
  rnic::Rnic* nic() { return nic_; }
  QpState state() const { return nic_ ? nic_->qp_state(num_) : QpState::error; }

  Errc modify(const QpAttr& attr) {
    return nic_ ? nic_->modify_qp(num_, attr) : Errc::not_found;
  }
  Errc post_send(const SendWr& wr) {
    return nic_ ? nic_->post_send(num_, wr) : Errc::not_found;
  }
  /// Chained post (ibv_post_send with a linked wr list): one doorbell for
  /// the whole chain, all-or-nothing admission.
  Errc post_send_batch(const SendWr* wrs, std::size_t count) {
    return nic_ ? nic_->post_send(num_, wrs, count) : Errc::not_found;
  }
  Errc post_recv(const RecvWr& wr) {
    return nic_ ? nic_->post_recv(num_, wr) : Errc::not_found;
  }

  /// Releases the underlying QP *without* destroying it and returns its
  /// number — the QP-cache takes ownership (§IV-E).
  QpNum release() {
    nic_ = nullptr;
    return std::exchange(num_, rnic::kInvalidId);
  }

  void reset() {
    if (nic_) nic_->destroy_qp(num_);
    nic_ = nullptr;
  }

 private:
  rnic::Rnic* nic_ = nullptr;
  QpNum num_ = rnic::kInvalidId;
};

/// Protection-domain-ish resource factory bound to one RNIC.
class Pd {
 public:
  explicit Pd(rnic::Rnic& nic) : nic_(&nic) {}

  rnic::Rnic& nic() { return *nic_; }

  Mr reg_mr(std::uint64_t size, bool real_memory = true) {
    return Mr(nic_, nic_->reg_mr(size, real_memory));
  }
  Cq create_cq(std::uint32_t depth) { return Cq(nic_, nic_->create_cq(depth)); }
  Qp create_qp(QpType type, Cq& send_cq, Cq& recv_cq, QpCaps caps = {},
               SrqId srq = rnic::kInvalidId) {
    return Qp(nic_, nic_->create_qp(type, send_cq.id(), recv_cq.id(), caps, srq));
  }
  /// Re-adopt a QP number released to a cache earlier.
  Qp adopt_qp(QpNum num) { return Qp(nic_, num); }

 private:
  rnic::Rnic* nic_;
};

}  // namespace xrdma::verbs
