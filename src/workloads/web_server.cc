#include "src/workloads/web_server.h"

#include <cassert>

namespace vscale {

namespace {
// Per-request CPU: TCP/IP receive+transmit path, httpd dispatch, sendfile of the
// 16 KB body. Sized so ~4 vCPUs saturate a 1 GbE link, as in the paper's testbed.
constexpr TimeNs kServiceCpu = Microseconds(380);
constexpr TimeNs kServiceJitter = Microseconds(80);
// 16 KB + headers over 1 GbE: ~139 us of wire time per reply.
constexpr TimeNs kReplyTxTime = MicrosecondsF(139);
}  // namespace

// Worker threads loop: wait for a request assignment (IoWait), then burn the service
// CPU; the reply transmission is accounted at op completion via FinishRequest.
class WebServer::WorkerBody : public ThreadBody {
 public:
  WorkerBody(WebServer& server, int index) : server_(server), index_(index) {}

  Op Next(GuestKernel& kernel, GuestThread& thread) override {
    (void)kernel;
    switch (phase_) {
      case Phase::kIdle:
        phase_ = Phase::kService;
        server_.OnWorkerReady(thread, index_);
        return Op::IoWait();
      case Phase::kService: {
        phase_ = Phase::kFinish;
        const TimeNs jitter = server_.rng_.UniformTime(-kServiceJitter, kServiceJitter);
        TimeNs service = kServiceCpu + jitter;
        if (service < Microseconds(5)) {
          service = Microseconds(5);
        }
        return Op::Compute(service);
      }
      case Phase::kFinish:
        phase_ = Phase::kIdle;
        server_.FinishRequest(
            server_.worker_request_[static_cast<size_t>(index_)]);
        return Next(kernel, thread);
    }
    return Op::Exit();
  }

 private:
  enum class Phase { kIdle, kService, kFinish };
  WebServer& server_;
  int index_;
  Phase phase_ = Phase::kIdle;
};

WebServer::WebServer(GuestKernel& kernel, Simulator& sim, WebServerConfig config,
                     uint64_t seed)
    : kernel_(kernel), sim_(sim), config_(config), rng_(seed) {}

WebServer::~WebServer() = default;

void WebServer::Start() {
  assert(!started_);
  started_ = true;
  rx_port_ = kernel_.RegisterIoIrq([this](int cpu) { OnRxIrq(cpu); });
  worker_idle_.resize(static_cast<size_t>(config_.workers), false);
  worker_request_.resize(static_cast<size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.push_back(std::make_unique<WorkerBody>(*this, i));
    GuestThread& t = kernel_.Spawn("httpd/" + std::to_string(i),
                                   workers_.back().get());
    worker_threads_.push_back(&t);
  }
}

void WebServer::InjectRequest() {
  ++stats_.arrivals;
  Request r;
  r.arrival = kernel_.NowNs();
  // NIC-side backpressure: if the software queues are saturated the SYN is dropped.
  if (static_cast<int>(pending_rx_.size() + accept_queue_.size()) >=
      config_.accept_backlog) {
    ++stats_.drops;
    return;
  }
  pending_rx_.push_back(r);
  // The request occupies the wire briefly; receive processing starts at the interrupt.
  kernel_.RaiseIoIrq(rx_port_);
}

void WebServer::OnRxIrq(int cpu) {
  (void)cpu;
  // One interrupt may coalesce several pending packets (NAPI-style): accept them all.
  const TimeNs now = kernel_.NowNs();
  while (!pending_rx_.empty()) {
    Request r = pending_rx_.front();
    pending_rx_.pop_front();
    r.accepted = now;
    stats_.connection_time_us.Add(ToMicroseconds(now - r.arrival));
    accept_queue_.push_back(r);
  }
  TryDispatch();
}

void WebServer::OnWorkerReady(GuestThread& t, int worker_index) {
  (void)t;
  worker_idle_[static_cast<size_t>(worker_index)] = true;
  if (!accept_queue_.empty()) {
    // The worker is about to block in its IoWait; dispatch once it has.
    sim_.ScheduleAfter(0, [this] { TryDispatch(); });
  }
}

void WebServer::TryDispatch() {
  bool retry = false;
  for (size_t i = 0; i < worker_idle_.size() && !accept_queue_.empty(); ++i) {
    if (!worker_idle_[i]) {
      continue;
    }
    GuestThread* tp = worker_threads_[i];
    if (tp->op_active && tp->op.kind == Op::Kind::kIoWait &&
        tp->state == ThreadState::kBlocked) {
      worker_idle_[i] = false;
      worker_request_[i] = accept_queue_.front();
      accept_queue_.pop_front();
      kernel_.CompleteIo(*tp);
    } else {
      retry = true;  // ready but not yet parked in IoWait
    }
  }
  if (retry && !accept_queue_.empty()) {
    sim_.ScheduleAfter(Microseconds(2), [this] { TryDispatch(); });
  }
}

void WebServer::FinishRequest(const Request& r) {
  const TimeNs now = kernel_.NowNs();
  // Serialize the reply on the shared link; the client sees it (and httperf counts
  // it) when it leaves the wire, which caps the reply rate at link saturation.
  link_free_at_ = std::max(link_free_at_, now) + kReplyTxTime;
  stats_.response_time_us.Add(ToMicroseconds(link_free_at_ - r.arrival));
  sim_.ScheduleAt(link_free_at_, [this] { ++stats_.replies; });
}

void WebServer::ResetStats() { stats_ = Stats{}; }

// ---------------------------------------------------------------------------

HttperfClient::HttperfClient(WebServer& server, Simulator& sim,
                             double requests_per_sec, uint64_t seed)
    : server_(server), sim_(sim), rate_(requests_per_sec), rng_(seed) {}

void HttperfClient::Run(TimeNs start, TimeNs duration, bool poisson) {
  ScheduleNext(start, start + duration, poisson);
}

void HttperfClient::ScheduleNext(TimeNs at, TimeNs end, bool poisson) {
  if (at >= end || rate_ <= 0.0) {
    return;
  }
  sim_.ScheduleAt(at, [this, at, end, poisson] {
    server_.InjectRequest();
    const TimeNs mean_gap = static_cast<TimeNs>(1e9 / rate_);
    const TimeNs gap =
        poisson ? std::max<TimeNs>(1, rng_.ExponentialTime(mean_gap)) : mean_gap;
    ScheduleNext(at + gap, end, poisson);
  });
}

}  // namespace vscale
