// Apache-httpd-like web server model plus an httperf-style open-loop client
// (paper section 5.2.4, Figure 14).
//
// Request path: the client injects a request arrival -> the virtual NIC raises an I/O
// interrupt on the bound vCPU -> the irq handler accepts the connection (connection
// time = arrival-to-irq-handled, i.e. the interrupt's scheduling delay) and hands the
// request to an idle worker thread (reschedule IPI if remote) -> the worker burns
// service CPU and queues the 16 KB reply on the shared 1 GbE link, which serializes
// transmissions. Response time = arrival-to-reply-on-the-wire.
//
// Both failure modes the paper describes emerge: preempted interrupt-receiving vCPUs
// delay connections, and delayed worker wakeup IPIs inflate response time; past
// saturation the accept queue overflows and the reply rate degrades.

#ifndef VSCALE_SRC_WORKLOADS_WEB_SERVER_H_
#define VSCALE_SRC_WORKLOADS_WEB_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/time.h"
#include "src/guest/kernel.h"
#include "src/guest/thread.h"
#include "src/sim/event_queue.h"

namespace vscale {

struct WebServerConfig {
  int workers = 8;                         // httpd worker threads
  int accept_backlog = 256;               // connections queued beyond busy workers
};

class WebServer {
 public:
  WebServer(GuestKernel& kernel, Simulator& sim, WebServerConfig config, uint64_t seed);
  ~WebServer();

  WebServer(const WebServer&) = delete;
  WebServer& operator=(const WebServer&) = delete;

  void Start();

  // Client-side injection: a request hits the NIC at the current time.
  void InjectRequest();

  struct Stats {
    int64_t arrivals = 0;
    int64_t replies = 0;
    int64_t drops = 0;  // accept-queue overflow
    SampleSet connection_time_us;
    SampleSet response_time_us;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats();

 private:
  class WorkerBody;
  struct Request {
    TimeNs arrival = 0;
    TimeNs accepted = 0;
  };

  void OnRxIrq(int cpu);
  void OnWorkerReady(GuestThread& t, int worker_index);
  void FinishRequest(const Request& r);
  // Pairs queued requests with idle workers. A worker that just became ready may not
  // have reached its blocked IoWait state yet (op start is lazy); in that case the
  // dispatch retries shortly instead of leaking the worker.
  void TryDispatch();

  GuestKernel& kernel_;
  Simulator& sim_;
  WebServerConfig config_;
  Rng rng_;
  EvtchnPort rx_port_ = -1;
  std::deque<Request> pending_rx_;     // raised interrupts not yet handled
  std::deque<Request> accept_queue_;   // accepted, waiting for a worker
  std::vector<std::unique_ptr<WorkerBody>> workers_;
  std::vector<GuestThread*> worker_threads_;
  std::vector<bool> worker_idle_;      // blocked in IoWait, ready for a request
  std::vector<Request> worker_request_;
  TimeNs link_free_at_ = 0;            // shared 1 GbE transmit serialization
  Stats stats_;
  bool started_ = false;
};

// Open-loop constant-rate generator, httperf style.
class HttperfClient {
 public:
  HttperfClient(WebServer& server, Simulator& sim, double requests_per_sec,
                uint64_t seed);

  // Generates arrivals in [start, start+duration). Poisson by default; the paper's
  // httperf uses fixed interarrival, selectable here.
  void Run(TimeNs start, TimeNs duration, bool poisson = false);

 private:
  void ScheduleNext(TimeNs at, TimeNs end, bool poisson);

  WebServer& server_;
  Simulator& sim_;
  double rate_;
  Rng rng_;
};

}  // namespace vscale

#endif  // VSCALE_SRC_WORKLOADS_WEB_SERVER_H_
