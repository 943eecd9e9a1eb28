// Slow-path channels: how the pipe-terminus reaches service modules.
//
// The paper's prototype "used IPC to send and receive data from services
// which obviously adds overhead, but this approach makes it trivial to
// prototype services", and names shared-memory rings as the obvious
// alternative. Table 1's no-service row is the datapath with no channel
// crossing at all. We implement all three so the benchmarks can measure
// exactly that design space:
//
//   inline_channel — direct function call (no crossing; used by the
//                    single-threaded simulation and the no-upcall bound)
//   ring_channel   — SPSC shared-memory rings to a dedicated service
//                    thread (no syscalls on the hot path)
//   ipc_channel    — a real socketpair(2) to a service thread, one
//                    write+read syscall pair per packet (the prototype's
//                    design measured in Table 1)
//
// All channels carry the same serialized request/response, so switching
// transports changes cost, never semantics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "common/bytes.h"
#include "common/ring.h"
#include "core/service_module.h"

namespace interedge::core {

// What the terminus hands the service layer. Per §4 the terminus forwards
// "the packet's L3 header and decrypted ILP header"; the payload rides
// along for services (e.g. caching) that need it.
struct slowpath_request {
  std::uint64_t token = 0;  // correlates the async response
  peer_id l3_src = 0;
  bytes header_bytes;  // encoded ILP header
  bytes payload;

  bytes encode() const;
  static slowpath_request decode(const_byte_span data);
};

struct slowpath_response {
  std::uint64_t token = 0;
  decision verdict;
  std::vector<std::pair<cache_key, decision>> cache_inserts;
  std::vector<outbound> sends;

  bytes encode() const;
  static slowpath_response decode(const_byte_span data);
};

using slowpath_handler = std::function<slowpath_response(slowpath_request)>;

class slowpath_channel {
 public:
  virtual ~slowpath_channel() = default;
  // Submits a request; false if the channel is momentarily full (caller
  // retries — models bounded outstanding-packet windows).
  virtual bool submit(slowpath_request request) = 0;
  // Retrieves one completed response, if any.
  virtual std::optional<slowpath_response> poll() = 0;
};

// Direct call in the caller's thread.
class inline_channel final : public slowpath_channel {
 public:
  explicit inline_channel(slowpath_handler handler) : handler_(std::move(handler)) {}
  bool submit(slowpath_request request) override {
    done_.push_back(handler_(std::move(request)));
    return true;
  }
  std::optional<slowpath_response> poll() override {
    if (done_.empty()) return std::nullopt;
    slowpath_response r = std::move(done_.front());
    done_.pop_front();
    return r;
  }

 private:
  slowpath_handler handler_;
  std::deque<slowpath_response> done_;
};

// SPSC rings to a dedicated service thread. The data path is lock-free;
// when a side runs dry it spins briefly and then parks on a condition
// variable (the software analogue of an eventfd doorbell), so the channel
// is fast on dedicated cores and correct on shared ones.
class ring_channel final : public slowpath_channel {
 public:
  ring_channel(slowpath_handler handler, std::size_t depth = 256);
  ~ring_channel() override;
  bool submit(slowpath_request request) override;
  std::optional<slowpath_response> poll() override;
  // Blocking variant of poll() for callers with nothing else to do.
  std::optional<slowpath_response> poll_wait();

 private:
  void worker_loop(slowpath_handler handler);
  spsc_ring<slowpath_request> requests_;
  spsc_ring<slowpath_response> responses_;
  std::atomic<bool> stop_{false};
  std::mutex doorbell_mu_;
  std::condition_variable request_doorbell_;   // producer -> worker
  std::condition_variable response_doorbell_;  // worker -> producer
  std::atomic<bool> worker_parked_{false};
  std::atomic<bool> consumer_parked_{false};
  std::thread worker_;
};

// socketpair(2) + service thread: one syscall per direction per packet,
// with full serialize/deserialize — the paper's prototype transport.
class ipc_channel final : public slowpath_channel {
 public:
  explicit ipc_channel(slowpath_handler handler);
  ~ipc_channel() override;
  bool submit(slowpath_request request) override;
  std::optional<slowpath_response> poll() override;

 private:
  void worker_loop(slowpath_handler handler);
  int terminus_fd_ = -1;
  int service_fd_ = -1;
  bytes rx_buffer_;
  std::thread worker_;
};

}  // namespace interedge::core
