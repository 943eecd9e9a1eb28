#include "core/channel.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/serial.h"

namespace interedge::core {
namespace {

void encode_decision(writer& w, const decision& d) {
  w.u8(static_cast<std::uint8_t>(d.kind));
  w.varint(static_cast<std::uint64_t>(d.ttl.count()));
  w.varint(d.next_hops.size());
  for (peer_id hop : d.next_hops) w.u64(hop);
}

decision decode_decision(reader& r) {
  decision d;
  d.kind = static_cast<decision::verdict>(r.u8());
  d.ttl = nanoseconds(static_cast<std::int64_t>(r.varint()));
  const std::uint64_t n = r.varint();
  // n is attacker-influenced: validate against the bytes actually present
  // before any allocation (8 bytes per hop).
  if (n > r.remaining() / 8) throw serial_error("decision hop count exceeds input");
  d.next_hops.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) d.next_hops.push_back(r.u64());
  return d;
}

void encode_key(writer& w, const cache_key& k) {
  w.u64(k.l3_src);
  w.u32(k.service);
  w.u64(k.connection);
}

cache_key decode_key(reader& r) {
  cache_key k;
  k.l3_src = r.u64();
  k.service = r.u32();
  k.connection = r.u64();
  return k;
}

}  // namespace

bytes slowpath_request::encode() const {
  writer w(32 + header_bytes.size() + payload.size());
  w.u64(token);
  w.u64(l3_src);
  w.blob(header_bytes);
  w.blob(payload);
  return w.take();
}

slowpath_request slowpath_request::decode(const_byte_span data) {
  reader r(data);
  slowpath_request req;
  req.token = r.u64();
  req.l3_src = r.u64();
  const const_byte_span h = r.blob();
  req.header_bytes.assign(h.begin(), h.end());
  const const_byte_span p = r.blob();
  req.payload.assign(p.begin(), p.end());
  return req;
}

bytes slowpath_response::encode() const {
  writer w(64);
  w.u64(token);
  encode_decision(w, verdict);
  w.varint(cache_inserts.size());
  for (const auto& [key, value] : cache_inserts) {
    encode_key(w, key);
    encode_decision(w, value);
  }
  w.varint(sends.size());
  for (const outbound& o : sends) {
    w.u64(o.to);
    w.blob(o.header.encode());
    w.blob(o.payload);
  }
  return w.take();
}

slowpath_response slowpath_response::decode(const_byte_span data) {
  reader r(data);
  slowpath_response resp;
  resp.token = r.u64();
  resp.verdict = decode_decision(r);
  const std::uint64_t n_inserts = r.varint();
  for (std::uint64_t i = 0; i < n_inserts; ++i) {
    cache_key key = decode_key(r);
    decision value = decode_decision(r);
    resp.cache_inserts.emplace_back(key, std::move(value));
  }
  const std::uint64_t n_sends = r.varint();
  for (std::uint64_t i = 0; i < n_sends; ++i) {
    outbound o;
    o.to = r.u64();
    o.header = ilp::ilp_header::decode(r.blob());
    const const_byte_span p = r.blob();
    o.payload.assign(p.begin(), p.end());
    resp.sends.push_back(std::move(o));
  }
  return resp;
}

// ---- ring_channel ----------------------------------------------------

ring_channel::ring_channel(slowpath_handler handler, std::size_t depth)
    : requests_(depth), responses_(depth) {
  worker_ = std::thread([this, h = std::move(handler)]() mutable { worker_loop(std::move(h)); });
}

ring_channel::~ring_channel() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(doorbell_mu_);
    request_doorbell_.notify_one();
  }
  worker_.join();
}

namespace {
// Busy-wait hint: cheap spin before falling back to yielding, so the ring
// stays on the fast path when the producer is active but does not burn a
// core forever when idle.
inline void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause");
#else
  asm volatile("" ::: "memory");
#endif
}
}  // namespace

void ring_channel::worker_loop(slowpath_handler handler) {
  std::uint32_t idle_spins = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    auto req = requests_.try_pop();
    if (!req) {
      if (++idle_spins < 1024) {
        spin_pause();
        continue;
      }
      // Park until the producer rings the doorbell.
      std::unique_lock lock(doorbell_mu_);
      worker_parked_.store(true, std::memory_order_release);
      request_doorbell_.wait_for(lock, std::chrono::milliseconds(1), [this] {
        return !requests_.empty() || stop_.load(std::memory_order_acquire);
      });
      worker_parked_.store(false, std::memory_order_release);
      idle_spins = 0;
      continue;
    }
    idle_spins = 0;
    slowpath_response resp = handler(std::move(*req));
    while (!responses_.try_push(std::move(resp))) {
      if (stop_.load(std::memory_order_acquire)) return;
      spin_pause();
    }
    if (consumer_parked_.load(std::memory_order_acquire)) {
      std::lock_guard lock(doorbell_mu_);
      response_doorbell_.notify_one();
    }
  }
}

bool ring_channel::submit(slowpath_request request) {
  if (!requests_.try_push(std::move(request))) return false;
  if (worker_parked_.load(std::memory_order_acquire)) {
    std::lock_guard lock(doorbell_mu_);
    request_doorbell_.notify_one();
  }
  return true;
}

std::optional<slowpath_response> ring_channel::poll() { return responses_.try_pop(); }

std::optional<slowpath_response> ring_channel::poll_wait() {
  for (std::uint32_t spins = 0; spins < 1024; ++spins) {
    if (auto r = responses_.try_pop()) return r;
    spin_pause();
  }
  std::unique_lock lock(doorbell_mu_);
  consumer_parked_.store(true, std::memory_order_release);
  response_doorbell_.wait_for(lock, std::chrono::milliseconds(1),
                              [this] { return !responses_.empty(); });
  consumer_parked_.store(false, std::memory_order_release);
  return responses_.try_pop();
}

// ---- ipc_channel -----------------------------------------------------

namespace {

// Length-prefixed frame write as a single syscall (short writes handled).
void write_frame(int fd, const bytes& frame) {
  bytes buffer(4 + frame.size());
  const std::uint32_t n = static_cast<std::uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i) buffer[i] = static_cast<std::uint8_t>(n >> (8 * i));
  std::memcpy(buffer.data() + 4, frame.data(), frame.size());

  std::size_t done = 0;
  while (done < buffer.size()) {
    const ssize_t w = ::write(fd, buffer.data() + done, buffer.size() - done);
    if (w < 0) {
      // The terminus end is non-blocking: spin briefly when the socket
      // buffer is full (the worker is draining it).
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw std::runtime_error(std::string("ipc write: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(w);
  }
}

// Extracts one complete frame from the front of `buffer`, if present.
std::optional<bytes> take_frame(bytes& buffer) {
  if (buffer.size() < 4) return std::nullopt;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= static_cast<std::uint32_t>(buffer[i]) << (8 * i);
  if (buffer.size() < 4 + n) return std::nullopt;
  bytes frame(buffer.begin() + 4, buffer.begin() + 4 + n);
  buffer.erase(buffer.begin(), buffer.begin() + 4 + n);
  return frame;
}

// Blocking buffered frame read; nullopt on EOF.
std::optional<bytes> read_frame_buffered(int fd, bytes& buffer) {
  for (;;) {
    if (auto frame = take_frame(buffer)) return frame;
    std::uint8_t chunk[16384];
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r == 0) return std::nullopt;  // EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    buffer.insert(buffer.end(), chunk, chunk + r);
  }
}

}  // namespace

ipc_channel::ipc_channel(slowpath_handler handler) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  terminus_fd_ = fds[0];
  service_fd_ = fds[1];
  // The terminus polls; its end is non-blocking.
  const int fl = ::fcntl(terminus_fd_, F_GETFL, 0);
  ::fcntl(terminus_fd_, F_SETFL, fl | O_NONBLOCK);
  worker_ = std::thread([this, h = std::move(handler)]() mutable { worker_loop(std::move(h)); });
}

ipc_channel::~ipc_channel() {
  ::shutdown(terminus_fd_, SHUT_WR);  // worker sees EOF and exits
  worker_.join();
  ::close(terminus_fd_);
  ::close(service_fd_);
}

void ipc_channel::worker_loop(slowpath_handler handler) {
  bytes buffer;
  for (;;) {
    auto frame = read_frame_buffered(service_fd_, buffer);
    if (!frame) return;  // EOF: terminus shut down
    slowpath_response resp = handler(slowpath_request::decode(*frame));
    write_frame(service_fd_, resp.encode());
  }
}

bool ipc_channel::submit(slowpath_request request) {
  write_frame(terminus_fd_, request.encode());
  return true;
}

std::optional<slowpath_response> ipc_channel::poll() {
  // Drain whatever the worker has written (non-blocking), then hand back
  // one buffered frame at a time.
  if (auto frame = take_frame(rx_buffer_)) return slowpath_response::decode(*frame);
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t r = ::read(terminus_fd_, chunk, sizeof(chunk));
    if (r > 0) {
      rx_buffer_.insert(rx_buffer_.end(), chunk, chunk + r);
      if (static_cast<std::size_t>(r) < sizeof(chunk)) break;
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    break;  // EAGAIN (nothing available) or EOF
  }
  if (auto frame = take_frame(rx_buffer_)) return slowpath_response::decode(*frame);
  return std::nullopt;
}

}  // namespace interedge::core
