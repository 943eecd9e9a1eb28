#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/udp.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace interedge::net {
namespace {

std::uint64_t pack_source(const sockaddr_in& addr) {
  return (static_cast<std::uint64_t>(addr.sin_addr.s_addr) << 16) | addr.sin_port;
}

bool transient(int err) { return err == EAGAIN || err == EWOULDBLOCK || err == EINTR; }

// Control buffer for one UDP_SEGMENT cmsg (the run's segment size).
union gso_cmsg {
  char buf[CMSG_SPACE(sizeof(std::uint16_t))];
  cmsghdr align;
};

}  // namespace

udp_endpoint::udp_endpoint(std::uint16_t port, bool reuse_port)
    : udp_endpoint(udp_config{.port = port, .reuse_port = reuse_port, .pool = {}}) {}

udp_endpoint::udp_endpoint(const udp_config& cfg)
    : pool_cfg_(cfg.pool), tx_arena_(std::make_unique_for_overwrite<std::uint8_t[]>(kTxArenaBytes)) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("udp socket failed");

  if (cfg.reuse_port) {
    const int one = 1;
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("udp SO_REUSEPORT failed: ") + std::strerror(errno));
    }
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg.port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error(std::string("udp bind failed: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  const int fl = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, fl | O_NONBLOCK);
}

udp_endpoint::~udp_endpoint() {
  flush_tx();
  rx_slabs_.clear();
  view_scratch_.clear();
  cache_.reset();
  if (fd_ >= 0) ::close(fd_);
}

void udp_endpoint::ensure_pool() {
  if (pool_) return;
  pool_ = std::make_unique<buf::buf_pool>(pool_cfg_);
  cache_.emplace(*pool_);
}

void udp_endpoint::add_peer(peer_id peer, const std::string& ip, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr);
  addr.sin_port = htons(port);
  peers_.insert(peer, addr);
  by_source_.insert(pack_source(addr), peer);
}

bool udp_endpoint::send(peer_id to, const_byte_span datagram) {
  return send_gather(to, datagram, {});
}

bool udp_endpoint::send_gather(peer_id to, const_byte_span head, const_byte_span payload) {
  if (!stage(to, head, payload)) return false;
  return tx_holds_ > 0 || flush_tx() > 0;
}

std::size_t udp_endpoint::send_batch(peer_id to, std::span<const bytes> datagrams) {
  if (peers_.find(to) == nullptr) return 0;
  const std::uint64_t before = sent_;
  std::size_t staged = 0;
  for (const bytes& d : datagrams) staged += stage(to, d, {}) ? 1 : 0;
  if (tx_holds_ > 0) return staged;
  flush_tx();
  return static_cast<std::size_t>(sent_ - before);
}

bool udp_endpoint::stage(peer_id to, const_byte_span head, const_byte_span payload) {
  const sockaddr_in* addr = peers_.find(to);
  const std::size_t len = head.size() + payload.size();
  if (addr == nullptr || len > kTxArenaBytes) return false;
  if (tx_count_ == kTxQueueMax || tx_used_ + len > kTxArenaBytes) flush_tx();
  std::uint8_t* at = tx_arena_.get() + tx_used_;
  // Empty spans may carry a null data pointer, which memcpy must not see.
  if (!head.empty()) std::memcpy(at, head.data(), head.size());
  if (!payload.empty()) std::memcpy(at + head.size(), payload.data(), payload.size());
  tx_queue_[tx_count_++] =
      tx_entry{*addr, static_cast<std::uint32_t>(tx_used_), static_cast<std::uint32_t>(len)};
  tx_used_ += len;
  return true;
}

std::size_t udp_endpoint::run_length(std::size_t first) const {
  const tx_entry& lead = tx_queue_[first];
  // A zero-length datagram cannot be a GSO segment: it would vanish.
  if (lead.len == 0) return 1;
  std::size_t run = 1;
  // The queue cap and the arena size already bound a run to 64 segments
  // and to one IPv4 datagram's payload.
  for (std::size_t i = first + 1; i < tx_count_; ++i, ++run) {
    const tx_entry& e = tx_queue_[i];
    const bool same_dest = e.to.sin_addr.s_addr == lead.to.sin_addr.s_addr &&
                           e.to.sin_port == lead.to.sin_port;
    // Every segment but the last has the run's length; a shorter one
    // ends it.
    if (!same_dest || e.len == 0 || e.len > lead.len || tx_queue_[i - 1].len != lead.len) break;
  }
  return run;
}

std::size_t udp_endpoint::flush_tx() {
  std::size_t next = 0;           // first entry the kernel has not taken
  std::size_t singles_until = 0;  // entries before this go one per message
  std::size_t retries = 0;
  std::size_t accepted = 0;
  mmsghdr msgs[kTxQueueMax];
  iovec iovs[kTxQueueMax];
  gso_cmsg ctrl[kTxQueueMax];
  std::size_t segs[kTxQueueMax];  // datagrams in each message
  while (next < tx_count_) {
    unsigned count = 0;
    for (std::size_t i = next; i < tx_count_; i += segs[count++]) {
      const tx_entry& lead = tx_queue_[i];
      const std::size_t run = i < singles_until ? 1 : run_length(i);
      const tx_entry& last = tx_queue_[i + run - 1];
      iovs[count] = {tx_arena_.get() + lead.off, last.off + last.len - lead.off};
      msgs[count] = mmsghdr{};
      msghdr& h = msgs[count].msg_hdr;
      h.msg_name = const_cast<sockaddr_in*>(&lead.to);
      h.msg_namelen = sizeof(lead.to);
      h.msg_iov = &iovs[count];
      h.msg_iovlen = 1;
      if (run > 1) {
        h.msg_control = ctrl[count].buf;
        h.msg_controllen = sizeof(ctrl[count].buf);
        cmsghdr* c = CMSG_FIRSTHDR(&h);
        c->cmsg_level = SOL_UDP;
        c->cmsg_type = UDP_SEGMENT;
        c->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
        const auto segment = static_cast<std::uint16_t>(lead.len);
        std::memcpy(CMSG_DATA(c), &segment, sizeof(segment));
      }
      segs[count] = run;
    }
    // sendmmsg reports an error only when nothing went out; a short count
    // leaves the failing message first in line for the next call.
    const int n = ::sendmmsg(fd_, msgs, count, 0);
    if (n > 0) {
      for (int k = 0; k < n; ++k) {
        next += segs[k];
        accepted += segs[k];
      }
      continue;
    }
    if (transient(errno)) {
      ++send_again_;
      if (m_send_again_ != nullptr) m_send_again_->add();
      if (++retries > kSendRetries) break;  // give up on the rest
      continue;
    }
    if ((errno == EINVAL || errno == EIO || errno == EMSGSIZE) && segs[0] > 1) {
      ++gso_fallback_;
      if (m_gso_fallback_ != nullptr) m_gso_fallback_->add();
      singles_until = next + segs[0];
      continue;
    }
    next += segs[0];  // a hard error loses this message; UDP is lossy
  }
  sent_ += accepted;
  tx_count_ = 0;
  tx_used_ = 0;
  return accepted;
}

std::optional<std::pair<peer_id, bytes>> udp_endpoint::poll() {
  std::uint8_t buffer[65536];
  sockaddr_in source{};
  socklen_t len = sizeof(source);
  const ssize_t n = ::recvfrom(fd_, buffer, sizeof(buffer), 0,
                               reinterpret_cast<sockaddr*>(&source), &len);
  if (n < 0) return std::nullopt;  // EAGAIN / transient
  const peer_id* peer = by_source_.find(pack_source(source));
  if (peer == nullptr) {
    ++dropped_unknown_;
    return std::nullopt;
  }
  ++received_;
  return std::make_pair(*peer, bytes(buffer, buffer + n));
}

std::size_t udp_endpoint::recv_into_slabs(
    std::size_t max, std::vector<std::pair<peer_id, buf::pkt_view>>& out) {
  std::size_t appended = 0;
#ifdef __linux__
  ensure_pool();
  // Keep up to `max` slabs armed; unused ones stay for the next call.
  while (rx_slabs_.size() < max) {
    auto ref = cache_->try_alloc();
    if (!ref) break;  // pool dry: recv what we can (exhaustion is counted)
    rx_slabs_.push_back(std::move(ref));
  }
  if (rx_slabs_.empty()) {
    ++rx_empty_;
    return 0;
  }
  const std::size_t want = std::min(max, rx_slabs_.size());
  mmsghdr msgs[kBatchMax]{};
  iovec iovs[kBatchMax];
  sockaddr_in sources[kBatchMax];
  for (std::size_t i = 0; i < want; ++i) {
    iovs[i] = {rx_slabs_[i].data(), rx_slabs_[i].size()};
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &sources[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(sources[i]);
  }
  const int n = ::recvmmsg(fd_, msgs, static_cast<unsigned>(want), 0, nullptr);
  if (n <= 0) {
    // recvmmsg's error report is coarse: one EAGAIN return covers both
    // "socket empty" and genuine failures, and the kernel surfaces an
    // error only for the FIRST datagram — so the conditions must be
    // counted here or they vanish.
    if (n == 0 || errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      ++rx_empty_;
    } else {
      ++rx_errors_;
    }
    return 0;
  }
  // A short batch means the socket ran dry mid-drain (the EAGAIN happened
  // inside the batch, which recvmmsg reports only as a smaller count).
  if (static_cast<std::size_t>(n) < want) ++rx_partial_batches_;
  // Consume the first n slabs (the kernel filled them in order); survivors
  // shift down and stay armed.
  for (int i = 0; i < n; ++i) {
    if ((msgs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0) ++rx_truncated_;
    const peer_id* peer = by_source_.find(pack_source(sources[i]));
    if (peer == nullptr) {
      ++dropped_unknown_;
      rx_slabs_[i].reset();  // slab back to the pool
      continue;
    }
    const std::size_t len =
        std::min<std::size_t>(msgs[i].msg_len, rx_slabs_[i].size());
    ++received_;
    out.emplace_back(*peer, buf::pkt_view(std::move(rx_slabs_[i]), 0, len));
    ++appended;
  }
  rx_slabs_.erase(rx_slabs_.begin(), rx_slabs_.begin() + n);
#else
  for (std::size_t i = 0; i < max; ++i) {
    auto datagram = poll();
    if (!datagram) break;
    ensure_pool();
    auto ref = cache_->try_alloc();
    if (!ref) break;
    const std::size_t len = std::min(datagram->second.size(), ref.size());
    std::memcpy(ref.data(), datagram->second.data(), len);
    out.emplace_back(datagram->first, buf::pkt_view(std::move(ref), 0, len));
    ++appended;
  }
  if (appended == 0) {
    ++rx_empty_;
  } else if (appended < max) {
    ++rx_partial_batches_;
  }
#endif
  return appended;
}

void udp_endpoint::sync_telemetry() {
  if (m_rx_truncated_ == nullptr) return;  // telemetry not enabled
  if (rx_truncated_ != last_rx_truncated_) {
    m_rx_truncated_->add(rx_truncated_ - last_rx_truncated_);
    last_rx_truncated_ = rx_truncated_;
  }
  if (rx_errors_ != last_rx_errors_) {
    m_rx_errors_->add(rx_errors_ - last_rx_errors_);
    last_rx_errors_ = rx_errors_;
  }
  if (dropped_unknown_ != last_dropped_unknown_) {
    m_dropped_unknown_->add(dropped_unknown_ - last_dropped_unknown_);
    last_dropped_unknown_ = dropped_unknown_;
  }
}

std::size_t udp_endpoint::recv_batch_views(
    std::size_t max, std::vector<std::pair<peer_id, buf::pkt_view>>& out) {
  max = std::min(max, kBatchMax);
  if (max == 0) return 0;
  const std::size_t n = recv_into_slabs(max, out);
  sync_telemetry();
  return n;
}

std::size_t udp_endpoint::recv_batch(std::size_t max,
                                     std::vector<std::pair<peer_id, bytes>>& out) {
  view_scratch_.clear();
  const std::size_t n = recv_batch_views(max, view_scratch_);
  for (auto& [peer, view] : view_scratch_) {
    const const_byte_span data = view.span();
    out.emplace_back(peer, bytes(data.begin(), data.end()));
  }
  view_scratch_.clear();  // release slabs promptly
  return n;
}

// ---- event_loop --------------------------------------------------------

void event_loop::attach(udp_endpoint& endpoint, datagram_handler handler) {
  endpoints_.push_back(attached{&endpoint, std::move(handler), nullptr, nullptr});
}

void event_loop::attach_batch(udp_endpoint& endpoint, batch_handler handler) {
  endpoints_.push_back(attached{&endpoint, nullptr, std::move(handler), nullptr});
}

void event_loop::attach_views(udp_endpoint& endpoint, views_handler handler) {
  endpoints_.push_back(attached{&endpoint, nullptr, nullptr, std::move(handler)});
}

void event_loop::schedule(nanoseconds delay, std::function<void()> fn) {
  timers_.push(timer{std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<std::chrono::steady_clock::duration>(delay),
                     next_seq_++, std::move(fn)});
}

event_loop::tx_hold_scope::tx_hold_scope(const std::vector<attached>& endpoints)
    : endpoints_(endpoints), held_(endpoints.size()) {
  for (std::size_t i = 0; i < held_; ++i) endpoints_[i].endpoint->hold_tx();
}

event_loop::tx_hold_scope::~tx_hold_scope() {
  for (std::size_t i = 0; i < held_; ++i) endpoints_[i].endpoint->release_tx();
}

std::size_t event_loop::pass(std::chrono::milliseconds max_wait) {
  const auto now = std::chrono::steady_clock::now();

  // Fire due timers; what they send leaves before the pass blocks.
  {
    const tx_hold_scope hold(endpoints_);
    while (!timers_.empty() && timers_.top().due <= now) {
      auto fn = timers_.top().fn;
      timers_.pop();
      fn();
    }
  }

  // Wait for readability across all endpoints (bounded by the next timer).
  fd_set readable;
  FD_ZERO(&readable);
  int max_fd = -1;
  for (const attached& a : endpoints_) {
    FD_SET(a.endpoint->fd(), &readable);
    max_fd = std::max(max_fd, a.endpoint->fd());
  }
  auto wait = max_wait;
  if (!timers_.empty()) {
    const auto until_timer = std::chrono::duration_cast<std::chrono::milliseconds>(
        timers_.top().due - now);
    wait = std::clamp(until_timer, std::chrono::milliseconds(0), max_wait);
  }
  timeval tv{static_cast<time_t>(wait.count() / 1000),
             static_cast<suseconds_t>((wait.count() % 1000) * 1000)};
  if (::select(max_fd + 1, &readable, nullptr, nullptr, &tv) <= 0) return 0;

  // Drain everything readable. Handlers' sends stage and leave in one
  // flush per endpoint when the hold ends.
  const tx_hold_scope hold(endpoints_);
  std::size_t dispatched = 0;
  for (const attached& a : endpoints_) {
    if (a.views) {
      views_scratch_.clear();
      while (a.endpoint->recv_batch_views(udp_endpoint::kBatchMax, views_scratch_) > 0) {
      }
      if (!views_scratch_.empty()) {
        a.views(views_scratch_);
        dispatched += views_scratch_.size();
        views_scratch_.clear();  // release slabs before the next pass
      }
      continue;
    }
    if (a.batch) {
      batch_scratch_.clear();
      while (a.endpoint->recv_batch(udp_endpoint::kBatchMax, batch_scratch_) > 0) {
      }
      if (!batch_scratch_.empty()) {
        a.batch(batch_scratch_);
        dispatched += batch_scratch_.size();
      }
      continue;
    }
    while (auto datagram = a.endpoint->poll()) {
      a.handler(datagram->first, datagram->second);
      ++dispatched;
    }
  }
  return dispatched;
}

std::size_t event_loop::run_for(std::chrono::milliseconds deadline_from_now) {
  const auto deadline = std::chrono::steady_clock::now() + deadline_from_now;
  std::size_t total = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    total += pass(std::max(std::chrono::milliseconds(1), remaining));
  }
  return total;
}

std::size_t event_loop::run_until_quiet(std::chrono::milliseconds quiet,
                                        std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  auto last_activity = std::chrono::steady_clock::now();
  std::size_t total = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = pass(std::chrono::milliseconds(5));
    if (n > 0) {
      total += n;
      last_activity = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_activity > quiet && timers_.empty()) {
      break;
    }
  }
  return total;
}

}  // namespace interedge::net
