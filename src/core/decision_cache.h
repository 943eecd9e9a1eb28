// The pipe-terminus decision cache (paper §4 and Appendix B).
//
// Match-action entries keyed by (L3 source, service ID, connection ID).
// Implementations "can arbitrarily evict entries, even when the connections
// they are associated with are active" — correctness never depends on an
// entry being present, because a miss falls back to the service module.
// This implementation evicts least-recently-used entries at capacity.
//
// Appendix B also requires an API "that services can use to determine
// whether or not a decision cache entry has been recently used" by
// "retrieving the hit-count for an entry" — see hit_count().
//
// The hash is SipHash-keyed so an adversary choosing connection IDs cannot
// force pathological collisions.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "common/clock.h"
#include "core/packet.h"
#include "crypto/siphash.h"

namespace interedge::core {

// The decision cache's keyed-hash key, derived from a 64-bit seed
// (sn_config.cache_hash_seed).
crypto::siphash_key cache_hash_key(std::uint64_t seed);

// SipHash of the packed (l3_src, service, connection) tuple.
std::uint64_t cache_key_hash(const crypto::siphash_key& k, const cache_key& key);

struct cache_stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t expired = 0;  // TTL lapses (counted as misses too on lookup)
};

class decision_cache {
 public:
  explicit decision_cache(std::size_t capacity, std::uint64_t hash_seed = 0);

  // Arms per-entry TTLs: inserts whose decision carries ttl > 0 expire
  // that long after insertion. Without a clock TTLs are ignored and
  // entries live until LRU eviction/invalidation, as before. The clock
  // must outlive the cache.
  void set_clock(const clock* clk) { clock_ = clk; }

  // Looks up a decision; bumps recency and the entry's hit count. An
  // expired entry is erased and reported as a miss (stats().expired).
  std::optional<decision> lookup(const cache_key& key);
  // Read-only probe: no recency/hit-count side effects.
  bool contains(const cache_key& key) const;

  // Inserts or replaces. Evicts the LRU entry at capacity.
  void insert(const cache_key& key, decision d);

  // Targeted invalidation.
  bool erase(const cache_key& key);
  // Drops every entry for (service, connection) regardless of L3 source —
  // used when a service tears down a connection. O(entries of that
  // service) via the secondary index, not O(cache size).
  std::size_t erase_connection(ilp::service_id service, ilp::connection_id connection);
  // Drops every entry installed by a service (service reconfiguration).
  std::size_t erase_service(ilp::service_id service);
  // Drops every forward verdict that names `hop` as a next hop — called
  // when liveness declares a peer down, so flows re-resolve on the slow
  // path instead of blackholing into the dead adjacency. O(cache size):
  // peer-down is a rare control event, not a packet-path operation.
  std::size_t erase_forwards_to(peer_id hop);
  void clear();

  // Sweeps all expired entries now (checkpoint hygiene); returns the
  // number removed. No-op without a clock.
  std::size_t purge_expired();

  // Warm-state snapshot for checkpointed failover: entries serialized
  // LRU-first so a restore replays them as inserts and reproduces the
  // same recency order; TTLs are stored as remaining time relative to
  // `now`, hit counts ride along (Appendix B queries survive failover).
  // Entries already expired at `now` are omitted.
  bytes snapshot(time_point now) const;
  // Replays a snapshot into this cache (keeping this cache's capacity —
  // overflow evicts LRU as usual). Returns entries restored. Throws
  // interedge::serial_error on malformed input.
  std::size_t restore_warm(const_byte_span data, time_point now);

  // Appendix B hit-count API. 0 if the entry is not resident.
  std::uint64_t hit_count(const cache_key& key) const;

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  const cache_stats& stats() const { return stats_; }

 private:
  struct entry;
  using lru_list = std::list<entry>;
  // Secondary index: service -> its resident entries, so slow-path
  // invalidations (erase_connection / erase_service) never scan the whole
  // LRU list (at 1M entries a linear scan stalls the datapath).
  using svc_bucket = std::list<lru_list::iterator>;
  struct entry {
    cache_key key;
    decision value;
    std::uint64_t hits = 0;
    time_point expires = time_point::max();  // max() = no TTL
    svc_bucket::iterator svc_it{};  // back-pointer into by_service_[key.service]
  };
  struct key_hash {
    crypto::siphash_key seed;
    std::size_t operator()(const cache_key& k) const {
      return static_cast<std::size_t>(cache_key_hash(seed, k));
    }
  };

  void svc_index_add(lru_list::iterator it);
  void svc_index_remove(lru_list::iterator it);
  bool expired_at(const entry& e, time_point now) const {
    return e.expires != time_point::max() && now >= e.expires;
  }

  lru_list entries_;  // front = most recent
  std::unordered_map<cache_key, lru_list::iterator, key_hash> index_;
  std::unordered_map<ilp::service_id, svc_bucket> by_service_;
  std::size_t capacity_;
  const clock* clock_ = nullptr;
  cache_stats stats_;
};

}  // namespace interedge::core
