// The common execution environment (paper §3.1): hosts service modules,
// provides each a service_context over the node's primitives, dispatches
// slow-path packets, and checkpoints module state.
//
// "All service modules are written to this common execution environment,
// creating a Write-Once-Run-Anywhere (WORA) ecosystem for InterEdge
// services."
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/service_module.h"

namespace interedge::core {

// The node facilities the execution environment builds contexts from;
// implemented by service_node (and by bench harnesses directly).
class node_services {
 public:
  virtual ~node_services() = default;
  virtual peer_id node_id() const = 0;
  virtual std::uint16_t edomain() const = 0;
  virtual const clock& node_clock() const = 0;
  virtual void send(peer_id to, const ilp::ilp_header& header, bytes payload) = 0;
  virtual void schedule(nanoseconds delay, std::function<void()> fn) = 0;
  virtual std::optional<peer_id> next_hop(edge_addr dest) const = 0;
  virtual decision_cache& cache() = 0;
  virtual metrics_registry& metrics() = 0;

  // Decision-cache invalidation entry points. The defaults act on the
  // node's own cache; a node with more than one cache overrides them, so
  // service modules stay oblivious to how many caches exist.
  virtual void invalidate_connection(ilp::service_id service, ilp::connection_id conn) {
    cache().erase_connection(service, conn);
  }
  virtual void invalidate_service(ilp::service_id service) { cache().erase_service(service); }
};

class exec_env {
 public:
  explicit exec_env(node_services& node);
  ~exec_env();

  // Deploys a module and calls its start() hook. The InterEdge service
  // model requires every SN to run every standardized module.
  void deploy(std::unique_ptr<service_module> module);

  // Installs an operator-imposed interceptor (paper §3.2, third invocation
  // mode: a "pass-through" SN at an enterprise boundary "terminates ILP
  // and executes the operator-imposed services, and then forwards to the
  // next-hop SN where the client-invoked InterEdge services would be
  // implemented"). The interceptor sees every packet before dispatch; its
  // verdict means:
  //   drop          -> packet blocked by operator policy
  //   forward       -> operator pushed it onward (local services bypassed)
  //   deliver_local -> continue to the addressed service module here
  void set_interceptor(std::unique_ptr<service_module> interceptor);
  service_module* interceptor() { return interceptor_.module.get(); }

  bool has_module(ilp::service_id service) const;
  service_module* module_for(ilp::service_id service);
  std::vector<ilp::service_id> deployed() const;

  // Slow-path dispatch: routes the packet to its service module.
  // Unknown service => drop (the uniform service model means a correctly
  // configured SN never sees one; a misbehaving peer might).
  module_result dispatch(const packet& pkt);

  // Per-service configuration, standardized per §5.
  void set_config(ilp::service_id service, const std::string& key, const std::string& value);

  // Whole-environment checkpoint (module states + their storage).
  bytes checkpoint();
  void restore(const_byte_span snapshot);

  // Retry budget for dispatches that throw transient_error: the packet is
  // re-offered to the module up to `retries` more times (inline — the
  // slow path is synchronous, so this is the capped backoff) and dropped
  // when the budget runs out. Any other exception drops immediately; a
  // throwing module never takes the SN down.
  void set_transient_retry_limit(std::uint32_t retries) { transient_retries_ = retries; }
  std::uint64_t retries_attempted() const { return retries_attempted_; }
  std::uint64_t retries_exhausted() const { return retries_exhausted_; }
  std::uint64_t module_errors() const { return module_errors_; }

  std::uint64_t dispatches() const { return dispatches_; }
  std::uint64_t unknown_service_drops() const { return unknown_drops_; }

 private:
  class context_impl;
  struct deployed_module {
    std::unique_ptr<service_module> module;
    std::unique_ptr<context_impl> context;
    // Handle resolved at deploy: sn.slowpath.dispatch{service=<name>}.
    counter* dispatch_counter = nullptr;
  };

  module_result invoke(deployed_module& dm, const packet& pkt);

  node_services& node_;
  std::map<ilp::service_id, deployed_module> modules_;
  deployed_module interceptor_;
  std::uint64_t dispatches_ = 0;
  std::uint64_t unknown_drops_ = 0;
  std::uint64_t intercepted_ = 0;
  std::uint32_t transient_retries_ = 2;
  std::uint64_t retries_attempted_ = 0;
  std::uint64_t retries_exhausted_ = 0;
  std::uint64_t module_errors_ = 0;
  counter* unknown_drop_counter_ = nullptr;
  counter* retry_counter_ = nullptr;
  counter* retry_exhausted_counter_ = nullptr;
  counter* module_error_counter_ = nullptr;
};

}  // namespace interedge::core
