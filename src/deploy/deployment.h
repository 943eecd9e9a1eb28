// Deployment builder: assembles a complete InterEdge over the simulator —
// edomains with their cores, SNs with routers, hosts with first-hop
// associations, the global lookup service, full-mesh inter-edomain peering
// (§3.2), and the settlement ledger.
//
// This is the top-level entry point a library user starts from; the
// examples, the integration tests, and the service benchmarks all build
// their topologies through it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "core/service_node.h"
#include "edomain/domain_core.h"
#include "edomain/peering.h"
#include "edomain/routing.h"
#include "enclave/attestation.h"
#include "host/host_stack.h"
#include "lookup/lookup_service.h"
#include "simnet/simulation.h"

namespace interedge::deploy {

using edomain::edomain_id;
using ilp::edge_addr;
using ilp::peer_id;

struct deployment_config {
  std::uint64_t seed = 1;
  // §3.2 optimization: SNs open on-demand direct pipes to remote-edomain
  // SNs instead of relaying through gateways.
  bool direct_interdomain = false;
  std::size_t cache_capacity = 4096;
  bool hosts_allow_direct = true;

  // ---- cross-hop path tracing (ISSUE 5) ----
  // Origin sampling at the hosts: 1 in 2^shift sends. 0 traces every send
  // (deterministic tests); host_path_span_capacity 0 disables origination.
  std::uint32_t trace_sample_shift = 8;
  std::size_t host_path_span_capacity = 0;
  std::size_t sn_path_span_capacity = 1024;
  // Pipe keepalives for the SNs (0 = liveness off, the default): needed by
  // topologies that want peer-down / failover events in their traces.
  nanoseconds sn_keepalive_interval{0};
  // Black-box flight recorder ring per SN; 0 disables it.
  std::size_t sn_blackbox_capacity = 1024;

  // ---- slow-path degradation (DESIGN.md §10), forwarded to sn_config ----
  // The in-flight high-water mark past which the terminus sheds with a
  // TTL'd default drop verdict (0 = legacy blocking). Scenario suites arm
  // it to model overload; steady-state deployments leave it off.
  std::size_t sn_slowpath_high_water = 0;
  nanoseconds sn_shed_ttl = std::chrono::milliseconds(50);

  // ---- continuous profiling plane (ISSUE 10), forwarded to sn_config ----
  // On-CPU sampling Hz per SN thread; 0 (the default) leaves the profiler
  // off, so simulator topologies and scenario suites pay nothing unless a
  // deployment opts in. Sampling never touches simulated behavior (the
  // SIGPROF handler only reads stacks; SA_RESTART hides it from syscalls)
  // — the scenario determinism guard asserts exactly that.
  std::uint32_t sn_profiler_hz = 0;
  // Deterministic backend choice for tests (prof.h: skip the perf probe).
  bool sn_profiler_force_timer = false;
};

struct host_identity {
  edge_addr addr = 0;
  crypto::x25519_keypair keys;
  peer_id first_hop_sn = 0;
  edomain_id domain = 0;
};

class deployment {
 public:
  explicit deployment(deployment_config config = {});
  ~deployment();

  deployment(const deployment&) = delete;
  deployment& operator=(const deployment&) = delete;

  sim::simulation& net() { return net_; }
  lookup::lookup_service& directory() { return directory_; }
  edomain::settlement_ledger& ledger() { return ledger_; }
  // The root seed every derived randomness stream (simnet, id_rng, service
  // secrets, workload generators) hangs off — see DESIGN.md §14.
  std::uint64_t seed() const { return config_.seed; }

  // ---- topology construction ----
  edomain_id add_edomain();
  peer_id add_sn(edomain_id domain);
  // Attaches a host to an SN (0 = the edomain's first SN); registers its
  // record (address, owner key, first-hop SNs) with the lookup service.
  // Fallback SNs become part of the association ("every host is associated
  // with one or more first-hop SNs", §3.1) and appear in the host record.
  host::host_stack& add_host(edomain_id domain, peer_id sn = 0,
                             std::vector<peer_id> fallback_sns = {});

  // Establishes the full mesh: "every edomain peers directly with all
  // other edomains via an ILP connection", designating gateway SN pairs
  // and populating the gateway maps. Also installs the settlement tap.
  void interconnect();

  // Deploys a service module on every SN (the uniform service model:
  // standardized modules are "deployed on all SNs"). The factory receives
  // the SN's edomain core and id so control-plane services can reach their
  // core.
  using module_factory =
      std::function<std::unique_ptr<core::service_module>(edomain::domain_core&, peer_id sn)>;
  void deploy_service(const module_factory& factory);
  void deploy_service_simple(
      const std::function<std::unique_ptr<core::service_module>()>& factory);

  // ---- attestation (§3.1: "We assume that SNs have TPMs") ----
  // Provisions every SN with a TPM keyed by `authority`, extends each with
  // the given golden module measurement, and registers the expectation.
  void provision_attestation(enclave::attestation_authority& authority,
                             const enclave::measurement& golden,
                             const std::string& label);
  // Challenges one SN; true if its quote verifies against the golden value.
  bool attest_sn(enclave::attestation_authority& authority, peer_id sn,
                 const std::string& label, const_byte_span nonce) const;
  enclave::tpm* tpm_of(peer_id sn);

  // ---- accessors ----
  core::service_node& sn(peer_id id) { return *sns_.at(id); }
  edomain::domain_core& core_of(edomain_id domain) { return *cores_.at(domain); }
  host::host_stack& host_at(edge_addr addr) { return *hosts_.at(addr); }
  const host_identity& identity_of(edge_addr addr) const { return identities_.at(addr); }
  edomain_id domain_of_sn(peer_id sn) const { return sn_domain_.at(sn); }
  std::vector<peer_id> sns_in(edomain_id domain) const;

  // Runs the simulation until idle.
  void run() { net_.run(); }

 private:
  deployment_config config_;
  sim::simulation net_;
  lookup::lookup_service directory_;
  edomain::settlement_ledger ledger_;
  rng id_rng_;

  std::map<edomain_id, std::unique_ptr<edomain::domain_core>> cores_;
  std::map<peer_id, std::unique_ptr<edomain::sn_router>> routers_;
  std::map<peer_id, std::unique_ptr<core::service_node>> sns_;
  std::map<peer_id, edomain_id> sn_domain_;
  std::map<edge_addr, std::unique_ptr<host::host_stack>> hosts_;
  std::map<edge_addr, host_identity> identities_;
  std::map<peer_id, std::unique_ptr<enclave::tpm>> tpms_;
  edomain_id next_domain_ = 1;
  bool interconnected_ = false;
};

}  // namespace interedge::deploy
