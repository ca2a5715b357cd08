// Simulated IP fabric: routes datagrams between endpoints with per-path
// delay, loss, reordering, and path-MTU enforcement.
//
// This is the stand-in for the real Internet between the scanner's vantage
// point and the probed hosts (see DESIGN.md §2). Endpoints exchange real
// encoded datagrams; the fabric only delays, drops, duplicates order, or
// answers with ICMP Fragmentation Needed — exactly the impairments the
// paper's methodology must survive (§3.1, §3.5).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "netbase/ipv4.hpp"
#include "netbase/packet.hpp"
#include "netbase/packet_buf.hpp"
#include "netsim/address_table.hpp"
#include "netsim/event_loop.hpp"
#include "util/annotations.hpp"
#include "util/rng.hpp"

namespace iwscan::sim {

/// Anything that can receive datagrams at an IP address.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Called when a datagram addressed to this endpoint is delivered. The
  /// view borrows the fabric's pooled buffer for the duration of the call;
  /// endpoints that keep packet bytes must copy them. Marked as a hot-path
  /// boundary: the fabric's IWSCAN_HOT traversal stops at this virtual
  /// hand-off; receivers that are themselves datapath (ScanEngine) carry
  /// their own IWSCAN_HOT on the override.
  IWSCAN_HOT_BOUNDARY virtual void handle_packet(net::PacketView bytes) = 0;

  /// True when the endpoint holds no connection state, so whoever
  /// materialized it may detach and free it (the Internet model's eviction
  /// sweep polls this). Stateless endpoints keep the default.
  [[nodiscard]] virtual bool quiescent() const noexcept { return true; }
};

/// Impairment model for one path (scanner ↔ host).
struct PathConfig {
  SimTime latency = msec(20);        // one-way propagation delay
  SimTime jitter = SimTime::zero();  // uniform extra delay in [0, jitter]
  double loss_rate = 0.0;            // i.i.d. per-packet drop probability
  double reorder_rate = 0.0;         // probability of extra delay → reorder
  SimTime reorder_delay = msec(5);   // extra delay applied to reordered packets
  double duplicate_rate = 0.0;       // probability a packet arrives twice
  SimTime duplicate_delay = msec(2); // extra delay of the duplicate copy
  std::uint32_t path_mtu = 1500;     // smallest MTU along the path
};

struct NetworkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t packets_reordered = 0;
  std::uint64_t packets_duplicated = 0;
  std::uint64_t packets_unroutable = 0;
  std::uint64_t icmp_frag_needed = 0;
  std::uint64_t bytes_sent = 0;
};

class Network {
 public:
  /// `resolver` is consulted for destinations with no attached endpoint —
  /// the lazy-instantiation hook used by the Internet model to materialize
  /// hosts only when a probe first reaches them. It may return nullptr
  /// (address unreachable; the packet is silently dropped, as on the real
  /// Internet where the scanner just times out).
  ///
  /// The resolver must be a pure function of the address: it attaches (and
  /// sets the path of) whatever it returns, and an address it answers with
  /// nullptr stays dark, with no side effect on the fabric. send() relies
  /// on that to ask once per packet: a packet whose destination was dark
  /// at send time is dropped at delivery without asking again, unless an
  /// endpoint was attach()ed there in between.
  using Resolver = std::function<Endpoint*(net::IPv4Address)>;

  Network(EventLoop& loop, std::uint64_t seed) : loop_(loop), seed_(seed) {}

  /// The impairment seed this fabric was built with. A sharded scan
  /// (exec::run_scan) builds one private Network per worker from
  /// this seed so per-flow impairment draws match the single-shard run.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// `endpoint` must be non-null; detach() removes an attachment.
  void attach(net::IPv4Address addr, Endpoint* endpoint);
  void detach(net::IPv4Address addr);
  [[nodiscard]] bool attached(net::IPv4Address addr) const {
    const Route* route = routes_.find(addr.value());
    return route != nullptr && route->endpoint != nullptr;
  }

  /// Pre-size the fabric's tables for `expected` additional endpoints so a
  /// scan's lazy host instantiation does not grow them mid-flight. An
  /// endpoint and its path share one address-table entry. Flow state is
  /// keyed by the ordered (src, dst) pair: an impaired host's path holds
  /// two flows, one per direction, and an unimpaired one none. The flow
  /// table gets the same hint, room for both directions of at least half
  /// the expected hosts, and grows past that. Pure capacity hint: nothing
  /// iterates these tables, so the fabric's behaviour does not depend on
  /// their size.
  void reserve_endpoints(std::size_t expected) {
    routes_.reserve(routes_.size() + expected);
    flows_.reserve(flows_.size() + expected);
  }

  /// Flows that hold impairment state: one per ordered (src, dst) pair that
  /// has drawn a random number. Test introspection: pins that unimpaired
  /// paths cost no flow state.
  // iwlint: allow(unreached) -- pins that unimpaired paths hold no flow state
  [[nodiscard]] std::size_t flow_states() const noexcept { return flows_.size(); }

  void set_resolver(Resolver resolver) { resolver_ = std::move(resolver); }

  /// Deterministic fault injection for tests: invoked for every packet
  /// before impairments; returning false drops it (counted as lost). The
  /// filter must not attach, detach or change paths.
  using Filter = std::function<bool(net::PacketView)>;
  // iwlint: allow(unreached) -- deterministic fault injection for tests
  void set_filter(Filter filter) { filter_ = std::move(filter); }

  /// Wire tap (see PacketCapture): observes every packet at injection
  /// time, before any impairment — the sender-side vantage point.
  using Tap = std::function<void(net::PacketView)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  void set_default_path(const PathConfig& config) { default_path_ = config; }
  [[nodiscard]] const PathConfig& default_path() const noexcept { return default_path_; }

  /// Per-destination path override (keyed by the non-scanner endpoint).
  /// Clearing it (or detaching the endpoint) never drops the flows' draw
  /// state: a host evicted and materialized again continues its draws.
  void set_path(net::IPv4Address addr, const PathConfig& config);
  void clear_path(net::IPv4Address addr);

  /// Inject a datagram into the fabric. Routing uses the IP header's
  /// destination; impairments use the path keyed by the *remote* side
  /// (destination for scanner→host, source for host→scanner — the same
  /// path object, so loss is symmetric per host as on one Internet path).
  /// The buffer should come from this fabric's pool(); duplication and the
  /// delivery hop then share it by handle instead of copying bytes. A hop
  /// costs one address-table lookup for the destination (endpoint and path
  /// together), one more for the source's path only when the destination
  /// has none, and a flow-table lookup only when the path draws.
  IWSCAN_HOT void send(net::PacketBuf packet);

  /// Compatibility overload for callers that still build owned byte
  /// vectors; the vector is adopted into the pool.
  void send(net::Bytes bytes) { send(pool_.adopt(std::move(bytes))); }

  /// Recycled packet buffers for senders on this fabric (one pool per
  /// shard; see packet_buf.hpp for the ownership rules).
  [[nodiscard]] net::BufferPool& pool() noexcept { return pool_; }

  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }

  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }

 private:
  /// One address-table entry: what is attached there and its path
  /// override. An entry exists while either is set.
  struct Route {
    Endpoint* endpoint = nullptr;
    std::optional<PathConfig> path;
  };

  /// The entry's path override, or nullptr for none (or no entry).
  [[nodiscard]] static const PathConfig* path_of(const Route* route);
  [[nodiscard]] const PathConfig& path_for(net::IPv4Address remote) const;
  [[nodiscard]] util::Rng& flow_rng(net::IPv4Address src, net::IPv4Address dst);
  /// `dark`: send() asked the resolver and got nullptr, so delivery does
  /// not ask again (an attach() in between still wins).
  IWSCAN_HOT void deliver(SimTime delay, net::IPv4Address destination,
                          net::PacketBuf packet, bool dark);
  void send_frag_needed(net::IPv4Address original_src, net::IPv4Address original_dst,
                        std::uint32_t next_hop_mtu, net::PacketView original);

  EventLoop& loop_;
  std::uint64_t seed_;
  // Impairment draws are per-flow (keyed by the ordered (src, dst) pair and
  // seeded from `seed_`), not from one shared stream: a flow's loss/jitter
  // sequence then depends only on its own packet order, so interleaving
  // flows differently — e.g. splitting a scan across shard workers — cannot
  // change which packets of a given flow are dropped or delayed. A flow's
  // generator is created on its first draw (creating one does not advance
  // it, so every sequence is unchanged) and is never evicted: memory scales
  // with impaired flows, not with addresses probed.
  AddressTable<std::uint64_t, util::Rng> flows_;
  AddressTable<std::uint32_t, Route> routes_;
  net::BufferPool pool_;
  PathConfig default_path_;
  Resolver resolver_;
  Filter filter_;
  Tap tap_;
  NetworkStats stats_;
};

}  // namespace iwscan::sim
