#include "netsim/network.hpp"

#include <utility>

#include "util/check.hpp"

namespace iwscan::sim {

void Network::attach(net::IPv4Address addr, Endpoint* endpoint) {
  IWSCAN_ASSERT(endpoint != nullptr, "attach needs an endpoint; use detach");
  bool added = false;
  routes_.find_or_add(addr.value(), added).endpoint = endpoint;
}

void Network::detach(net::IPv4Address addr) {
  Route* route = routes_.find(addr.value());
  if (route == nullptr) return;
  route->endpoint = nullptr;
  if (!route->path) routes_.erase(addr.value());
}

void Network::set_path(net::IPv4Address addr, const PathConfig& config) {
  bool added = false;
  routes_.find_or_add(addr.value(), added).path = config;
}

void Network::clear_path(net::IPv4Address addr) {
  Route* route = routes_.find(addr.value());
  if (route == nullptr) return;
  route->path.reset();
  if (route->endpoint == nullptr) routes_.erase(addr.value());
}

const PathConfig* Network::path_of(const Route* route) {
  return route != nullptr && route->path ? &*route->path : nullptr;
}

const PathConfig& Network::path_for(net::IPv4Address remote) const {
  const PathConfig* path = path_of(routes_.find(remote.value()));
  return path != nullptr ? *path : default_path_;
}

util::Rng& Network::flow_rng(net::IPv4Address src, net::IPv4Address dst) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
  bool added = false;
  util::Rng& rng = flows_.find_or_add(key, added);
  if (added) rng.reseed(util::mix64(seed_, key));
  return rng;
}

void Network::send(net::PacketBuf packet) {
  const net::PacketView bytes = packet.view();
  const auto dst = net::peek_destination(bytes);
  const auto src = net::peek_source(bytes);
  if (!dst || !src) {
    ++stats_.packets_unroutable;
    return;
  }

  ++stats_.packets_sent;
  stats_.bytes_sent += bytes.size();
  if (tap_) tap_(bytes);

  // One lookup gives the destination's endpoint and path. Materialize an
  // unattached destination now (not at delivery): its path characteristics
  // (MTU, latency, loss) must shape this very packet.
  const Route* route = routes_.find(dst->value());
  bool dark = false;
  if ((route == nullptr || route->endpoint == nullptr) && resolver_) {
    dark = resolver_(*dst) == nullptr;
    // What the resolver materializes it attaches, which may grow the
    // table; a dark answer leaves the fabric as it was (Resolver contract).
    if (!dark) route = routes_.find(dst->value());
  }

  // Path impairments are keyed by the remote (non-scanner) side so that
  // both directions of one host's path share a configuration. We try the
  // destination first (scanner→host), then the source (host→scanner).
  const PathConfig* remote_path = path_of(route);
  if (remote_path == nullptr) remote_path = path_of(routes_.find(src->value()));
  const PathConfig& path = remote_path != nullptr ? *remote_path : default_path_;

  // Path-MTU enforcement (RFC 1191): oversized DF packets are dropped and
  // answered with ICMP Fragmentation Needed carrying the next-hop MTU.
  if (bytes.size() > path.path_mtu) {
    const bool dont_fragment = bytes.size() > 6 && (bytes[6] & 0x40) != 0;
    if (dont_fragment) {
      ++stats_.icmp_frag_needed;
      send_frag_needed(*src, *dst, path.path_mtu, bytes);
      return;
    }
    // Fragmentation itself is not modeled; non-DF oversize is delivered
    // whole (the scanner always sets DF, matching real raw-socket probes).
  }

  if (filter_ && !filter_(bytes)) {
    ++stats_.packets_lost;
    return;
  }

  // The flow's generator is looked up (or created) on its first draw only:
  // a path with no loss, jitter, reorder or duplication never touches it.
  util::Rng* rng = nullptr;
  const auto draws = [&]() -> util::Rng& {
    if (rng == nullptr) rng = &flow_rng(*src, *dst);
    return *rng;
  };
  if (path.loss_rate > 0.0 && draws().chance(path.loss_rate)) {
    ++stats_.packets_lost;
    return;
  }

  SimTime delay = path.latency;
  if (path.jitter > SimTime::zero()) {
    delay += SimTime{static_cast<std::int64_t>(
        draws().uniform01() * static_cast<double>(path.jitter.count()))};
  }
  if (path.reorder_rate > 0.0 && draws().chance(path.reorder_rate)) {
    ++stats_.packets_reordered;
    delay += path.reorder_delay;
  }

  const net::IPv4Address destination = *dst;
  if (path.duplicate_rate > 0.0 && draws().chance(path.duplicate_rate)) {
    // Duplicate delivery (e.g. spurious link-layer retransmission): the
    // copy trails the original slightly. Copying the handle shares the
    // buffer — the duplicate costs a refcount bump, not a byte copy.
    ++stats_.packets_duplicated;
    deliver(delay + path.duplicate_delay, destination, packet, dark);
  }
  deliver(delay, destination, std::move(packet), dark);
}

void Network::deliver(SimTime delay, net::IPv4Address destination,
                      net::PacketBuf packet, bool dark) {
  loop_.schedule(delay, [this, destination, dark, packet = std::move(packet)]() {
    const Route* route = routes_.find(destination.value());
    Endpoint* endpoint = route != nullptr ? route->endpoint : nullptr;
    if (endpoint == nullptr && !dark && resolver_) endpoint = resolver_(destination);
    if (endpoint == nullptr) {
      ++stats_.packets_unroutable;
      return;
    }
    ++stats_.packets_delivered;
    endpoint->handle_packet(packet.view());
  });
}

void Network::send_frag_needed(net::IPv4Address original_src,
                               net::IPv4Address original_dst,
                               std::uint32_t next_hop_mtu, net::PacketView original) {
  net::IcmpDatagram reply;
  // A real router answers from its own interface address; we source the
  // message from the unreachable destination, which is equally useful to
  // the prober (it matches on the embedded original header).
  reply.ip.src = original_dst;
  reply.ip.dst = original_src;
  reply.ip.ttl = 64;
  reply.icmp.type = net::IcmpType::DestinationUnreachable;
  reply.icmp.code = net::kIcmpFragNeeded;
  reply.icmp.id_or_unused = 0;
  reply.icmp.seq_or_mtu = static_cast<std::uint16_t>(next_hop_mtu);
  // RFC 792: original IP header + first 8 payload bytes.
  const std::size_t quote = std::min<std::size_t>(original.size(), 28);
  reply.icmp.payload = original.first(quote);

  // The ICMP reply traverses the same path back (without MTU trouble).
  net::PacketBuf encoded = pool_.acquire(net::encoded_size(reply));
  net::encode_into(reply, encoded.bytes());
  const PathConfig& path = path_for(original_dst);
  deliver(path.latency, original_src, std::move(encoded), false);
}

}  // namespace iwscan::sim
