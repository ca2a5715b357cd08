#include "netbase/headers.hpp"

#include "netbase/checksum.hpp"

namespace iwscan::net {

void Ipv4Header::encode(WireWriter& writer) const {
  writer.u8(0x45);  // version 4, IHL 5
  writer.u8(tos);
  writer.u16(total_length);
  writer.u16(identification);
  std::uint16_t frag = fragment_offset & 0x1fff;
  if (dont_fragment) frag |= 0x4000;
  if (more_fragments) frag |= 0x2000;
  writer.u16(frag);
  writer.u8(ttl);
  writer.u8(protocol);
  const std::size_t checksum_at = writer.offset();
  writer.u16(0);
  writer.u32(src.value());
  writer.u32(dst.value());

  // Checksum over the header we just wrote.
  // WireWriter appends to a Bytes we do not own a span of; recompute from
  // the known layout instead of re-reading: fold fields directly.
  ChecksumAccumulator acc;
  acc.add_u16(0x4500 | tos);
  acc.add_u16(total_length);
  acc.add_u16(identification);
  acc.add_u16(frag);
  acc.add_u16(static_cast<std::uint16_t>((ttl << 8) | protocol));
  acc.add_u32(src.value());
  acc.add_u32(dst.value());
  writer.patch_u16(checksum_at, acc.finish());
}

std::optional<Ipv4Header> Ipv4Header::decode(WireReader& reader) {
  if (reader.remaining() < kSize) return std::nullopt;
  // Keep a copy of the raw header bytes for checksum verification.
  const auto raw = reader.raw(kSize);
  if (!reader.ok()) return std::nullopt;
  if (internet_checksum(raw) != 0) return std::nullopt;

  WireReader h(raw);
  const std::uint8_t version_ihl = h.u8();
  if ((version_ihl >> 4) != 4) return std::nullopt;
  const std::size_t ihl_bytes = static_cast<std::size_t>(version_ihl & 0x0f) * 4;
  if (ihl_bytes != kSize) return std::nullopt;  // options unsupported

  Ipv4Header header;
  header.tos = h.u8();
  header.total_length = h.u16();
  header.identification = h.u16();
  const std::uint16_t frag = h.u16();
  header.dont_fragment = (frag & 0x4000) != 0;
  header.more_fragments = (frag & 0x2000) != 0;
  header.fragment_offset = frag & 0x1fff;
  header.ttl = h.u8();
  header.protocol = h.u8();
  h.u16();  // checksum, already verified
  header.src = IPv4Address{h.u32()};
  header.dst = IPv4Address{h.u32()};
  return header;
}

void TcpHeader::encode(WireWriter& writer) const {
  writer.u16(src_port);
  writer.u16(dst_port);
  writer.u32(seq);
  writer.u32(ack);
  const std::size_t header_len = encoded_size();
  writer.u8(static_cast<std::uint8_t>((header_len / 4) << 4));
  writer.u8(flags);
  writer.u16(window);
  writer.u16(0);  // checksum patched by the packet codec
  writer.u16(urgent);
  if (mss) encode_mss_option(*mss, writer);
}

bool TcpHeader::decode_into(WireReader& reader, std::size_t& data_offset_bytes,
                            TcpHeader& out) {
  if (reader.remaining() < 20) return false;
  out.src_port = reader.u16();
  out.dst_port = reader.u16();
  out.seq = reader.u32();
  out.ack = reader.u32();
  const std::uint8_t offset_byte = reader.u8();
  data_offset_bytes = static_cast<std::size_t>(offset_byte >> 4) * 4;
  if (data_offset_bytes < 20) return false;
  out.flags = reader.u8() & 0x3f;
  out.window = reader.u16();
  reader.u16();  // checksum verified at packet layer
  out.urgent = reader.u16();
  const std::size_t options_len = data_offset_bytes - 20;
  if (options_len > reader.remaining()) return false;
  return read_tcp_options(reader.raw(options_len), out.mss);
}

void IcmpMessage::encode(WireWriter& writer) const {
  writer.u8(static_cast<std::uint8_t>(type));
  writer.u8(code);
  const std::size_t checksum_at = writer.offset();
  writer.u16(0);
  writer.u16(id_or_unused);
  writer.u16(seq_or_mtu);
  writer.raw(payload);

  ChecksumAccumulator acc;
  acc.add_u16(static_cast<std::uint16_t>((static_cast<std::uint8_t>(type) << 8) | code));
  acc.add_u16(id_or_unused);
  acc.add_u16(seq_or_mtu);
  acc.add(payload);
  writer.patch_u16(checksum_at, acc.finish());
}

std::optional<IcmpMessage> IcmpMessage::decode(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderSize) return std::nullopt;
  if (internet_checksum(data) != 0) return std::nullopt;
  WireReader reader(data);
  IcmpMessage message;
  message.type = static_cast<IcmpType>(reader.u8());
  message.code = reader.u8();
  reader.u16();  // checksum
  message.id_or_unused = reader.u16();
  message.seq_or_mtu = reader.u16();
  message.payload = reader.raw(reader.remaining());
  return message;
}

}  // namespace iwscan::net
