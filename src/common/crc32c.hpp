// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum the
// integrity plane stamps into the wire-v2 CRC TLV (see msg.hpp).
//
// On x86-64 hosts with SSE4.2 (checked once, at run time), crc32c runs on
// the `crc32` instruction: three interleaved lanes of 8 KiB (256 B for
// shorter buffers) joined by precomputed shift-by-N-zero-bytes tables,
// about 16 B/ns — the rate the simulation charges on the send path
// (kSendPathOverhead = 250 ns in core/channel.cpp, plus a per-covered-byte
// term). Everywhere
// else it falls back to the byte-at-a-time table loop, which is also the
// oracle the hardware kernel is tested against.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xrdma {

/// One-shot CRC32C over `len` bytes. Standard init/xorout (~0).
std::uint32_t crc32c(const void* data, std::size_t len);

/// Incremental form: feed `crc` from a previous call (or 0 to start) to
/// extend the checksum over a discontiguous region, e.g. header bytes with
/// the CRC field zeroed followed by the payload.
std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                            std::size_t len);

/// The portable byte-wise table kernel, with crc32c_extend's contract.
/// crc32c_extend uses it when the host has no CRC instruction.
std::uint32_t crc32c_extend_portable(std::uint32_t crc, const void* data,
                                     std::size_t len);

/// True when crc32c_extend runs on the hardware kernel on this host.
bool crc32c_hardware();

}  // namespace xrdma
