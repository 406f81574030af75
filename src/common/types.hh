/**
 * @file
 * Fundamental scalar types shared by every cmpcache subsystem.
 */

#ifndef CMPCACHE_COMMON_TYPES_HH
#define CMPCACHE_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace cmpcache
{

/** Physical memory address (byte granularity). */
using Addr = std::uint64_t;

/** Simulation time in core clock cycles. */
using Tick = std::uint64_t;

/** Sentinel for "never" / "not scheduled". */
constexpr Tick MaxTick = std::numeric_limits<Tick>::max();

/** Sentinel for an invalid address. */
constexpr Addr InvalidAddr = std::numeric_limits<Addr>::max();

/** Hardware thread identifier (0..numThreads-1). */
using ThreadId = std::uint16_t;

/**
 * Identifier of a bus agent (L2 caches, L3, memory controller). The
 * one number for an agent: its ring stop and its slot in the ring's
 * agent and snoop-response vectors (CmpTopology assigns them).
 */
using AgentId = std::uint8_t;

constexpr AgentId InvalidAgent = 0xff;

} // namespace cmpcache

#endif // CMPCACHE_COMMON_TYPES_HH
