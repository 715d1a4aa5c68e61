#pragma once

/**
 * @file
 * Wire protocol of the serving daemon (docs/SERVING.md): length-prefixed
 * frames of `key=value` pairs over any byte stream (stdin/stdout pipes,
 * a socket fd wrapped in iostreams — the daemon does not care).
 *
 * Frame format: 8 lowercase hex digits (payload byte count) followed by
 * exactly that many payload bytes.  The ASCII prefix keeps the protocol
 * shell-scriptable: `printf '%08x%s' ${#req} "$req"` writes a valid
 * frame, which is how the CI smoke job drives the daemon.
 *
 * Request payload keys (space-separated `key=value`, no spaces in
 * values): `id tenant matrix arch mode kernel k ai deadline_ms seed
 * session`.  All are optional except that a request must carry a
 * `matrix` or a `session`; duplicate keys are rejected, and
 * `kernel=spmv` requires `k=1` (in either order).  Control frames use
 * `cmd=` instead: `cmd=stats` replies with the service counters,
 * `cmd=shutdown` drains and exits the loop, and `cmd=delta` carries a
 * session mutation:
 *
 *   cmd=delta session=S [id= tenant= deadline_ms=]
 *       [ins=r:c:v;...] [del=r:c;...] [upd=r:c:v;...]
 *
 * where `ins`/`del` are structural inserts/deletes (sparse/delta.hpp
 * contract) and `upd` is the value-only fast path.  See
 * docs/SERVING.md for the full delta semantics.
 *
 * Reply payload keys: `id status plan_source detail latency_ms retries
 * checksum predicted_cycles exec_class_failed coalesced`.
 */

#include <iosfwd>
#include <string>

#include "serve/service.hpp"

namespace hottiles::serve {

/**
 * Wrap @p payload in a length-prefixed frame.
 * @throws FatalError when the payload exceeds the 64 MiB frame cap (a
 * larger payload would overflow the fixed 8-hex-digit prefix and could
 * silently desync the stream).
 */
std::string encodeFrame(const std::string& payload);

/**
 * Read one frame from @p in.  Returns false on clean EOF before the
 * prefix; throws FatalError on a malformed prefix or truncated payload.
 */
bool readFrame(std::istream& in, std::string& payload);

/** Parse a request payload. @throws FatalError on unknown, invalid or
 *  duplicate keys (k must fit in 32 bits), and on cross-field
 *  contradictions (kernel=spmv with k != 1, neither matrix nor
 *  session). */
ServeRequest parseRequest(const std::string& payload);

/**
 * Parse a `cmd=delta` payload into a RequestMode::Delta request.
 * @throws FatalError on malformed entries, duplicate keys, indices out
 * of range, non-finite values, or a missing session.
 */
ServeRequest parseDeltaRequest(const std::string& payload);

/** Serialize a Delta request back to its `cmd=delta` payload form
 *  (exact value round-trip; the inverse of parseDeltaRequest). */
std::string formatDeltaRequest(const ServeRequest& req);

/** Serialize a reply to its payload form. */
std::string formatReply(const ServeReply& reply);

/** Serialize the service counters (the `cmd=stats` reply). */
std::string formatStats(const ServiceStats& stats);

/**
 * The daemon loop: read request frames from @p in, submit them to
 * @p service, write reply frames to @p out (replies interleave in
 * completion order; match them to requests by id).  Returns when the
 * stream ends or a `cmd=shutdown` frame arrives, after draining every
 * in-flight request.  A malformed frame gets a `detail=bad-request`
 * ERROR reply carrying the frame's id whenever its `id=` field parses
 * (id=0 otherwise), and the loop continues; a malformed prefix ends the
 * loop (the stream is unrecoverable).  Returns the number of request
 * frames processed.
 */
uint64_t runServeLoop(std::istream& in, std::ostream& out,
                      PlanService& service);

} // namespace hottiles::serve
