#include "serve/protocol.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace hottiles::serve {

namespace {

/** Payload byte cap, both directions (readFrame and encodeFrame). */
constexpr size_t kMaxFramePayload = 64u << 20;

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

// strtoull silently skips leading whitespace and accepts a sign — and
// wraps "-1" to 2^64-1 — so the shape is validated first: digits only,
// from the first character.
uint64_t
parseU64(std::string_view v, const char* key)
{
    HT_FATAL_IF(v.empty() || !isDigit(v.front()), "bad ", key, " '",
                std::string(v), "' (want unsigned integer)");
    char* end = nullptr;
    std::string s(v);
    errno = 0;
    unsigned long long x = std::strtoull(s.c_str(), &end, 10);
    HT_FATAL_IF(end == s.c_str() || *end != '\0' || errno == ERANGE,
                "bad ", key, " '", s, "'");
    return x;
}

// Wire doubles are quantities (deadlines, AI factors): finite and
// non-negative.  strtod alone would admit "nan", "inf", signs and
// leading whitespace.
double
parseF64(std::string_view v, const char* key)
{
    HT_FATAL_IF(v.empty() || !(isDigit(v.front()) || v.front() == '.'),
                "bad ", key, " '", std::string(v),
                "' (want non-negative number)");
    char* end = nullptr;
    std::string s(v);
    errno = 0;
    double x = std::strtod(s.c_str(), &end);
    HT_FATAL_IF(end == s.c_str() || *end != '\0' || !std::isfinite(x) ||
                    x < 0,
                "bad ", key, " '", s, "'");
    return x;
}

// Delta values may be negative: one optional leading '-', otherwise the
// parseF64 shape, still finite-only.
double
parseSignedF64(std::string_view v, const char* key)
{
    std::string_view body = v;
    if (!body.empty() && body.front() == '-')
        body.remove_prefix(1);
    HT_FATAL_IF(body.empty() ||
                    !(isDigit(body.front()) || body.front() == '.'),
                "bad ", key, " '", std::string(v), "' (want number)");
    char* end = nullptr;
    std::string s(v);
    errno = 0;
    double x = std::strtod(s.c_str(), &end);
    HT_FATAL_IF(end == s.c_str() || *end != '\0' || !std::isfinite(x),
                "bad ", key, " '", s, "'");
    return x;
}

Index
parseIndex(std::string_view v, const char* key)
{
    uint64_t x = parseU64(v, key);
    HT_FATAL_IF(x > std::numeric_limits<Index>::max(), "bad ", key, " '",
                std::string(v), "' (out of index range)");
    return static_cast<Index>(x);
}

// The reply to a frame that failed to parse: it carries the frame's id
// whenever the first `id=` field itself parses, so the client can match
// the error to its request.
std::string
badRequestReply(const std::string& payload)
{
    uint64_t id = 0;
    for (std::string_view field : splitChar(payload, ' ')) {
        if (!field.starts_with("id="))
            continue;
        try {
            id = parseU64(field.substr(3), "id");
        } catch (const FatalError&) {
        }
        break;
    }
    return "id=" + std::to_string(id) + " status=ERROR detail=bad-request";
}

// Duplicate keys are rejected so a field's value can never silently
// depend on which occurrence wins.
void
noteKey(std::set<std::string_view>& seen, std::string_view key)
{
    HT_FATAL_IF(!seen.insert(key).second, "duplicate key '",
                std::string(key), "'");
}

} // namespace

std::string
encodeFrame(const std::string& payload)
{
    // %08zx emits MORE than 8 digits for a > 4 GiB payload, which would
    // silently desync the stream; oversize payloads are a caller bug
    // and fail loudly at the cap readFrame enforces on the other side.
    HT_FATAL_IF(payload.size() > kMaxFramePayload, "frame too large (",
                payload.size(), " bytes; cap ", kMaxFramePayload, ")");
    char prefix[9];
    std::snprintf(prefix, sizeof prefix, "%08zx", payload.size());
    return std::string(prefix) + payload;
}

bool
readFrame(std::istream& in, std::string& payload)
{
    char prefix[8];
    in.read(prefix, 8);
    if (in.gcount() == 0 && in.eof())
        return false;
    HT_FATAL_IF(in.gcount() != 8, "truncated frame length prefix");
    size_t len = 0;
    for (char c : prefix) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            HT_FATAL("bad frame length prefix");
        len = len * 16 + static_cast<size_t>(digit);
    }
    HT_FATAL_IF(len > kMaxFramePayload, "frame too large (", len,
                " bytes)");
    payload.resize(len);
    if (len > 0) {
        in.read(payload.data(), static_cast<std::streamsize>(len));
        HT_FATAL_IF(static_cast<size_t>(in.gcount()) != len,
                    "truncated frame payload");
    }
    return true;
}

ServeRequest
parseRequest(const std::string& payload)
{
    ServeRequest req;
    std::set<std::string_view> seen;
    bool have_k = false;
    for (std::string_view field : splitChar(payload, ' ')) {
        if (field.empty())
            continue;
        size_t eq = field.find('=');
        HT_FATAL_IF(eq == std::string_view::npos, "bad field '", field,
                    "' (want key=value)");
        std::string_view key = field.substr(0, eq);
        std::string_view val = field.substr(eq + 1);
        noteKey(seen, key);
        if (key == "id") {
            req.id = parseU64(val, "id");
        } else if (key == "tenant") {
            req.tenant = std::string(val);
        } else if (key == "matrix") {
            req.matrix = std::string(val);
        } else if (key == "arch") {
            req.arch = std::string(val);
        } else if (key == "session") {
            req.session = std::string(val);
        } else if (key == "mode") {
            if (val == "plan")
                req.mode = RequestMode::Plan;
            else if (val == "run")
                req.mode = RequestMode::Run;
            else
                HT_FATAL("bad mode '", val, "' (plan|run)");
        } else if (key == "kernel") {
            std::string k = toLower(val);
            if (k == "spmm")
                req.kernel.kind = SparseKernel::Spmm;
            else if (k == "spmv")
                req.kernel.kind = SparseKernel::Spmv;
            else
                HT_FATAL("bad kernel '", val, "' (spmm|spmv)");
        } else if (key == "k") {
            const uint64_t k = parseU64(val, "k");
            HT_FATAL_IF(k > std::numeric_limits<uint32_t>::max(), "bad k '",
                        std::string(val), "' (out of 32-bit range)");
            req.kernel.k = static_cast<uint32_t>(k);
            HT_FATAL_IF(req.kernel.k == 0, "k must be positive");
            have_k = true;
        } else if (key == "ai") {
            req.kernel.ai_factor = parseF64(val, "ai");
        } else if (key == "deadline_ms") {
            req.deadline_ms = parseF64(val, "deadline_ms");
        } else if (key == "seed") {
            req.seed = parseU64(val, "seed");
        } else {
            HT_FATAL("unknown request key '", key, "'");
        }
    }
    // Cross-field validation runs after the loop so it cannot depend on
    // field order: `kernel=spmv k=1` and `k=1 kernel=spmv` both pass,
    // and `kernel=spmv k=8` fails either way round.
    if (req.kernel.kind == SparseKernel::Spmv) {
        HT_FATAL_IF(have_k && req.kernel.k != 1,
                    "kernel=spmv requires k=1 (got k=", req.kernel.k,
                    ")");
        req.kernel.k = 1;
    }
    HT_FATAL_IF(req.matrix.empty() && req.session.empty(),
                "request has no matrix and no session");
    return req;
}

ServeRequest
parseDeltaRequest(const std::string& payload)
{
    ServeRequest req;
    req.mode = RequestMode::Delta;
    auto frame = std::make_shared<DeltaFrame>();
    std::set<std::string_view> seen;
    bool first = true;
    for (std::string_view field : splitChar(payload, ' ')) {
        if (field.empty())
            continue;
        if (first) {
            HT_FATAL_IF(field != "cmd=delta", "not a delta frame");
            first = false;
            continue;
        }
        size_t eq = field.find('=');
        HT_FATAL_IF(eq == std::string_view::npos, "bad field '", field,
                    "' (want key=value)");
        std::string_view key = field.substr(0, eq);
        std::string_view val = field.substr(eq + 1);
        noteKey(seen, key);
        if (key == "id") {
            req.id = parseU64(val, "id");
        } else if (key == "tenant") {
            req.tenant = std::string(val);
        } else if (key == "session") {
            req.session = std::string(val);
        } else if (key == "deadline_ms") {
            req.deadline_ms = parseF64(val, "deadline_ms");
        } else if (key == "ins") {
            for (std::string_view entry : splitChar(val, ';')) {
                if (entry.empty())
                    continue;
                auto parts = splitChar(entry, ':');
                HT_FATAL_IF(parts.size() != 3, "bad ins entry '", entry,
                            "' (want row:col:val)");
                frame->batch.pushInsert(
                    parseIndex(parts[0], "ins.row"),
                    parseIndex(parts[1], "ins.col"),
                    static_cast<Value>(
                        parseSignedF64(parts[2], "ins.val")));
            }
        } else if (key == "del") {
            for (std::string_view entry : splitChar(val, ';')) {
                if (entry.empty())
                    continue;
                auto parts = splitChar(entry, ':');
                HT_FATAL_IF(parts.size() != 2, "bad del entry '", entry,
                            "' (want row:col)");
                frame->batch.pushDelete(parseIndex(parts[0], "del.row"),
                                        parseIndex(parts[1], "del.col"));
            }
        } else if (key == "upd") {
            for (std::string_view entry : splitChar(val, ';')) {
                if (entry.empty())
                    continue;
                auto parts = splitChar(entry, ':');
                HT_FATAL_IF(parts.size() != 3, "bad upd entry '", entry,
                            "' (want row:col:val)");
                frame->updates.push(
                    parseIndex(parts[0], "upd.row"),
                    parseIndex(parts[1], "upd.col"),
                    static_cast<Value>(
                        parseSignedF64(parts[2], "upd.val")));
            }
        } else {
            HT_FATAL("unknown delta key '", key, "'");
        }
    }
    HT_FATAL_IF(first, "not a delta frame");
    HT_FATAL_IF(req.session.empty(), "delta frame has no session");
    req.delta = std::move(frame);
    return req;
}

std::string
formatDeltaRequest(const ServeRequest& req)
{
    std::ostringstream os;
    os << "cmd=delta id=" << req.id << " tenant=" << req.tenant
       << " session=" << req.session;
    if (req.deadline_ms > 0)
        os << " deadline_ms=" << req.deadline_ms;
    if (req.delta) {
        const DeltaFrame& f = *req.delta;
        // %.9g round-trips every float value exactly.
        if (f.batch.inserts() > 0) {
            os << " ins=";
            for (size_t i = 0; i < f.batch.inserts(); ++i) {
                os << (i ? ";" : "") << f.batch.ins_rows[i] << ':'
                   << f.batch.ins_cols[i] << ':'
                   << strPrintf("%.9g", double(f.batch.ins_vals[i]));
            }
        }
        if (f.batch.deletes() > 0) {
            os << " del=";
            for (size_t i = 0; i < f.batch.deletes(); ++i) {
                os << (i ? ";" : "") << f.batch.del_rows[i] << ':'
                   << f.batch.del_cols[i];
            }
        }
        if (!f.updates.empty()) {
            os << " upd=";
            for (size_t i = 0; i < f.updates.size(); ++i) {
                os << (i ? ";" : "") << f.updates.rows[i] << ':'
                   << f.updates.cols[i] << ':'
                   << strPrintf("%.9g", double(f.updates.vals[i]));
            }
        }
    }
    return os.str();
}

std::string
formatReply(const ServeReply& reply)
{
    std::ostringstream os;
    char checksum[17];
    std::snprintf(checksum, sizeof checksum, "%016llx",
                  static_cast<unsigned long long>(reply.checksum));
    os << "id=" << reply.id << " status=" << serveStatusName(reply.status)
       << " plan_source=" << reply.plan_source
       << " detail=" << (reply.detail.empty() ? "-" : reply.detail)
       << " latency_ms=" << reply.latency_ms
       << " retries=" << reply.retries << " checksum=" << checksum
       << " predicted_cycles=" << reply.predicted_cycles
       << " exec_class_failed=" << (reply.exec_class_failed ? 1 : 0)
       << " coalesced=" << (reply.coalesced ? 1 : 0);
    return os.str();
}

std::string
formatStats(const ServiceStats& s)
{
    std::ostringstream os;
    os << "submitted=" << s.submitted << " ok=" << s.ok
       << " degraded=" << s.degraded << " shed=" << s.shed
       << " timeout=" << s.timeout << " error=" << s.error
       << " retries=" << s.retries
       << " watchdog_trips=" << s.watchdog_trips
       << " exec_class_failures=" << s.exec_class_failures
       << " coalesced=" << s.coalesced << " deltas=" << s.deltas
       << " value_patches=" << s.value_patches
       << " sessions=" << s.sessions << " cache_hits=" << s.cache.hits
       << " cache_misses=" << s.cache.misses
       << " cache_shared=" << s.cache.shared_builds
       << " cache_evictions=" << s.cache.evictions
       << " cache_corrupt=" << s.cache.corrupt_dropped
       << " cache_puts=" << s.cache.puts;
    return os.str();
}

uint64_t
runServeLoop(std::istream& in, std::ostream& out, PlanService& service)
{
    std::mutex out_mu;
    auto writeFrame = [&](const std::string& payload) {
        std::lock_guard<std::mutex> lock(out_mu);
        out << encodeFrame(payload);
        out.flush();
    };

    uint64_t processed = 0;
    uint64_t auto_id = 0;
    std::string payload;
    for (;;) {
        bool got;
        try {
            got = readFrame(in, payload);
        } catch (const FatalError&) {
            break;  // unrecoverable framing error: drain and exit
        }
        if (!got)
            break;

        if (payload.rfind("cmd=", 0) == 0) {
            std::string cmd = payload.substr(4);
            if (cmd == "shutdown")
                break;
            if (cmd == "stats") {
                service.drain();
                writeFrame(formatStats(service.stats()));
                continue;
            }
            if (cmd.rfind("delta", 0) == 0 &&
                (cmd.size() == 5 || cmd[5] == ' ')) {
                ServeRequest req;
                try {
                    req = parseDeltaRequest(payload);
                } catch (const FatalError&) {
                    writeFrame(badRequestReply(payload));
                    continue;
                }
                if (req.id == 0)
                    req.id = ++auto_id;
                ++processed;
                service.submit(std::move(req),
                               [&writeFrame](const ServeReply& r) {
                                   writeFrame(formatReply(r));
                               });
                continue;
            }
            writeFrame("id=0 status=ERROR detail=unknown-command");
            continue;
        }

        ServeRequest req;
        try {
            req = parseRequest(payload);
        } catch (const FatalError&) {
            writeFrame(badRequestReply(payload));
            continue;
        }
        if (req.id == 0)
            req.id = ++auto_id;
        ++processed;
        service.submit(std::move(req), [&writeFrame](const ServeReply& r) {
            writeFrame(formatReply(r));
        });
    }
    service.drain();
    return processed;
}

} // namespace hottiles::serve
