/**
 * @file
 * Property/fuzz coverage of the serving wire protocol
 * (serve/protocol.hpp) plus pinned regressions for the parsing bugs the
 * protocol-v2 pass fixed:
 *
 *  - numeric fields silently accepted signs, leading whitespace and
 *    nan/inf (strtoull/strtod semantics) — "id=-1" wrapped to 2^64-1;
 *  - `kernel`/`k` validation depended on field order, so
 *    "kernel=spmv k=8" slipped through while "k=8 kernel=spmv" failed;
 *  - duplicate keys were last-one-wins instead of rejected;
 *  - encodeFrame's %08zx prefix silently widens past 4 GiB, desyncing
 *    the stream, and had no cap at all below that;
 *  - k above 2^32-1 was truncated to 32 bits instead of rejected;
 *  - a bad-request reply carried id=0 even when the frame's id parsed.
 *
 * The fuzz tests assert one property everywhere: any byte string fed to
 * the parsers either parses or throws FatalError — never crashes, hangs
 * or returns half-parsed state that later misbehaves.
 */

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace hottiles::serve {
namespace {

constexpr size_t kFrameCap = 64u << 20;

/** Parse attempt where any outcome but a crash/hang is acceptable. */
bool
tryParse(const std::string& payload)
{
    try {
        if (payload.rfind("cmd=delta", 0) == 0)
            parseDeltaRequest(payload);
        else
            parseRequest(payload);
        return true;
    } catch (const FatalError&) {
        return false;
    }
}

// ----------------------------------------------------- pinned regressions

TEST(ServeProtocolRegression, RejectsSignedAndPaddedIntegers)
{
    // Pre-fix, strtoull quietly skipped whitespace, accepted a sign and
    // wrapped negatives: "id=-1" parsed as 18446744073709551615.
    EXPECT_THROW(parseRequest("matrix=@pap id=-1"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap id=+1"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap id=\t1"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap id="), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap seed=-5"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap k=-1"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap k=0"), FatalError);
    // Overflow must be ERANGE-rejected, not wrapped.
    EXPECT_THROW(parseRequest("matrix=@pap id=99999999999999999999999"),
                 FatalError);
    // The plain forms still parse.
    ServeRequest ok = parseRequest("matrix=@pap id=17 seed=3 k=8");
    EXPECT_EQ(ok.id, 17u);
    EXPECT_EQ(ok.seed, 3u);
    EXPECT_EQ(ok.kernel.k, 8u);
}

TEST(ServeProtocolRegression, RejectsNonFiniteAndNegativeDoubles)
{
    EXPECT_THROW(parseRequest("matrix=@pap ai=nan"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap ai=inf"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap ai=-1.5"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap ai=-0.0"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap deadline_ms=-1"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap deadline_ms=nan"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap deadline_ms=\t2"), FatalError);
    ServeRequest ok = parseRequest("matrix=@pap ai=2.5 deadline_ms=0.5");
    EXPECT_DOUBLE_EQ(ok.kernel.ai_factor, 2.5);
    EXPECT_DOUBLE_EQ(ok.deadline_ms, 0.5);
    // Delta values may be negative but still never nan/inf.
    ServeRequest d = parseDeltaRequest("cmd=delta session=s ins=1:2:-3.5");
    EXPECT_FLOAT_EQ(d.delta->batch.ins_vals[0], -3.5f);
    EXPECT_THROW(parseDeltaRequest("cmd=delta session=s ins=1:2:nan"),
                 FatalError);
    EXPECT_THROW(parseDeltaRequest("cmd=delta session=s ins=1:2:inf"),
                 FatalError);
    EXPECT_THROW(parseDeltaRequest("cmd=delta session=s ins=1:2:--3"),
                 FatalError);
}

TEST(ServeProtocolRegression, SpmvKValidationIsOrderIndependent)
{
    // Pre-fix, "kernel=spmv" overwrote k inline, so a later "k=8" won
    // and an earlier one was silently clobbered — the outcome depended
    // on field order.  Now both orders fail, and both k=1 forms pass.
    EXPECT_THROW(parseRequest("matrix=@pap kernel=spmv k=8"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap k=8 kernel=spmv"), FatalError);
    EXPECT_EQ(parseRequest("matrix=@pap kernel=spmv k=1").kernel.k, 1u);
    EXPECT_EQ(parseRequest("matrix=@pap k=1 kernel=spmv").kernel.k, 1u);
    EXPECT_EQ(parseRequest("matrix=@pap kernel=spmv").kernel.k, 1u);
    EXPECT_EQ(parseRequest("matrix=@pap k=8 kernel=spmm").kernel.k, 8u);
}

TEST(ServeProtocolRegression, RejectsDuplicateKeys)
{
    EXPECT_THROW(parseRequest("matrix=@pap matrix=@myc"), FatalError);
    EXPECT_THROW(parseRequest("id=1 matrix=@pap id=2"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap mode=plan mode=run"),
                 FatalError);
    EXPECT_THROW(
        parseDeltaRequest("cmd=delta session=a ins=0:0:1 ins=1:1:2"),
        FatalError);
    EXPECT_THROW(parseDeltaRequest("cmd=delta session=a session=b"),
                 FatalError);
}

TEST(ServeProtocolRegression, EncodeFrameEnforcesThePayloadCap)
{
    // Pre-fix, encodeFrame would emit a 9+-digit prefix for > 4 GiB
    // payloads (silent stream desync) and nothing stopped a 100 MiB one
    // from being emitted only to be rejected by the peer's readFrame.
    EXPECT_THROW(encodeFrame(std::string(kFrameCap + 1, 'x')), FatalError);
    std::string at_cap = encodeFrame(std::string(kFrameCap, 'x'));
    EXPECT_EQ(at_cap.substr(0, 8), "04000000");
    EXPECT_EQ(at_cap.size(), kFrameCap + 8);
    // A prefix claiming more than the cap is rejected before the
    // allocation, symmetric with the encode side.
    std::stringstream huge("ffffffff");
    std::string payload;
    EXPECT_THROW(readFrame(huge, payload), FatalError);
}

TEST(ServeProtocolRegression, RejectsKAbove32Bits)
{
    // Pre-fix, k was cast to uint32_t after parsing, so k=2^32+1 ran as
    // k = 1 with status OK.
    for (const char* payload : {"matrix=@pap k=4294967297",
                                "matrix=@pap k=4294967296",
                                "k=18446744073709551615 matrix=@pap"}) {
        try {
            parseRequest(payload);
            ADD_FAILURE() << payload << " parsed";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find("bad k"), std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(parseRequest("matrix=@pap k=4294967295").kernel.k,
              4294967295u);
}

TEST(ServeProtocolRegression, BadRequestRepliesEchoTheRequestId)
{
    // Pre-fix, every parse failure replied id=0, so a client could not
    // match the error to its request.  The id is echoed whenever the
    // id field itself parses, wherever it sits in the frame.
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    std::stringstream in;
    in << encodeFrame("id=2 matrix=@myc ai=-5")
       << encodeFrame("matrix=@myc ai=-5 id=3")
       << encodeFrame("id=4 matrix=@pap k=4294967297")
       << encodeFrame("cmd=delta id=5 session=s ins=1:2")
       << encodeFrame("id=-1 matrix=@myc ai=-5")  // the id is the bad field
       << encodeFrame("matrix=@myc ai=-5");       // no id at all
    std::ostringstream out;
    EXPECT_EQ(runServeLoop(in, out, service), 0u);
    service.stop();

    std::stringstream replies(out.str());
    std::vector<std::string> got;
    std::string payload;
    while (readFrame(replies, payload))
        got.push_back(payload);
    const std::vector<std::string> want = {
        "id=2 status=ERROR detail=bad-request",
        "id=3 status=ERROR detail=bad-request",
        "id=4 status=ERROR detail=bad-request",
        "id=5 status=ERROR detail=bad-request",
        "id=0 status=ERROR detail=bad-request",
        "id=0 status=ERROR detail=bad-request",
    };
    EXPECT_EQ(got, want);
}

TEST(ServeProtocolRegression, RequestNeedsMatrixOrSession)
{
    EXPECT_THROW(parseRequest("mode=run id=3"), FatalError);
    EXPECT_EQ(parseRequest("session=s1 mode=run").session, "s1");
    EXPECT_EQ(parseRequest("matrix=@pap").matrix, "@pap");
    EXPECT_THROW(parseDeltaRequest("cmd=delta ins=0:0:1"), FatalError);
}

// ------------------------------------------------------------ properties

TEST(ServeProtocolFuzz, RandomValidRequestsParseBack)
{
    Rng rng(2024);
    const char* tenants[] = {"default", "gnn", "hpc_7", "a"};
    const char* matrices[] = {"@pap", "@myc", "/tmp/m.mtx", "@nd2"};
    const char* archs[] = {"spade-sextans:4", "piuma", "spade:8"};
    for (int iter = 0; iter < 300; ++iter) {
        ServeRequest want;
        std::ostringstream os;
        os << "id=" << (want.id = rng() % 100000 + 1);
        want.tenant = tenants[rng() % 4];
        os << " tenant=" << want.tenant;
        want.matrix = matrices[rng() % 4];
        os << " matrix=" << want.matrix;
        want.arch = archs[rng() % 3];
        os << " arch=" << want.arch;
        const bool spmv = rng() % 4 == 0;
        if (spmv) {
            want.kernel.kind = SparseKernel::Spmv;
            want.kernel.k = 1;
            os << " kernel=spmv";
            if (rng() % 2)
                os << " k=1";
        } else {
            want.kernel.kind = SparseKernel::Spmm;
            want.kernel.k = static_cast<uint32_t>(rng() % 256 + 1);
            os << " kernel=spmm k=" << want.kernel.k;
        }
        want.mode = rng() % 2 ? RequestMode::Run : RequestMode::Plan;
        os << " mode=" << (want.mode == RequestMode::Run ? "run" : "plan");
        want.seed = rng() % 1000;
        os << " seed=" << want.seed;
        want.deadline_ms = static_cast<double>(rng() % 10000) / 4.0;
        os << " deadline_ms=" << want.deadline_ms;
        if (rng() % 2) {
            want.session = "s" + std::to_string(rng() % 8);
            os << " session=" << want.session;
        }

        ServeRequest got = parseRequest(os.str());
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.tenant, want.tenant);
        EXPECT_EQ(got.matrix, want.matrix);
        EXPECT_EQ(got.arch, want.arch);
        EXPECT_EQ(got.mode, want.mode);
        EXPECT_EQ(got.kernel.kind, want.kernel.kind);
        EXPECT_EQ(got.kernel.k, want.kernel.k);
        EXPECT_EQ(got.seed, want.seed);
        EXPECT_DOUBLE_EQ(got.deadline_ms, want.deadline_ms);
        EXPECT_EQ(got.session, want.session);
    }
}

TEST(ServeProtocolFuzz, DeltaFormatParseRoundTripIsExact)
{
    Rng rng(77);
    auto random_value = [&]() {
        // Mixed magnitudes, both signs; %.9g must round-trip each.
        double mag = std::pow(10.0, double(rng() % 9) - 4.0);
        double v = (double(rng() % 20001) - 10000.0) / 10000.0 * mag;
        return static_cast<Value>(v);
    };
    for (int iter = 0; iter < 200; ++iter) {
        ServeRequest want;
        want.mode = RequestMode::Delta;
        want.id = rng() % 5000 + 1;
        want.tenant = "t" + std::to_string(rng() % 4);
        want.session = "sess" + std::to_string(rng() % 4);
        want.deadline_ms = rng() % 2 ? double(rng() % 3000 + 1) : 0.0;
        auto frame = std::make_shared<DeltaFrame>();
        const size_t ni = rng() % 9, nd = rng() % 9, nu = rng() % 9;
        for (size_t i = 0; i < ni; ++i)
            frame->batch.pushInsert(Index(rng() % 4096),
                                    Index(rng() % 4096), random_value());
        for (size_t i = 0; i < nd; ++i)
            frame->batch.pushDelete(Index(rng() % 4096),
                                    Index(rng() % 4096));
        for (size_t i = 0; i < nu; ++i)
            frame->updates.push(Index(rng() % 4096), Index(rng() % 4096),
                                random_value());
        want.delta = frame;

        ServeRequest got = parseDeltaRequest(formatDeltaRequest(want));
        EXPECT_EQ(got.mode, RequestMode::Delta);
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.tenant, want.tenant);
        EXPECT_EQ(got.session, want.session);
        EXPECT_DOUBLE_EQ(got.deadline_ms, want.deadline_ms);
        ASSERT_TRUE(got.delta);
        const DeltaFrame& a = *want.delta;
        const DeltaFrame& b = *got.delta;
        ASSERT_EQ(b.batch.inserts(), a.batch.inserts());
        ASSERT_EQ(b.batch.deletes(), a.batch.deletes());
        ASSERT_EQ(b.updates.size(), a.updates.size());
        EXPECT_EQ(b.batch.ins_rows, a.batch.ins_rows);
        EXPECT_EQ(b.batch.ins_cols, a.batch.ins_cols);
        EXPECT_EQ(b.batch.ins_vals, a.batch.ins_vals)
            << "%.9g must round-trip float values bit-exactly";
        EXPECT_EQ(b.batch.del_rows, a.batch.del_rows);
        EXPECT_EQ(b.batch.del_cols, a.batch.del_cols);
        EXPECT_EQ(b.updates.rows, a.updates.rows);
        EXPECT_EQ(b.updates.cols, a.updates.cols);
        EXPECT_EQ(b.updates.vals, a.updates.vals);
        EXPECT_EQ(b.valueOnly(), a.valueOnly());
    }
}

TEST(ServeProtocolFuzz, MalformedDeltaEntriesThrow)
{
    const char* bad[] = {
        "cmd=delta session=s ins=1:2",          // 2 of 3 parts
        "cmd=delta session=s ins=1:2:3:4",      // 4 of 3 parts
        "cmd=delta session=s ins=a:b:c",        // non-numeric
        "cmd=delta session=s ins=-1:2:3",       // negative index
        "cmd=delta session=s ins=4294967296:0:1",  // > Index max
        "cmd=delta session=s del=1",            // 1 of 2 parts
        "cmd=delta session=s del=1:2:3",        // 3 of 2 parts
        "cmd=delta session=s upd=1:2",          // 2 of 3 parts
        "cmd=delta session=s upd=1:2:inf",      // non-finite
        "cmd=delta session=s frob=1",           // unknown key
        "cmd=delta session=s ins",              // no '='
        "cmd=deltax session=s",                 // not the delta command
    };
    for (const char* payload : bad)
        EXPECT_THROW(parseDeltaRequest(payload), FatalError) << payload;
    // Entry lists tolerate empty entries (trailing ';'), not bad ones.
    ServeRequest ok =
        parseDeltaRequest("cmd=delta session=s ins=1:2:3; del=4:5;");
    EXPECT_EQ(ok.delta->batch.inserts(), 1u);
    EXPECT_EQ(ok.delta->batch.deletes(), 1u);
}

TEST(ServeProtocolFuzz, MutatedPayloadsNeverCrash)
{
    const std::string bases[] = {
        "id=7 tenant=gnn matrix=@pap arch=piuma mode=plan kernel=spmm "
        "k=64 ai=2.5 deadline_ms=250 seed=9 session=s1",
        "cmd=delta id=3 tenant=gnn session=s1 deadline_ms=100 "
        "ins=1:2:3.5;4:5:-1e-3 del=6:7;8:9 upd=10:11:0.25",
    };
    Rng rng(4242);
    size_t parsed = 0, rejected = 0;
    for (const std::string& base : bases) {
        for (int iter = 0; iter < 1500; ++iter) {
            std::string s = base;
            switch (rng() % 4) {
            case 0:  // truncate
                s.resize(rng() % (s.size() + 1));
                break;
            case 1:  // overwrite one byte with anything
                s[rng() % s.size()] = char(rng() % 256);
                break;
            case 2:  // insert a byte
                s.insert(s.begin() + long(rng() % (s.size() + 1)),
                         char(rng() % 256));
                break;
            default:  // swap two bytes
                std::swap(s[rng() % s.size()], s[rng() % s.size()]);
                break;
            }
            tryParse(s) ? ++parsed : ++rejected;
        }
    }
    // Sanity: the corpus exercises both outcomes, not just one.
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(ServeProtocolFuzz, RandomBinaryFramesRoundTrip)
{
    Rng rng(99);
    std::stringstream stream;
    std::vector<std::string> sent;
    for (int i = 0; i < 64; ++i) {
        std::string payload(rng() % 512, '\0');
        for (char& c : payload)
            c = char(rng() % 256);  // full byte range, NULs included
        stream << encodeFrame(payload);
        sent.push_back(std::move(payload));
    }
    std::string got;
    for (const std::string& want : sent) {
        ASSERT_TRUE(readFrame(stream, got));
        EXPECT_EQ(got, want);
    }
    EXPECT_FALSE(readFrame(stream, got)) << "clean EOF after the last";
}

TEST(ServeProtocolFuzz, CorruptFramePrefixesThrowOrEndCleanly)
{
    std::string payload;
    {
        std::stringstream s("0000");  // truncated prefix
        EXPECT_THROW(readFrame(s, payload), FatalError);
    }
    {
        std::stringstream s("0000zz01ab");  // non-hex prefix
        EXPECT_THROW(readFrame(s, payload), FatalError);
    }
    {
        std::stringstream s(encodeFrame("abcdef").substr(0, 10));
        EXPECT_THROW(readFrame(s, payload), FatalError);  // short body
    }
    {
        std::stringstream s("");  // empty stream: clean EOF, not error
        EXPECT_FALSE(readFrame(s, payload));
    }
    // Random 8-char prefixes: each either parses (then demands a body)
    // or throws — never reads past what the prefix declared.
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        std::string prefix(8, '0');
        for (char& c : prefix)
            c = char(rng() % 96 + 32);
        std::stringstream s(prefix);
        try {
            EXPECT_FALSE(readFrame(s, payload) && !payload.empty());
        } catch (const FatalError&) {
        }
    }
}

TEST(ServeProtocolFuzz, DaemonLoopSurvivesGarbageStreams)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 16;
    PlanService service(cfg);

    std::stringstream in;
    // Parseable requests that fail at service level (unknown handle,
    // unknown session) — each must still get exactly one reply.
    in << encodeFrame("id=1 matrix=@nosuchmatrix mode=plan")
       << encodeFrame("cmd=stats")
       << encodeFrame("cmd=frobnicate")            // unknown command
       << encodeFrame("sudo=1")                     // unknown key
       << encodeFrame("id=-1 matrix=@pap")          // regression input
       << encodeFrame("cmd=delta ins=0:0:1")        // delta, no session
       << encodeFrame("cmd=delta session=ghost id=2 ins=0:0:1")
       << encodeFrame(std::string("\x01\x02 binary junk"))
       << encodeFrame("") << encodeFrame("cmd=shutdown")
       << encodeFrame("id=9 matrix=@pap mode=plan");  // after shutdown

    std::ostringstream out;
    uint64_t processed = runServeLoop(in, out, service);
    service.stop();

    // Submitted: the @nosuchmatrix plan and the ghost-session delta.
    EXPECT_EQ(processed, 2u);
    const std::string replies = out.str();
    size_t n_status = 0;
    for (size_t pos = replies.find("status="); pos != std::string::npos;
         pos = replies.find("status=", pos + 1))
        ++n_status;
    // stats + 4 bad-request/unknown + 2 service replies = 8 framed
    // replies carry no status; the stats frame has none of its own.
    EXPECT_NE(replies.find("detail=bad-input"), std::string::npos);
    EXPECT_NE(replies.find("detail=no-session"), std::string::npos);
    EXPECT_NE(replies.find("detail=unknown-command"), std::string::npos);
    EXPECT_GE(n_status, 7u) << "every pre-shutdown frame got a reply";
    EXPECT_NE(replies.find("submitted="), std::string::npos)
        << "cmd=stats replied with the counter dump";

    // A malformed prefix ends a fresh loop cleanly instead of hanging.
    ServiceConfig cfg2;
    cfg2.workers = 1;
    PlanService service2(cfg2);
    std::stringstream bad_in("zzzzzzzzgarbage");
    std::ostringstream out2;
    EXPECT_EQ(runServeLoop(bad_in, out2, service2), 0u);
    service2.stop();
}

} // namespace
} // namespace hottiles::serve
