//===- ServeTests.cpp - Tests for the granii-serve layer --------------------===//
//
// Covers the serving stack bottom-up: the checked wire codec and framing,
// the protocol encode/decode pairs (including truncation and corruption),
// the Engine/Session amortization contract (warm runs are bitwise identical
// to cold ones and perform zero workspace allocations), and a real
// Unix-domain-socket daemon under eight concurrent clients.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Engine.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Wire.h"

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace granii;
using namespace granii::serve;

namespace {

// Byte-counting replacements of the global allocation functions (below),
// armed only while CountingNew is set: they bound everything a call
// allocates, not just the growth the workspace counter sees.
std::atomic<bool> CountingNew{false};
std::atomic<size_t> CountedNewBytes{0};

void *allocateCounted(size_t Size, size_t Align) {
  if (CountingNew.load(std::memory_order_relaxed))
    CountedNewBytes.fetch_add(Size, std::memory_order_relaxed);
  // aligned_alloc takes a nonzero multiple of the alignment.
  size_t Rounded = Size == 0 ? Align : (Size + Align - 1) / Align * Align;
  void *P = std::aligned_alloc(Align, Rounded);
  if (!P)
    throw std::bad_alloc();
  return P;
}

} // namespace

void *operator new(size_t Size) {
  return allocateCounted(Size, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}
void *operator new(size_t Size, std::align_val_t Align) {
  return allocateCounted(Size, static_cast<size_t>(Align));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace {

const char *GcnModel = "model GCN {\n"
                       "  input graph A;\n"
                       "  input features H;\n"
                       "  param weight W;\n"
                       "  d = inv_sqrt_degree(A);\n"
                       "  h = row_scale(d, H);\n"
                       "  h = aggregate(A, h);\n"
                       "  h = matmul(h, W);\n"
                       "  h = row_scale(d, h);\n"
                       "  output relu(h);\n"
                       "}\n";

JobRequest smallRequest(bool WantOutput = true) {
  JobRequest Req;
  Req.ModelText = GcnModel;
  Req.GraphSpec = "synth:mycielskian";
  Req.KIn = 8;
  Req.KOut = 12;
  Req.WantOutput = WantOutput;
  return Req;
}

EngineOptions testEngineOptions() {
  EngineOptions Opts;
  Opts.DiskSpill = false; // keep unit tests hermetic
  return Opts;
}

std::string uniqueSocketPath(const std::string &Tag) {
  // Keep it short: sun_path is ~108 bytes.
  return "/tmp/granii-" + Tag + "-" + std::to_string(::getpid()) + ".sock";
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire codec
//===----------------------------------------------------------------------===//

TEST(Wire, PrimitivesRoundTrip) {
  WireWriter W;
  W.putU8(0xab);
  W.putU16(0xbeef);
  W.putU32(0xdeadbeefu);
  W.putU64(0x0123456789abcdefull);
  W.putI64(-42);
  W.putF64(3.141592653589793);
  W.putString("hello wire");
  std::vector<float> Floats = {1.0f, -2.5f, 0.0f};
  W.putFloats(Floats);

  WireReader R(W.bytes());
  EXPECT_EQ(R.getU8(), 0xab);
  EXPECT_EQ(R.getU16(), 0xbeef);
  EXPECT_EQ(R.getU32(), 0xdeadbeefu);
  EXPECT_EQ(R.getU64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.getI64(), -42);
  EXPECT_DOUBLE_EQ(R.getF64(), 3.141592653589793);
  EXPECT_EQ(R.getString(), "hello wire");
  EXPECT_EQ(R.getFloats(), Floats);
  EXPECT_TRUE(R.atEnd());
}

TEST(Wire, TruncatedBufferLatchesPositionedError) {
  WireWriter W;
  W.putU64(7);
  std::vector<uint8_t> Bytes = W.take();
  Bytes.resize(5); // cut the u64 short
  WireReader R(Bytes);
  EXPECT_EQ(R.getU64(), 0u);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().find("truncated payload at byte"), std::string::npos);
  // Latched: later reads stay failed and return zero values.
  EXPECT_EQ(R.getU32(), 0u);
  EXPECT_EQ(R.getString(), "");
  EXPECT_FALSE(R.atEnd());
}

TEST(Wire, StringLengthBeyondPayloadIsRejected) {
  WireWriter W;
  W.putU32(1000); // claims 1000 bytes follow
  W.putU8('x');
  WireReader R(W.bytes());
  EXPECT_EQ(R.getString(), "");
  EXPECT_FALSE(R.ok());
}

TEST(Wire, FloatCountBeyondPayloadIsRejected) {
  WireWriter W;
  W.putU64(1ull << 40); // absurd element count, tiny payload
  WireReader R(W.bytes());
  EXPECT_TRUE(R.getFloats().empty());
  EXPECT_FALSE(R.ok());
}

TEST(Wire, FramesRoundTripOverAPipe) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  std::string Err;
  ASSERT_TRUE(writeFrame(Fds[1], 2, Payload, &Err)) << Err;
  Frame F;
  ASSERT_EQ(readFrame(Fds[0], F, &Err), ReadStatus::Ok) << Err;
  EXPECT_EQ(F.Verb, 2);
  EXPECT_EQ(F.Payload, Payload);

  // Orderly close between frames is Eof, not an error.
  ::close(Fds[1]);
  EXPECT_EQ(readFrame(Fds[0], F, &Err), ReadStatus::Eof);
  ::close(Fds[0]);
}

TEST(Wire, BadMagicAndTruncatedFrameAreErrors) {
  {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    const char Junk[] = "NOTAFRAMEATALL";
    ASSERT_EQ(::write(Fds[1], Junk, sizeof(Junk)),
              static_cast<ssize_t>(sizeof(Junk)));
    ::close(Fds[1]);
    Frame F;
    std::string Err;
    EXPECT_EQ(readFrame(Fds[0], F, &Err), ReadStatus::Error);
    EXPECT_NE(Err.find("magic"), std::string::npos);
    ::close(Fds[0]);
  }
  {
    // Valid header promising more payload than ever arrives.
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    WireWriter W;
    W.putU32(FrameMagic);
    W.putU16(ProtocolVersion);
    W.putU16(1);
    W.putU32(100); // payload length, but we send only 3 bytes
    W.putU8(0);
    W.putU8(0);
    W.putU8(0);
    const std::vector<uint8_t> &Bytes = W.bytes();
    ASSERT_EQ(::write(Fds[1], Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
    ::close(Fds[1]);
    Frame F;
    std::string Err;
    EXPECT_EQ(readFrame(Fds[0], F, &Err), ReadStatus::Error);
    ::close(Fds[0]);
  }
}

//===----------------------------------------------------------------------===//
// Protocol messages
//===----------------------------------------------------------------------===//

TEST(Protocol, JobRequestRoundTrip) {
  JobRequest Req;
  Req.ModelText = GcnModel;
  Req.GraphSpec = "synth:reddit";
  Req.KIn = 48;
  Req.KOut = 96;
  Req.Training = true;
  Req.Reorder = "degree";
  Req.Seed = 7;
  Req.WantOutput = true;
  Req.Format = "auto";

  JobRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeJobRequest(encodeJobRequest(Req), Out, &Err)) << Err;
  EXPECT_EQ(Out.ModelText, Req.ModelText);
  EXPECT_EQ(Out.GraphSpec, Req.GraphSpec);
  EXPECT_EQ(Out.KIn, Req.KIn);
  EXPECT_EQ(Out.KOut, Req.KOut);
  EXPECT_EQ(Out.Training, Req.Training);
  EXPECT_EQ(Out.Reorder, Req.Reorder);
  EXPECT_EQ(Out.Seed, Req.Seed);
  EXPECT_EQ(Out.WantOutput, Req.WantOutput);
  EXPECT_EQ(Out.Format, Req.Format);
}

TEST(Protocol, JobRequestRejectsTruncationAndTrailingGarbage) {
  std::vector<uint8_t> Bytes = encodeJobRequest(smallRequest());
  for (size_t Cut : {size_t(0), size_t(1), Bytes.size() / 2,
                     Bytes.size() - 1}) {
    JobRequest Out;
    std::string Err;
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_FALSE(decodeJobRequest(Short, Out, &Err)) << "cut=" << Cut;
    EXPECT_FALSE(Err.empty());
  }
  std::vector<uint8_t> Long = Bytes;
  Long.push_back(0);
  JobRequest Out;
  std::string Err;
  EXPECT_FALSE(decodeJobRequest(Long, Out, &Err));
  EXPECT_NE(Err.find("trailing"), std::string::npos);
}

TEST(Protocol, RunResponseRoundTripIncludingOutput) {
  RunResponse Resp;
  Resp.Rows = 3;
  Resp.Cols = 2;
  Resp.Output = {1.5f, -2.0f, 0.0f, 4.25f, 1e-7f, -9.5f};
  Resp.SetupSeconds = 0.125;
  Resp.ForwardSeconds = 0.5;
  Resp.BackwardSeconds = 0.25;
  Resp.PlanIndex = 2;
  Resp.UsedCostModels = true;
  Resp.PlanCacheHit = true;
  Resp.SessionCacheHit = true;
  Resp.SteadyAllocations = 0;
  Resp.RunIndex = 5;

  RunResponse Out;
  std::string Err;
  ASSERT_TRUE(decodeRunResponse(encodeRunResponse(Resp), Out, &Err)) << Err;
  EXPECT_TRUE(Out.Status.Ok);
  EXPECT_EQ(Out.Rows, 3);
  EXPECT_EQ(Out.Cols, 2);
  EXPECT_EQ(Out.Output, Resp.Output); // bit-exact float transport
  EXPECT_DOUBLE_EQ(Out.ForwardSeconds, 0.5);
  EXPECT_EQ(Out.PlanIndex, 2u);
  EXPECT_TRUE(Out.SessionCacheHit);
  EXPECT_EQ(Out.RunIndex, 5u);
}

TEST(Protocol, ErrorResponsesCarryTheMessageForEveryVerb) {
  std::string Err;
  {
    CompileResponse Out;
    ASSERT_TRUE(decodeCompileResponse(
        encodeErrorResponse(Verb::Compile, "boom"), Out, &Err))
        << Err;
    EXPECT_FALSE(Out.Status.Ok);
    EXPECT_EQ(Out.Status.Error, "boom");
  }
  {
    RunResponse Out;
    ASSERT_TRUE(
        decodeRunResponse(encodeErrorResponse(Verb::Run, "boom"), Out, &Err));
    EXPECT_FALSE(Out.Status.Ok);
  }
  {
    StatsResponse Out;
    ASSERT_TRUE(decodeStatsResponse(encodeErrorResponse(Verb::Stats, "boom"),
                                    Out, &Err));
    EXPECT_FALSE(Out.Status.Ok);
  }
  {
    ShutdownResponse Out;
    ASSERT_TRUE(decodeShutdownResponse(
        encodeErrorResponse(Verb::Shutdown, "boom"), Out, &Err));
    EXPECT_FALSE(Out.Status.Ok);
  }
}

TEST(Protocol, StatsResponseRoundTrip) {
  StatsResponse Resp;
  Resp.RequestsServed = 10;
  Resp.RunRequests = 6;
  Resp.CompileRequests = 2;
  Resp.ErrorResponses = 1;
  Resp.SessionsLive = 3;
  Resp.SessionHits = 4;
  Resp.PlanCacheHits = 5;
  Resp.PlanCacheMisses = 2;
  Resp.UptimeSeconds = 12.5;
  Resp.Threads = 4;
  Resp.Isa = "avx2";
  StatsResponse Out;
  std::string Err;
  ASSERT_TRUE(decodeStatsResponse(encodeStatsResponse(Resp), Out, &Err))
      << Err;
  EXPECT_EQ(Out.RequestsServed, 10u);
  EXPECT_EQ(Out.RunRequests, 6u);
  EXPECT_EQ(Out.SessionsLive, 3u);
  EXPECT_EQ(Out.PlanCacheHits, 5u);
  EXPECT_DOUBLE_EQ(Out.UptimeSeconds, 12.5);
  EXPECT_EQ(Out.Isa, "avx2");
}

//===----------------------------------------------------------------------===//
// Engine / Session
//===----------------------------------------------------------------------===//

TEST(Engine, RequestErrorsComeBackAsStatusNotCrashes) {
  Engine Eng(testEngineOptions());
  // Each bad request, with a fragment its error must name. compile and run
  // validate in one place, so both verbs reject it with the same message.
  const std::vector<std::pair<std::function<void(JobRequest &)>,
                              std::string>>
      Bad = {
          {[](JobRequest &R) { R.ModelText = "model Broken { not DSL"; },
           "model parse failed"},
          {[](JobRequest &R) { R.GraphSpec = "synth:nosuchgraph"; },
           "nosuchgraph"},
          {[](JobRequest &R) { R.Reorder = "nosuchpolicy"; },
           "nosuchpolicy"},
          {[](JobRequest &R) { R.KIn = 0; }, "embedding sizes"},
          {[](JobRequest &R) { R.Format = "nosuchformat"; }, "nosuchformat"},
          {[](JobRequest &R) {
             R.Format = "sell";
             R.Shards = 4;
           },
           "unknown or unsupported sparse format 'sell'"},
      };
  for (const auto &[Mutate, Fragment] : Bad) {
    SCOPED_TRACE(Fragment);
    JobRequest Req = smallRequest();
    Mutate(Req);
    CompileResponse Compiled = Eng.compile(Req);
    RunResponse Ran = Eng.run(Req);
    EXPECT_FALSE(Compiled.Status.Ok);
    EXPECT_FALSE(Ran.Status.Ok);
    EXPECT_NE(Ran.Status.Error.find(Fragment), std::string::npos)
        << Ran.Status.Error;
    EXPECT_EQ(Compiled.Status.Error, Ran.Status.Error);
  }
}

TEST(Engine, WarmRunsAreBitwiseIdenticalAndAllocationFree) {
  Engine Eng(testEngineOptions());
  JobRequest Req = smallRequest();

  RunResponse Cold = Eng.run(Req);
  ASSERT_TRUE(Cold.Status.Ok) << Cold.Status.Error;
  EXPECT_FALSE(Cold.SessionCacheHit);
  EXPECT_EQ(Cold.RunIndex, 1u);
  ASSERT_GT(Cold.Rows, 0);
  ASSERT_EQ(Cold.Output.size(),
            static_cast<size_t>(Cold.Rows) * static_cast<size_t>(Cold.Cols));

  for (int I = 0; I < 3; ++I) {
    RunResponse Warm = Eng.run(Req);
    ASSERT_TRUE(Warm.Status.Ok) << Warm.Status.Error;
    EXPECT_TRUE(Warm.SessionCacheHit);
    EXPECT_EQ(Warm.RunIndex, static_cast<uint64_t>(I + 2));
    // The amortization guarantee: no workspace growth on a warm pass.
    EXPECT_EQ(Warm.SteadyAllocations, 0u);
    // Bitwise-identical output (same session, deterministic kernels).
    ASSERT_EQ(Warm.Output.size(), Cold.Output.size());
    EXPECT_EQ(std::memcmp(Warm.Output.data(), Cold.Output.data(),
                          Cold.Output.size() * sizeof(float)),
              0);
  }
  EngineStats S = Eng.stats();
  EXPECT_EQ(S.SessionMisses, 1u);
  EXPECT_EQ(S.SessionHits, 3u);
  EXPECT_EQ(S.SessionsLive, 1u);
}

// A warm run reuses the session's result storage: copying the output out
// of the arena must not allocate a fresh output matrix per request. In a
// training session the gradient accumulators, the backward pass's scratch
// terms and the exported gradients reuse their storage too.
TEST(Engine, WarmRunAllocatesLessThanItsOutput) {
  for (bool Training : {false, true}) {
    SCOPED_TRACE(Training ? "training" : "inference");
    Engine Eng(testEngineOptions());
    JobRequest Req = smallRequest(/*WantOutput=*/false);
    Req.GraphSpec = "synth:rmat:4096:32768:3";
    Req.KIn = Req.KOut = 16;
    Req.Training = Training;
    std::string Err;
    std::shared_ptr<Session> S = Eng.session(Req, Err);
    ASSERT_TRUE(S) << Err;
    ASSERT_TRUE(S->run(/*WantOutput=*/false).Status.Ok); // cold

    CountedNewBytes = 0;
    CountingNew = true;
    RunResponse Warm = S->run(/*WantOutput=*/false);
    CountingNew = false;
    ASSERT_TRUE(Warm.Status.Ok) << Warm.Status.Error;
    EXPECT_EQ(Warm.SteadyAllocations, 0u);
    EXPECT_LT(CountedNewBytes.load(),
              static_cast<size_t>(Warm.Rows * Warm.Cols) * sizeof(float))
        << "warm run allocated " << CountedNewBytes.load() << " bytes";
  }
}

TEST(Engine, CompileVerbPopulatesPlanCacheForLaterRuns) {
  Engine Eng(testEngineOptions());
  JobRequest Req = smallRequest(false);

  CompileResponse First = Eng.compile(Req);
  ASSERT_TRUE(First.Status.Ok) << First.Status.Error;
  EXPECT_GT(First.Enumerated, 0u);
  EXPECT_GT(First.Promoted, 0u);
  EXPECT_FALSE(First.PlanCacheHit);
  EXPECT_FALSE(First.CacheKey.empty());

  CompileResponse Second = Eng.compile(Req);
  ASSERT_TRUE(Second.Status.Ok);
  EXPECT_TRUE(Second.PlanCacheHit);
  EXPECT_EQ(Second.Promoted, First.Promoted);
  EXPECT_EQ(Second.CacheKey, First.CacheKey);

  // A fresh session rides the cached plan set instead of re-enumerating.
  RunResponse Run = Eng.run(Req);
  ASSERT_TRUE(Run.Status.Ok) << Run.Status.Error;
  EXPECT_TRUE(Run.PlanCacheHit);
}

// CSR is the one storage format and the plan-cache key carries none, so an
// auto compile after a CSR compile of the same job rides the CSR entry.
TEST(Engine, AutoCompileIsServedTheCsrCacheEntry) {
  Engine Eng(testEngineOptions());
  JobRequest Req = smallRequest(false);

  CompileResponse Csr = Eng.compile(Req);
  ASSERT_TRUE(Csr.Status.Ok) << Csr.Status.Error;
  EXPECT_FALSE(Csr.PlanCacheHit);

  JobRequest AutoReq = Req;
  AutoReq.Format = "auto";
  CompileResponse Auto = Eng.compile(AutoReq);
  ASSERT_TRUE(Auto.Status.Ok) << Auto.Status.Error;
  EXPECT_TRUE(Auto.PlanCacheHit) << "auto compile missed the CSR cache entry";
  EXPECT_EQ(Auto.CacheKey, Csr.CacheKey);
}

// The auto format gets its own session (the session key carries the raw
// format name), whose warm output matches the CSR session bitwise.
TEST(Engine, FormatSessionsAreDistinctAndAgreeBitwise) {
  Engine Eng(testEngineOptions());
  JobRequest Req = smallRequest();
  RunResponse Base = Eng.run(Req);
  ASSERT_TRUE(Base.Status.Ok) << Base.Status.Error;

  JobRequest FReq = Req;
  FReq.Format = "auto";
  RunResponse First = Eng.run(FReq);
  ASSERT_TRUE(First.Status.Ok) << First.Status.Error;
  EXPECT_FALSE(First.SessionCacheHit) << "auto reused the CSR session";
  ASSERT_EQ(First.Output.size(), Base.Output.size());
  EXPECT_EQ(std::memcmp(First.Output.data(), Base.Output.data(),
                        Base.Output.size() * sizeof(float)),
            0);
  RunResponse Warm = Eng.run(FReq);
  ASSERT_TRUE(Warm.Status.Ok);
  EXPECT_TRUE(Warm.SessionCacheHit);
  EXPECT_EQ(Warm.SteadyAllocations, 0u);
}

// Removed storage formats, the backward-only CSC view and unknown names are
// request errors from both verbs, even with a warm CSR session and plan-cache
// entry of the same job in place: the session key carries the raw format
// name, so the warm lookup never serves them.
TEST(Engine, UnknownOrBackwardOnlyFormatIsARequestError) {
  Engine Eng(testEngineOptions());
  JobRequest Csr = smallRequest();
  ASSERT_TRUE(Eng.run(Csr).Status.Ok);
  ASSERT_TRUE(Eng.compile(Csr).PlanCacheHit);
  for (const char *Format : {"ell", "sell", "hyb", "csc", "coo", "banana"}) {
    SCOPED_TRACE(Format);
    JobRequest Req = Csr;
    Req.Format = Format;
    RunResponse R = Eng.run(Req);
    EXPECT_FALSE(R.Status.Ok);
    EXPECT_FALSE(R.SessionCacheHit);
    const std::string Want = "unknown or unsupported sparse format '" +
                             std::string(Format) + "' (try csr, auto)";
    EXPECT_EQ(R.Status.Error, Want);
    CompileResponse C = Eng.compile(Req);
    EXPECT_FALSE(C.Status.Ok);
    EXPECT_EQ(C.Status.Error, R.Status.Error);
  }
  EXPECT_EQ(Eng.stats().SessionsLive, 1u);
}

TEST(Engine, SessionLruEvictsButEvictedConfigStillRuns) {
  EngineOptions Opts = testEngineOptions();
  Opts.SessionCapacity = 2;
  Engine Eng(Opts);

  JobRequest A = smallRequest();
  JobRequest B = smallRequest();
  B.KOut = 16; // different session key
  JobRequest C = smallRequest();
  C.KOut = 20;

  ASSERT_TRUE(Eng.run(A).Status.Ok);
  ASSERT_TRUE(Eng.run(B).Status.Ok);
  ASSERT_TRUE(Eng.run(C).Status.Ok); // evicts A's session
  EXPECT_EQ(Eng.stats().SessionEvictions, 1u);
  EXPECT_EQ(Eng.stats().SessionsLive, 2u);

  RunResponse Again = Eng.run(A); // rebuilt, not a crash
  ASSERT_TRUE(Again.Status.Ok);
  EXPECT_FALSE(Again.SessionCacheHit);
  EXPECT_EQ(Again.RunIndex, 1u);
}

//===----------------------------------------------------------------------===//
// Daemon end-to-end over a real Unix socket
//===----------------------------------------------------------------------===//

TEST(Server, EightConcurrentClientsGetIdenticalAnswers) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("conc");
  Opts.Engine = testEngineOptions();
  Server Srv(Opts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  // Reference answer from the engine directly (same process, same pool).
  JobRequest Req = smallRequest();
  RunResponse Reference = Srv.engine().run(Req);
  ASSERT_TRUE(Reference.Status.Ok) << Reference.Status.Error;

  constexpr int NumClients = 8;
  std::vector<RunResponse> Got(NumClients);
  std::vector<std::string> ClientErr(NumClients);
  std::vector<std::thread> Threads;
  for (int I = 0; I < NumClients; ++I)
    Threads.emplace_back([&, I] {
      Client C;
      if (!C.connect(Opts.SocketPath, &ClientErr[I]))
        return;
      C.run(Req, Got[I], &ClientErr[I]);
    });
  for (std::thread &T : Threads)
    T.join();

  for (int I = 0; I < NumClients; ++I) {
    ASSERT_TRUE(ClientErr[I].empty()) << "client " << I << ": " << ClientErr[I];
    ASSERT_TRUE(Got[I].Status.Ok) << Got[I].Status.Error;
    ASSERT_EQ(Got[I].Output.size(), Reference.Output.size());
    EXPECT_EQ(std::memcmp(Got[I].Output.data(), Reference.Output.data(),
                          Reference.Output.size() * sizeof(float)),
              0)
        << "client " << I << " diverged";
    EXPECT_TRUE(Got[I].SessionCacheHit) << "client " << I;
  }

  // Stats + graceful shutdown through the protocol.
  Client C;
  ASSERT_TRUE(C.connect(Opts.SocketPath, &Err)) << Err;
  StatsResponse Stats;
  ASSERT_TRUE(C.stats(Stats, &Err)) << Err;
  EXPECT_TRUE(Stats.Status.Ok);
  EXPECT_GE(Stats.RunRequests, static_cast<uint64_t>(NumClients));
  EXPECT_GE(Stats.SessionHits, static_cast<uint64_t>(NumClients));

  ShutdownResponse Ack;
  ASSERT_TRUE(C.shutdown(Ack, &Err)) << Err;
  EXPECT_TRUE(Ack.Status.Ok);
  Srv.wait();
  EXPECT_FALSE(Srv.running());
  // Socket file is unlinked on drain.
  EXPECT_NE(::access(Opts.SocketPath.c_str(), F_OK), 0);
}

TEST(Server, MalformedFramesGetFramedErrorsAndServerSurvives) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("mal");
  Opts.Engine = testEngineOptions();
  Server Srv(Opts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  {
    // A frame whose payload is not a valid request: expect a framed error
    // response with the status byte set, not a dropped connection.
    Client C;
    ASSERT_TRUE(C.connect(Opts.SocketPath, &Err)) << Err;
    // Client enforces verb echo, so drive this via compile with an empty
    // model: the server answers with a decoded, framed error response.
    JobRequest Bad;
    Bad.ModelText = ""; // parse failure server-side
    Bad.GraphSpec = "synth:mycielskian";
    CompileResponse CompResp;
    ASSERT_TRUE(C.compile(Bad, CompResp, &Err)) << Err;
    EXPECT_FALSE(CompResp.Status.Ok);
    EXPECT_FALSE(CompResp.Status.Error.empty());
  }

  // The daemon still serves good requests afterwards.
  Client C2;
  ASSERT_TRUE(C2.connect(Opts.SocketPath, &Err)) << Err;
  RunResponse Good;
  ASSERT_TRUE(C2.run(smallRequest(), Good, &Err)) << Err;
  EXPECT_TRUE(Good.Status.Ok) << Good.Status.Error;

  Srv.requestStop();
  Srv.wait();
  EXPECT_GE(Srv.counters().RequestsServed, 2u);
}
