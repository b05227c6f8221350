//===-- tests/ServeTest.cpp - daemon protocol/soak/fault battery ----------===//
//
// The compile daemon must survive hostility on every layer:
//
//   - Protocol: truncated, bit-flipped, wrong-version, oversized and
//     garbage frames, and mid-message disconnects, each answered with a
//     clean error or a clean close — never a crash, never a hang.
//   - Concurrency: many client threads against one daemon must get
//     byte-identical output to a serial in-process compile of the same
//     job, and a warmed daemon must serve (almost) everything from the
//     winner-replay fast path.
//   - Faults: a daemon stopped mid-request surfaces as a fallback-
//     eligible failure; a restarted daemon rewarms from the disk tier
//     with no quarantine growth; the disk cache is opened exactly once
//     per daemon lifetime.
//   - Policy: per-request deadlines cancel the search gracefully, a full
//     admission queue answers Busy, and quick jobs are not starved
//     behind a convoy of searches.
//
// The end-to-end section (compiled in when GPUCD_BIN/GPUCC_BIN are
// defined) drives the real binaries: cold+warm client pairs over one
// daemon, SIGKILL mid-request, and the gpucc --connect fallback.
//
//===----------------------------------------------------------------------===//

#include "baselines/NaiveKernels.h"
#include "cache/DiskCache.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "serve/Socket.h"
#include "sim/SimCache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>

#if defined(GPUCD_BIN) && defined(GPUCC_BIN)
#include <csignal>
#include <cstdlib>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace gpuc;
using namespace gpuc::serve;
namespace fs = std::filesystem;

namespace {

/// RAII temp directory hosting the socket (sun_path is length-capped,
/// so the name stays short) and, when wanted, the cache tier.
struct TempDir {
  std::string Path = DiskCache::makeTempDir("gpuc-serve");
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string sock() const { return Path + "/d.sock"; }
  std::string cacheDir() const { return Path + "/cache"; }
};

CompileJob mmJob(long long N) {
  CompileJob J;
  J.Source = naiveSource(Algo::MM, N);
  J.Flags = jobDefaultFlags();
  return J;
}

/// Serial in-process reference (the soak battery's byte-identity oracle).
CompileResult localReference(const CompileJob &J) {
  SimCache Mem;
  ServiceContext Ctx;
  Ctx.Mem = &Mem;
  return runCompileJob(J, Ctx);
}

/// In-process daemon harness.
struct Harness {
  TempDir Dir;
  ServerOptions Opts;
  std::unique_ptr<Server> S;

  void start(bool WithDisk) {
    Opts.SocketPath = Dir.sock();
    if (WithDisk && Opts.CacheDir.empty())
      Opts.CacheDir = Dir.cacheDir();
    if (!WithDisk)
      Opts.CacheDir.clear();
    S = std::make_unique<Server>(Opts);
    std::string Err;
    ASSERT_TRUE(S->start(Err)) << Err;
  }
};

/// Encodes a complete CompileReq frame for \p J.
std::string compileFrame(const CompileJob &J) {
  ByteWriter W;
  encodeCompileJob(W, J);
  return encodeFrame(MsgType::CompileReq, W.buffer());
}

/// Sends raw bytes on a fresh connection and closes. \returns false if
/// the connect failed (the server is gone — the fuzz battery treats that
/// as a failure).
bool sendRawAndClose(const std::string &Sock, const std::string &Bytes) {
  std::string Err;
  Fd C = connectUnix(Sock, Err);
  if (!C.valid())
    return false;
  sendAll(C, Bytes);
  return true;
}

/// Deterministic byte source for the garbage-frame tests.
struct Lcg {
  uint32_t State = 0x20100615;
  uint8_t next() {
    State = State * 1664525u + 1013904223u;
    return static_cast<uint8_t>(State >> 24);
  }
};

//===----------------------------------------------------------------------===//
// Protocol unit tests
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, CompileJobRoundTrips) {
  CompileJob J;
  J.Name = "batch/file3.cu";
  J.Source = "__global__ void k(float a[64]) { a[0] = 1.0f; }";
  J.DeviceName = "gtx8800";
  J.Flags = jobDefaultFlags() | JF_Report | JF_Werror;
  J.BlockN = 4;
  J.ThreadM = 2;
  J.TimeoutMs = 1500;
  J.Dialect = 1;
  J.Interp = 1;

  ByteWriter W;
  encodeCompileJob(W, J);
  ByteReader R(W.buffer());
  CompileJob Out;
  ASSERT_TRUE(decodeCompileJob(R, Out));
  EXPECT_EQ(Out.Name, J.Name);
  EXPECT_EQ(Out.Source, J.Source);
  EXPECT_EQ(Out.DeviceName, J.DeviceName);
  EXPECT_EQ(Out.Flags, J.Flags);
  EXPECT_EQ(Out.BlockN, J.BlockN);
  EXPECT_EQ(Out.ThreadM, J.ThreadM);
  EXPECT_EQ(Out.TimeoutMs, J.TimeoutMs);
  EXPECT_EQ(Out.Dialect, J.Dialect);
  EXPECT_EQ(Out.Interp, J.Interp);
}

TEST(ServeProtocol, ResultAndErrorRoundTrip) {
  CompileResult R;
  R.Code = 2;
  R.Out = std::string("kernel text\n\0with embedded nul", 29);
  R.Err = "warning: something\n";
  R.CritPathMs = 12.75;
  R.WarmFastPath = 1;
  ByteWriter W;
  encodeCompileResult(W, R);
  ByteReader Rd(W.buffer());
  CompileResult Out;
  ASSERT_TRUE(decodeCompileResult(Rd, Out));
  EXPECT_EQ(Out.Code, R.Code);
  EXPECT_EQ(Out.Out, R.Out);
  EXPECT_EQ(Out.Err, R.Err);
  EXPECT_DOUBLE_EQ(Out.CritPathMs, R.CritPathMs);
  EXPECT_EQ(Out.WarmFastPath, R.WarmFastPath);

  ErrorBody E{ErrCode::Busy, "admission queue full"};
  ByteWriter EW;
  encodeError(EW, E);
  ByteReader ER(EW.buffer());
  ErrorBody EOut;
  ASSERT_TRUE(decodeError(ER, EOut));
  EXPECT_EQ(EOut.Code, E.Code);
  EXPECT_EQ(EOut.Message, E.Message);
}

TEST(ServeProtocol, FrameHeaderRejectsEachBadField) {
  std::string Frame = encodeFrame(MsgType::PingReq, std::string());
  ASSERT_EQ(Frame.size(), FrameHeaderBytes);

  FrameHeader H;
  ASSERT_TRUE(decodeFrameHeader(Frame.data(), Frame.size(), H));
  const char *Why = nullptr;
  EXPECT_TRUE(frameHeaderValid(H, &Why));

  FrameHeader Bad = H;
  Bad.Magic ^= 1;
  EXPECT_FALSE(frameHeaderValid(Bad, &Why));
  EXPECT_STREQ(Why, "bad magic");

  Bad = H;
  Bad.Version = ProtocolVersion + 1;
  EXPECT_FALSE(frameHeaderValid(Bad, &Why));
  EXPECT_STREQ(Why, "protocol version mismatch");

  Bad = H;
  Bad.Type = 0x7777;
  EXPECT_FALSE(frameHeaderValid(Bad, &Why));
  EXPECT_STREQ(Why, "unknown message type");

  Bad = H;
  Bad.Length = MaxPayloadBytes + 1;
  EXPECT_FALSE(frameHeaderValid(Bad, &Why));
  EXPECT_STREQ(Why, "payload length over cap");

  // Short header: undecodable, never a read past the end.
  FrameHeader Short;
  EXPECT_FALSE(decodeFrameHeader(Frame.data(), FrameHeaderBytes - 1, Short));
}

TEST(ServeProtocol, DecodersRejectEveryTruncatedPayloadPrefix) {
  CompileJob J = mmJob(16);
  J.Name = "prefix-test";
  ByteWriter W;
  encodeCompileJob(W, J);
  const std::string Full = W.buffer();
  for (size_t L = 0; L < Full.size(); ++L) {
    // ByteReader aliases the buffer, so the prefix must outlive it.
    const std::string Prefix(Full, 0, L);
    ByteReader R(Prefix);
    CompileJob Out;
    EXPECT_FALSE(decodeCompileJob(R, Out)) << "prefix length " << L;
  }
  // Trailing garbage is also malformed: the encoding is self-delimiting.
  const std::string Longer = Full + '\x00';
  ByteReader Extra(Longer);
  CompileJob Out;
  EXPECT_FALSE(decodeCompileJob(Extra, Out));
}

TEST(ServeProtocol, ChecksumCatchesPayloadCorruption) {
  CompileJob J = mmJob(16);
  std::string Frame = compileFrame(J);
  FrameHeader H;
  ASSERT_TRUE(decodeFrameHeader(Frame.data(), Frame.size(), H));
  EXPECT_EQ(H.Checksum,
            framePayloadChecksum(Frame.substr(FrameHeaderBytes)));
  Frame[FrameHeaderBytes + 5] ^= 0x10; // flip one payload bit
  EXPECT_NE(H.Checksum,
            framePayloadChecksum(Frame.substr(FrameHeaderBytes)));
}

//===----------------------------------------------------------------------===//
// Protocol fuzz battery against a live server
//===----------------------------------------------------------------------===//

/// The server must answer a good request after arbitrary abuse; this is
/// the battery's liveness probe.
void expectServerAlive(const std::string &Sock) {
  std::string Err;
  EXPECT_EQ(pingDaemon(Sock, Err), ClientStatus::Ok) << Err;
  CompileResult R;
  EXPECT_EQ(compileViaDaemon(Sock, mmJob(16), R, Err), ClientStatus::Ok)
      << Err;
  EXPECT_EQ(R.Code, 0);
}

TEST(ServeFuzz, SurvivesEveryTruncatedFramePrefix) {
  Harness H;
  H.Opts.IoTimeoutMs = 500; // stalled peers reap fast
  H.start(/*WithDisk=*/false);

  const std::string Frame = compileFrame(mmJob(16));
  // Every header prefix, then a sweep of payload truncation points.
  std::vector<size_t> Cuts;
  for (size_t L = 0; L <= FrameHeaderBytes; ++L)
    Cuts.push_back(L);
  for (size_t L = FrameHeaderBytes + 1; L < Frame.size(); L += 7)
    Cuts.push_back(L);
  for (size_t L : Cuts)
    EXPECT_TRUE(sendRawAndClose(H.Dir.sock(), std::string(Frame, 0, L)))
        << "server gone after prefix length " << L;

  expectServerAlive(H.Dir.sock());
  EXPECT_EQ(H.S->stats().Served, 1u); // only the liveness probe compiled
}

TEST(ServeFuzz, AnswersBitFlippedFramesWithErrorOrClose) {
  Harness H;
  H.Opts.IoTimeoutMs = 500;
  H.start(/*WithDisk=*/false);

  const std::string Frame = compileFrame(mmJob(16));
  // Flip one bit in every header byte and a sample of payload bytes.
  std::vector<size_t> Positions;
  for (size_t I = 0; I < FrameHeaderBytes; ++I)
    Positions.push_back(I);
  for (size_t I = FrameHeaderBytes; I < Frame.size(); I += 11)
    Positions.push_back(I);

  for (size_t Pos : Positions) {
    for (uint8_t Bit : {0, 3, 7}) {
      std::string Mutant = Frame;
      Mutant[Pos] = static_cast<char>(Mutant[Pos] ^ (1u << Bit));
      std::string Err;
      Fd C = connectUnix(H.Dir.sock(), Err);
      ASSERT_TRUE(C.valid()) << "server gone before flip at " << Pos;
      sendAll(C, Mutant);
      // Close our write side so a corrupt length field cannot park the
      // server waiting for payload bytes that will never come.
      ::shutdown(C.get(), SHUT_WR);
      MsgType T;
      std::string Payload;
      IoStatus S = recvFrame(C, T, Payload, /*TimeoutMs=*/10000);
      if (S == IoStatus::Ok) {
        // A response means the server saw a parseable frame; anything it
        // says about a corrupted one must be an error or, when the flip
        // left the frame valid, a real result.
        EXPECT_TRUE(T == MsgType::ErrorResp || T == MsgType::ResultResp);
      } else {
        EXPECT_TRUE(S == IoStatus::Closed || S == IoStatus::Truncated)
            << ioStatusName(S) << " at pos " << Pos;
      }
    }
  }
  expectServerAlive(H.Dir.sock());
}

TEST(ServeFuzz, RejectsWrongVersionOversizedAndGarbage) {
  Harness H;
  H.Opts.IoTimeoutMs = 500;
  H.start(/*WithDisk=*/false);

  auto ExpectMalformedResp = [&](const std::string &Bytes,
                                 const char *What) {
    std::string Err;
    Fd C = connectUnix(H.Dir.sock(), Err);
    ASSERT_TRUE(C.valid()) << What;
    sendAll(C, Bytes);
    ::shutdown(C.get(), SHUT_WR);
    MsgType T;
    std::string Payload;
    IoStatus S = recvFrame(C, T, Payload, 10000);
    ASSERT_EQ(S, IoStatus::Ok) << What << ": " << ioStatusName(S);
    ASSERT_EQ(T, MsgType::ErrorResp) << What;
    ErrorBody E;
    ByteReader R(Payload);
    ASSERT_TRUE(decodeError(R, E)) << What;
    EXPECT_EQ(E.Code, ErrCode::Malformed) << What;
  };

  // Wrong protocol version.
  std::string Frame = compileFrame(mmJob(16));
  uint32_t BadVersion = ProtocolVersion + 9;
  std::memcpy(&Frame[4], &BadVersion, 4);
  ExpectMalformedResp(Frame, "wrong version");

  // Oversized declared length.
  Frame = compileFrame(mmJob(16));
  uint32_t Huge = MaxPayloadBytes + 1;
  std::memcpy(&Frame[12], &Huge, 4);
  ExpectMalformedResp(Frame, "oversized length");

  // Pure garbage (deterministic), a few lengths.
  Lcg Rng;
  for (size_t Len : {size_t(24), size_t(64), size_t(300)}) {
    std::string Garbage(Len, '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Rng.next());
    Garbage[0] = 'X'; // never accidentally the magic
    ExpectMalformedResp(Garbage, "garbage");
  }

  // A payload that checksums correctly but does not decode as a
  // CompileJob must be answered Malformed too, not crash the decoder.
  ExpectMalformedResp(encodeFrame(MsgType::CompileReq, "not a job"),
                      "undecodable payload");

  expectServerAlive(H.Dir.sock());
  EXPECT_GE(H.S->stats().ProtocolErrors, 6u);
}

TEST(ServeFuzz, MidMessageDisconnectLeavesServerServing) {
  Harness H;
  H.Opts.IoTimeoutMs = 500;
  H.start(/*WithDisk=*/false);

  const std::string Frame = compileFrame(mmJob(16));
  for (int Round = 0; Round < 8; ++Round) {
    std::string Err;
    Fd C = connectUnix(H.Dir.sock(), Err);
    ASSERT_TRUE(C.valid());
    // Header promises a payload; deliver half of it and vanish.
    sendAll(C, std::string(Frame, 0,
                           FrameHeaderBytes +
                               (Frame.size() - FrameHeaderBytes) / 2));
    C.reset(); // hard close mid-message
  }
  expectServerAlive(H.Dir.sock());
  EXPECT_GE(H.S->stats().ProtocolErrors, 8u);
}

//===----------------------------------------------------------------------===//
// Concurrency soak
//===----------------------------------------------------------------------===//

TEST(ServeSoak, ConcurrentClientsMatchSerialByteForByteAndRewarm) {
  // Distinct kernels so the cold wave really exercises the search.
  // Multiples of 16: smaller sizes make the search trivial and the
  // trivial winner is not stored (nothing to replay).
  const std::vector<long long> Sizes = {16, 32, 48, 64};
  std::vector<CompileJob> Jobs;
  std::vector<CompileResult> Refs;
  for (long long N : Sizes) {
    Jobs.push_back(mmJob(N));
    Refs.push_back(localReference(Jobs.back()));
    ASSERT_EQ(Refs.back().Code, 0) << "reference compile failed for " << N;
  }

  Harness H;
  H.Opts.Workers = 4;
  H.start(/*WithDisk=*/true);

  const int Threads = 6, PerThread = 8;
  auto RunWave = [&] {
    std::atomic<int> Failures{0};
    std::vector<std::thread> Ts;
    for (int T = 0; T < Threads; ++T) {
      Ts.emplace_back([&, T] {
        for (int I = 0; I < PerThread; ++I) {
          size_t Pick = static_cast<size_t>(T * PerThread + I) % Jobs.size();
          CompileResult R;
          std::string Err;
          ClientStatus S =
              compileViaDaemon(H.Dir.sock(), Jobs[Pick], R, Err);
          if (S != ClientStatus::Ok || R.Code != 0 ||
              R.Out != Refs[Pick].Out || R.Err != Refs[Pick].Err)
            Failures.fetch_add(1);
        }
      });
    }
    for (std::thread &T : Ts)
      T.join();
    return Failures.load();
  };

  // Cold wave: every response must still be byte-identical to the
  // serial in-process reference (concurrent searches of the same key
  // are benign races — both sides publish the same winner).
  EXPECT_EQ(RunWave(), 0);
  ServerStats Mid = H.S->stats();
  EXPECT_EQ(Mid.Served, static_cast<uint64_t>(Threads * PerThread));
  EXPECT_EQ(Mid.ProtocolErrors, 0u);

  // Warm wave: the daemon now holds every winner; at least 90% of the
  // new requests must ride the winner-replay fast path (in practice all
  // of them do).
  EXPECT_EQ(RunWave(), 0);
  ServerStats End = H.S->stats();
  const uint64_t NewServed = End.Served - Mid.Served;
  const uint64_t NewWarm = End.WarmFastPath - Mid.WarmFastPath;
  ASSERT_GT(NewServed, 0u);
  EXPECT_GE(static_cast<double>(NewWarm) / static_cast<double>(NewServed),
            0.9)
      << NewWarm << " warm of " << NewServed;
  EXPECT_EQ(End.ProtocolErrors, 0u);
  EXPECT_EQ(End.Timeouts, 0u);
  H.S->stop();
}

//===----------------------------------------------------------------------===//
// Faults: stop mid-request, restart/rewarm, one disk open, timeouts,
// admission, fairness
//===----------------------------------------------------------------------===//

TEST(ServeFault, StopMidRequestIsFallbackEligible) {
  Harness H;
  H.Opts.Workers = 1;
  H.start(/*WithDisk=*/false);

  CompileJob Big = mmJob(256); // seconds of search, cancel has a window
  ClientStatus Got = ClientStatus::Ok;
  CompileResult R;
  std::string Err;
  std::thread Client(
      [&] { Got = compileViaDaemon(H.Dir.sock(), Big, R, Err); });

  // Let the request reach the worker, then yank the daemon.
  while (H.S->stats().Connections == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  H.S->stop();
  Client.join();

  if (Got == ClientStatus::Ok) {
    // The search won the race against stop() — legal, nothing to check.
    EXPECT_EQ(R.Code, 0);
    return;
  }
  // The driver contract: this failure class lets gpucc fall back
  // in-process; the fallback output equals the never-daemonized run.
  EXPECT_TRUE(fallbackEligible(Got)) << clientStatusName(Got);
  CompileJob Small = mmJob(16);
  CompileResult Fallback = localReference(Small);
  CompileResult Ref = localReference(Small);
  EXPECT_EQ(Fallback.Code, 0);
  EXPECT_EQ(Fallback.Out, Ref.Out);
}

TEST(ServeFault, RestartRewarmsFromDiskTier) {
  TempDir Dir;
  CompileJob J = mmJob(32);
  std::string ColdOut;

  {
    ServerOptions O;
    O.SocketPath = Dir.sock();
    O.CacheDir = Dir.cacheDir();
    Server A(O);
    std::string Err;
    ASSERT_TRUE(A.start(Err)) << Err;
    CompileResult R;
    ASSERT_EQ(compileViaDaemon(Dir.sock(), J, R, Err), ClientStatus::Ok);
    ASSERT_EQ(R.Code, 0);
    EXPECT_EQ(R.WarmFastPath, 0u); // genuinely cold
    ColdOut = R.Out;
    A.stop();
  }

  // New daemon, same cache dir: the first request must already be warm,
  // byte-identical, and the disk tier must be pristine (no quarantine
  // growth across the restart).
  {
    ServerOptions O;
    O.SocketPath = Dir.sock();
    O.CacheDir = Dir.cacheDir();
    Server B(O);
    std::string Err;
    ASSERT_TRUE(B.start(Err)) << Err;
    CompileResult R;
    ASSERT_EQ(compileViaDaemon(Dir.sock(), J, R, Err), ClientStatus::Ok);
    EXPECT_EQ(R.Code, 0);
    EXPECT_EQ(R.WarmFastPath, 1u);
    EXPECT_EQ(R.Out, ColdOut);
    ServerStats S = B.stats();
    EXPECT_EQ(S.Disk.Corrupt, 0u);
    EXPECT_EQ(S.Disk.Quarantined, 0u);
    B.stop();
  }
}

TEST(ServeFault, DiskCacheOpensExactlyOncePerDaemonLifetime) {
  const uint64_t Before = DiskCache::openCount();
  Harness H;
  H.start(/*WithDisk=*/true);
  std::string Err;
  CompileResult R;
  // Several requests over several connections: still one open.
  for (long long N : {16, 16, 32}) {
    ASSERT_EQ(compileViaDaemon(H.Dir.sock(), mmJob(N), R, Err),
              ClientStatus::Ok)
        << Err;
    EXPECT_EQ(R.Code, 0);
  }
  EXPECT_EQ(H.S->stats().DiskOpens, 1u);
  H.S->stop();
  EXPECT_EQ(DiskCache::openCount() - Before, 1u);
}

TEST(ServeFault, DeadlineCancelsSearchGracefully) {
  Harness H;
  H.Opts.Workers = 1;
  H.start(/*WithDisk=*/false);

  CompileJob Big = mmJob(256);
  Big.TimeoutMs = 50; // the search needs seconds
  CompileResult R;
  std::string Err;
  ClientStatus S = compileViaDaemon(H.Dir.sock(), Big, R, Err);
  EXPECT_EQ(S, ClientStatus::Timeout) << clientStatusName(S);
  EXPECT_FALSE(fallbackEligible(S)); // deadline failures are hard
  EXPECT_EQ(H.S->stats().Timeouts, 1u);

  // Graceful: the worker backed out and the daemon still serves.
  expectServerAlive(H.Dir.sock());
  H.S->stop();
}

TEST(ServeFault, FullAdmissionQueueAnswersBusy) {
  Harness H;
  H.Opts.Workers = 1;
  H.Opts.QueueMax = 1;
  H.start(/*WithDisk=*/false);

  auto Submit = [&](CompileJob J, ClientStatus *SOut) {
    CompileResult R;
    std::string Err;
    *SOut = compileViaDaemon(H.Dir.sock(), std::move(J), R, Err);
  };

  // J1 occupies the only worker...
  ClientStatus S1, S2, S3 = ClientStatus::Ok;
  std::thread T1(Submit, mmJob(192), &S1);
  auto DepthIs = [&](uint64_t D) { return H.S->stats().QueueDepth == D; };
  while (!(H.S->stats().QueuePeak >= 1 && DepthIs(0)))
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // ...J2 fills the one queue slot...
  std::thread T2(Submit, mmJob(224), &S2);
  while (!DepthIs(1))
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // ...so J3 must bounce immediately instead of building a backlog.
  Submit(mmJob(16), &S3);
  EXPECT_EQ(S3, ClientStatus::Busy) << clientStatusName(S3);
  EXPECT_TRUE(fallbackEligible(S3));
  EXPECT_EQ(H.S->stats().RejectedBusy, 1u);

  H.S->stop(); // don't wait out the big searches
  T1.join();
  T2.join();
}

TEST(ServeFair, QuickJobsAreNotStarvedBehindSearches) {
  Harness H;
  H.Opts.Workers = 1;
  H.Opts.QueueMax = 16;
  H.start(/*WithDisk=*/false);

  std::atomic<int> FinishSeq{0};
  const int Searches = 5;
  std::vector<int> SearchDone(Searches, 0);
  int QuickDone = 0;

  std::vector<std::thread> Ts;
  for (int I = 0; I < Searches; ++I) {
    Ts.emplace_back([&, I] {
      CompileResult R;
      std::string Err;
      compileViaDaemon(H.Dir.sock(), mmJob(32 + 16 * I), R, Err);
      SearchDone[I] = ++FinishSeq;
    });
    // Stagger so the first search is running before the convoy queues.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // A fixed-factor compile rides the Quick class.
  CompileJob Quick = mmJob(64);
  Quick.BlockN = 4;
  Quick.ThreadM = 2;
  std::thread QT([&] {
    CompileResult R;
    std::string Err;
    ClientStatus S = compileViaDaemon(H.Dir.sock(), Quick, R, Err);
    EXPECT_EQ(S, ClientStatus::Ok) << Err;
    EXPECT_EQ(R.Code, 0);
    QuickDone = ++FinishSeq;
  });
  QT.join();
  for (std::thread &T : Ts)
    T.join();

  // Round-robin dequeue: the quick job overtakes the queued searches —
  // it must not finish last behind the whole convoy.
  int LastSearch = 0;
  for (int D : SearchDone)
    LastSearch = std::max(LastSearch, D);
  EXPECT_LT(QuickDone, LastSearch)
      << "quick job was starved behind the search convoy";
  EXPECT_GE(H.S->stats().ServedQuick, 1u);
  H.S->stop();
}

TEST(ServeStats, JsonSnapshotCarriesTheContract) {
  Harness H;
  H.start(/*WithDisk=*/true);
  std::string Err;
  CompileResult R;
  ASSERT_EQ(compileViaDaemon(H.Dir.sock(), mmJob(16), R, Err),
            ClientStatus::Ok);
  ASSERT_EQ(compileViaDaemon(H.Dir.sock(), mmJob(16), R, Err),
            ClientStatus::Ok);
  EXPECT_EQ(R.WarmFastPath, 1u);

  std::string Json;
  ASSERT_EQ(fetchDaemonStats(H.Dir.sock(), Json, Err), ClientStatus::Ok)
      << Err;
  for (const char *Key :
       {"\"served\"", "\"warm_fast_path\"", "\"queue_depth\"",
        "\"queue_peak\"", "\"disk_opens\"", "\"mem_hit_rate\"",
        "\"disk_hit_rate\"", "\"max_crit_path_ms\"", "\"latency_ms\"",
        "\"p50\"", "\"p99\"", "\"rejected_busy\"", "\"timeouts\"",
        "\"protocol_errors\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
  // Balanced braces — cheap structural sanity for the CI artifact.
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
  ServerStats S = H.S->stats();
  EXPECT_EQ(S.Served, 2u);
  EXPECT_EQ(S.WarmFastPath, 1u);
  H.S->stop();
}

//===----------------------------------------------------------------------===//
// End-to-end: the real binaries
//===----------------------------------------------------------------------===//

#if defined(GPUCD_BIN) && defined(GPUCC_BIN)

pid_t spawnDaemon(const std::vector<std::string> &ExtraArgs) {
  std::vector<std::string> Args = {GPUCD_BIN};
  Args.insert(Args.end(), ExtraArgs.begin(), ExtraArgs.end());
  pid_t P = ::fork();
  if (P == 0) {
    std::vector<char *> Argv;
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(Argv[0], Argv.data());
    _exit(127);
  }
  return P;
}

bool waitForDaemon(const std::string &Sock, int BudgetMs = 10000) {
  for (int T = 0; T < BudgetMs; T += 50) {
    std::string Err;
    if (pingDaemon(Sock, Err) == ClientStatus::Ok)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

int runShell(const std::string &Cmd) {
  int RC = std::system(Cmd.c_str());
  return WIFEXITED(RC) ? WEXITSTATUS(RC) : -1;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

TEST(ServeEndToEnd, ColdAndWarmClientsShareOneDaemonCache) {
  TempDir Dir;
  const std::string Kernel = Dir.Path + "/mm.cu";
  writeFile(Kernel, naiveSource(Algo::MM, 64));

  pid_t D = spawnDaemon({"--socket=" + Dir.sock(),
                         "--cache-dir=" + Dir.cacheDir(), "--workers=2"});
  ASSERT_GT(D, 0);
  ASSERT_TRUE(waitForDaemon(Dir.sock()));

  const std::string Base = std::string(GPUCC_BIN) + " --connect=" +
                           Dir.sock() + " " + Kernel;
  ASSERT_EQ(runShell(Base + " > " + Dir.Path + "/cold.out 2> " + Dir.Path +
                     "/cold.err"),
            0);
  ASSERT_EQ(runShell(Base + " > " + Dir.Path + "/warm.out 2> " + Dir.Path +
                     "/warm.err"),
            0);
  EXPECT_EQ(slurp(Dir.Path + "/cold.out"), slurp(Dir.Path + "/warm.out"));
  EXPECT_NE(slurp(Dir.Path + "/cold.out").find("__global__"),
            std::string::npos);
  // Neither run fell back: stderr is clean of the fallback note.
  EXPECT_EQ(slurp(Dir.Path + "/cold.err").find("compiling in-process"),
            std::string::npos);
  EXPECT_EQ(slurp(Dir.Path + "/warm.err").find("compiling in-process"),
            std::string::npos);

  std::string Json, Err;
  ASSERT_EQ(fetchDaemonStats(Dir.sock(), Json, Err), ClientStatus::Ok);
  EXPECT_NE(Json.find("\"warm_fast_path\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"disk_opens\": 1"), std::string::npos) << Json;

  ASSERT_EQ(requestDaemonShutdown(Dir.sock(), Err), ClientStatus::Ok);
  int Status = 0;
  ASSERT_EQ(::waitpid(D, &Status, 0), D);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
}

TEST(ServeEndToEnd, SigkillMidRequestThenClientFallsBack) {
  TempDir Dir;
  pid_t D = spawnDaemon({"--socket=" + Dir.sock(), "--workers=1"});
  ASSERT_GT(D, 0);
  ASSERT_TRUE(waitForDaemon(Dir.sock()));

  // Park a long search on the daemon, then SIGKILL it mid-request.
  std::string Err;
  Fd C = connectUnix(Dir.sock(), Err);
  ASSERT_TRUE(C.valid()) << Err;
  ASSERT_TRUE(sendAll(C, compileFrame(mmJob(256))));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(::kill(D, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(D, &Status, 0), D);
  ASSERT_TRUE(WIFSIGNALED(Status) && WTERMSIG(Status) == SIGKILL);

  // The in-flight request surfaces as a dead connection, not a hang.
  MsgType T;
  std::string Payload;
  IoStatus S = recvFrame(C, T, Payload, /*TimeoutMs=*/10000);
  EXPECT_NE(S, IoStatus::Ok) << "response from a SIGKILLed daemon?";
  EXPECT_NE(S, IoStatus::Timeout) << "EOF should arrive immediately";

  // A fresh client against the dead socket falls back in-process with a
  // diagnostic and still compiles successfully.
  const std::string Kernel = Dir.Path + "/mm.cu";
  writeFile(Kernel, naiveSource(Algo::MM, 16));
  ASSERT_EQ(runShell(std::string(GPUCC_BIN) + " --connect=" + Dir.sock() +
                     " " + Kernel + " > " + Dir.Path + "/fb.out 2> " +
                     Dir.Path + "/fb.err"),
            0);
  EXPECT_NE(slurp(Dir.Path + "/fb.err").find("compiling in-process"),
            std::string::npos);
  EXPECT_NE(slurp(Dir.Path + "/fb.out").find("__global__"),
            std::string::npos);

  // --daemon (hard mode) must refuse instead of falling back.
  EXPECT_NE(runShell(std::string(GPUCC_BIN) + " --daemon=" + Dir.sock() +
                     " " + Kernel + " > /dev/null 2> " + Dir.Path +
                     "/hard.err"),
            0);
  EXPECT_NE(slurp(Dir.Path + "/hard.err").find("gpucc: error: daemon"),
            std::string::npos);
}

TEST(ServeEndToEnd, BatchRidesTheDaemonSharedCache) {
  TempDir Dir;
  std::vector<std::string> Files;
  for (long long N : {16, 32, 48}) {
    std::string F = Dir.Path + "/k" + std::to_string(N) + ".cu";
    writeFile(F, naiveSource(Algo::MM, N));
    Files.push_back(F);
  }
  std::string FileArgs;
  for (const std::string &F : Files)
    FileArgs += " " + F;

  pid_t D = spawnDaemon({"--socket=" + Dir.sock(),
                         "--cache-dir=" + Dir.cacheDir(), "--workers=2"});
  ASSERT_GT(D, 0);
  ASSERT_TRUE(waitForDaemon(Dir.sock()));

  // Daemon-side batch, twice (cold then warm), vs. a local reference
  // batch on a third cache dir: all three byte-identical.
  const std::string Via = std::string(GPUCC_BIN) + " --batch --connect=" +
                          Dir.sock() + FileArgs;
  ASSERT_EQ(runShell(Via + " > " + Dir.Path + "/b1.out 2>/dev/null"), 0);
  ASSERT_EQ(runShell(Via + " > " + Dir.Path + "/b2.out 2>/dev/null"), 0);
  ASSERT_EQ(runShell(std::string(GPUCC_BIN) + " --batch --cache-dir=" +
                     Dir.Path + "/localcache" + FileArgs + " > " +
                     Dir.Path + "/bl.out 2>/dev/null"),
            0);
  const std::string B1 = slurp(Dir.Path + "/b1.out");
  EXPECT_EQ(B1, slurp(Dir.Path + "/b2.out"));
  EXPECT_EQ(B1, slurp(Dir.Path + "/bl.out"));

  // The whole batch hit the daemon: one disk open, warm replays ≥ the
  // file count on the second pass.
  std::string Json, Err;
  ASSERT_EQ(fetchDaemonStats(Dir.sock(), Json, Err), ClientStatus::Ok);
  EXPECT_NE(Json.find("\"disk_opens\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"served\": 6"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"warm_fast_path\": 3"), std::string::npos) << Json;

  ASSERT_EQ(requestDaemonShutdown(Dir.sock(), Err), ClientStatus::Ok);
  int Status = 0;
  ASSERT_EQ(::waitpid(D, &Status, 0), D);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
}

/// The "jobs=N" token of a --search-stats report ("" when absent).
std::string searchJobsToken(const std::string &Err) {
  size_t At = Err.find("jobs=");
  if (At == std::string::npos)
    return "";
  return Err.substr(At, Err.find(' ', At) - At);
}

TEST(ServeEndToEnd, FallbackSearchesWithThePlainRunsLanes) {
  // --connect to a dead socket falls back in-process; its search must
  // use the same lanes (--jobs default: hardware concurrency) as a plain
  // run, not a serial search.
  TempDir Dir;
  const std::string Kernel = Dir.Path + "/mm.cu";
  writeFile(Kernel, naiveSource(Algo::MM, 32));
  const std::string Flags = " --no-disk-cache --search-stats " + Kernel;
  ASSERT_EQ(runShell(std::string(GPUCC_BIN) + Flags + " > /dev/null 2> " +
                     Dir.Path + "/plain.err"),
            0);
  ASSERT_EQ(runShell(std::string(GPUCC_BIN) + " --connect=" + Dir.sock() +
                     Flags + " > /dev/null 2> " + Dir.Path + "/fb.err"),
            0);
  const std::string Fallback = slurp(Dir.Path + "/fb.err");
  ASSERT_NE(Fallback.find("compiling in-process"), std::string::npos);
  const std::string Plain = searchJobsToken(slurp(Dir.Path + "/plain.err"));
  ASSERT_FALSE(Plain.empty());
  EXPECT_EQ(searchJobsToken(Fallback), Plain);
}

TEST(ServeEndToEnd, BatchBlocksMatchSingleFileRuns) {
  // gpucc's single-file runs and --batch lanes are one compile path: each
  // file's batch stdout/stderr block must be exactly what a single-file
  // run of it prints, sanitizer and lint output included.
  TempDir Dir;
  std::vector<std::string> Files;
  for (const auto &E : fs::directory_iterator(GPUC_EXAMPLE_KERNELS))
    if (E.path().extension() == ".cu")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  const std::string Gpucc =
      std::string(GPUCC_BIN) + " --no-disk-cache --sanitize --lint";
  std::string Args;
  for (const std::string &F : Files)
    Args += " " + F;
  runShell(Gpucc + " --batch" + Args + " > " + Dir.Path + "/b.out 2> " +
           Dir.Path + "/b.err");
  const std::string BatchOut = slurp(Dir.Path + "/b.out");
  const std::string BatchErr = slurp(Dir.Path + "/b.err");

  // A file's block runs from its header line to the next file's header
  // (stderr headers appear only for files with diagnostics).
  auto block = [&](const std::string &Text, const std::string &Open,
                   const std::string &Close, size_t I) {
    size_t At = Text.find(Open + Files[I] + Close);
    if (At == std::string::npos)
      return std::string();
    At += Open.size() + Files[I].size() + Close.size();
    size_t End = std::string::npos;
    for (size_t J = I + 1; J < Files.size() && End == std::string::npos; ++J)
      End = Text.find(Open + Files[J] + Close, At);
    return Text.substr(At, End == std::string::npos ? End : End - At);
  };
  for (size_t I = 0; I < Files.size(); ++I) {
    runShell(Gpucc + " " + Files[I] + " > " + Dir.Path + "/s.out 2> " +
             Dir.Path + "/s.err");
    EXPECT_EQ(block(BatchOut, "// ==== ", " ====\n", I),
              slurp(Dir.Path + "/s.out"))
        << Files[I];
    EXPECT_EQ(block(BatchErr, "== ", " ==\n", I), slurp(Dir.Path + "/s.err"))
        << Files[I];
  }
}

#endif // GPUCD_BIN && GPUCC_BIN

} // namespace
