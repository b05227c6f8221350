//===-- perfbench/harness/main.cpp - The repo benchmark's workloads -------===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// One workload per process (peak RSS is the workload's own), driven by
// perfbench/run.py:
//
//   gpuc-perfbench --workload W --seed N --seconds S --trace 0|1
//                  --state-dir DIR
//
// Untraced (--trace 0): set up several times (setup_s is the median), then a
// closed loop for S seconds through the entry points users hit —
// serve::runCompileJob in-process, or an in-process serve::Server over its
// Unix socket via serve::compileViaDaemon. Traced (--trace 1): a fixed
// amount of work, run both untraced and traced (the difference is the
// tracing overhead), with per-layer metrics from the spans in Trace.h and
// the library's own counters, and a Chrome trace-event file.
//
// Every response is checked after the timed loop (Jobs.h). The last line
// of stdout is one JSON object: correct, attempted, failed, metrics.
//
//===----------------------------------------------------------------------===//

#include "Jobs.h"
#include "Trace.h"

#include "analysis/BarrierCheck.h"
#include "analysis/Dataflow.h"
#include "parser/Parser.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace gpuc;
using namespace gpuc::perfbench;
using namespace gpuc::serve;
using Clock = std::chrono::steady_clock;

namespace {

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

double cpuMs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) {
    return T.tv_sec * 1000.0 + T.tv_usec / 1000.0;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Linear-interpolated percentile, or NaN unless at least ten samples lie
/// beyond it.
double percentile(std::vector<double> V, double P) {
  if (V.empty() || V.size() * (1 - P / 100) < 10)
    return NAN;
  std::sort(V.begin(), V.end());
  const double Pos = (V.size() - 1) * P / 100;
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - Lo);
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

/// Geometric mean (NaN when empty): the compile-time summary over jobs of
/// very different sizes, where a percentile would jump between jobs.
double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? NAN : std::exp(LogSum / V.size());
}

/// One finished request.
struct Outcome {
  Request Req;
  int Window = 0;
  ClientStatus Status = ClientStatus::Ok;
  CompileResult Result;
  double Ms = 0;
};

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> List;
  void set(const std::string &Name, double V, const char *Unit) {
    if (!std::isnan(V))
      List.push_back({Name, {V, Unit}});
  }
  bool has(const std::string &Name) const {
    return std::any_of(List.begin(), List.end(),
                       [&](const auto &E) { return E.first == Name; });
  }
};

/// The state a traced run accumulates.
struct TraceState {
  Tracer T;
  LayerCounters C;

  /// Times runDataflow / checkBarriers on every variant of \p K (the
  /// search calls both internally, out of the benchmark's reach).
  /// \returns the ms spent, which is not part of the request.
  double analyze(const RetainedVariants &K) {
    const auto Start = Clock::now();
    for (const CompileOutput &Out : K.Outputs)
      for (const VariantResult &V : Out.Variants) {
        if (!V.Kernel)
          continue;
        auto T0 = Clock::now();
        DataflowResult D = runDataflow(*V.Kernel);
        C.add("analysis.dataflow.ms", msSince(T0));
        C.add("analysis.dataflow.calls", 1);
        T0 = Clock::now();
        checkBarriers(D);
        C.add("analysis.barrier_check.ms", msSince(T0));
      }
    return msSince(Start);
  }
};

/// A stretch of consecutive requests (a pass, or a block of the mixed
/// stream). Timed metrics are medians over complete windows, so one
/// disturbed stretch of a run cannot move them.
struct Window {
  double StartMs = 0, StartCpuMs = 0;
  size_t Count = 0;
};

struct Loop {
  std::vector<Outcome> Outcomes;
  std::map<int, Window> Windows;
  double EndMs = 0, EndCpuMs = 0;
};

/// A closed loop of \p Clients callers: each sends its next request only
/// after the previous one returned. \p Next(Request &, int &Window) hands
/// out requests (serialized here) until it returns false.
template <typename NextFn, typename ExecFn>
Loop closedLoop(int Clients, NextFn Next, ExecFn Exec) {
  std::mutex Mu;
  Loop L;
  const auto T0 = Clock::now();
  auto Client = [&] {
    std::vector<Outcome> Mine;
    for (;;) {
      Outcome O;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        if (!Next(O.Req, O.Window))
          break;
        auto [It, New] = L.Windows.try_emplace(O.Window);
        if (New) {
          It->second.StartMs = msSince(T0);
          It->second.StartCpuMs = cpuMs();
        }
        ++It->second.Count;
      }
      const auto Start = Clock::now();
      O.Status = Exec(O.Req, O.Result);
      O.Ms = msSince(Start);
      Mine.push_back(std::move(O));
    }
    std::lock_guard<std::mutex> Lock(Mu);
    for (Outcome &O : Mine)
      L.Outcomes.push_back(std::move(O));
  };
  std::vector<std::thread> Threads;
  for (int I = 1; I < Clients; ++I)
    Threads.emplace_back(Client);
  Client();
  for (std::thread &T : Threads)
    T.join();
  L.EndMs = msSince(T0);
  L.EndCpuMs = cpuMs();
  return L;
}

/// Whole passes over \p Reqs (one caller, one window per pass) until
/// \p Seconds have elapsed and at least \p MinPasses passes ran.
template <typename ExecFn>
Loop passes(const std::vector<Request> &Reqs, double Seconds, int MinPasses,
            ExecFn Exec) {
  const auto T0 = Clock::now();
  size_t I = 0;
  int Done = 0;
  return closedLoop(
      1,
      [&](Request &R, int &Window) {
        if (I == Reqs.size()) {
          I = 0;
          ++Done;
        }
        if (I == 0 && Done >= MinPasses && msSince(T0) >= Seconds * 1000)
          return false;
        R = Reqs[I++];
        Window = Done;
        return true;
      },
      Exec);
}

/// requests_per_s, latency_geomean_ms and cpu_ms_per_request as medians
/// over the complete windows of \p L (those of \p WindowSize requests).
void windowMetrics(const Loop &L, size_t WindowSize, Metrics &M) {
  std::map<int, std::vector<double>> Lat;
  for (const Outcome &O : L.Outcomes)
    Lat[O.Window].push_back(O.Ms);
  std::vector<double> Rps, Geo, Cpu;
  for (auto It = L.Windows.begin(); It != L.Windows.end(); ++It) {
    const Window &W = It->second;
    if (W.Count != WindowSize)
      continue;
    auto Next = std::next(It);
    const double EndMs = Next == L.Windows.end() ? L.EndMs : Next->second.StartMs;
    const double EndCpuMs =
        Next == L.Windows.end() ? L.EndCpuMs : Next->second.StartCpuMs;
    Rps.push_back(ratio(W.Count, (EndMs - W.StartMs) / 1000));
    Cpu.push_back(ratio(EndCpuMs - W.StartCpuMs, W.Count));
    Geo.push_back(geomean(Lat[It->first]));
  }
  M.set("requests_per_s", Rps.empty() ? NAN : median(Rps), "1/s");
  M.set("latency_geomean_ms", Geo.empty() ? NAN : median(Geo), "ms");
  M.set("cpu_ms_per_request", Cpu.empty() ? NAN : median(Cpu), "ms");
  M.set("windows", static_cast<double>(Rps.size()), "count");
}

/// The traced run of a pass-based workload: one pass, each request run
/// untraced and traced back to back, alternating which goes first so that
/// warm-up favours neither; the two halves give the two throughputs.
template <typename PlainFn, typename TracedFn>
std::vector<Outcome> pairedPass(const std::vector<Request> &Reqs,
                                PlainFn Plain, TracedFn Traced,
                                double &UntracedRps, double &TracedRps) {
  // Traced(R, Out, ExcludedMs) reports time spent outside the request.
  std::vector<Outcome> All;
  double PlainMs = 0, TracedMs = 0;
  for (size_t I = 0; I < Reqs.size(); ++I)
    for (int K = 0; K < 2; ++K) {
      const bool IsTraced = (K == 0) == (I % 2 == 1);
      Outcome O;
      O.Req = Reqs[I];
      double ExcludedMs = 0;
      const auto T0 = Clock::now();
      O.Status = IsTraced ? Traced(O.Req, O.Result, ExcludedMs)
                          : Plain(O.Req, O.Result);
      O.Ms = msSince(T0) - ExcludedMs;
      (IsTraced ? TracedMs : PlainMs) += O.Ms;
      All.push_back(std::move(O));
    }
  UntracedRps = ratio(Reqs.size(), PlainMs / 1000);
  TracedRps = ratio(Reqs.size(), TracedMs / 1000);
  return All;
}

/// Workload interface: set up, a timed closed loop, a traced run.
class Workload {
public:
  virtual ~Workload() = default;
  /// Builds the workload's starting state from scratch (replacing any
  /// earlier one). Outcomes produced while priming go to \p Primed.
  virtual void setup(std::vector<Outcome> &Primed) = 0;
  /// A cheap set-up (building and parsing the requests, well under a
  /// millisecond) is timed many times in-process; an expensive one (priming
  /// a cache) a few times, in forked children (see main()).
  virtual bool cheapSetup() const { return false; }
  virtual Loop run(double Seconds) = 0;
  /// Requests per window of run().
  virtual size_t windowSize() const = 0;
  /// Fixed work, run both untraced and traced; \p UntracedRps and
  /// \p TracedRps receive the two throughputs.
  virtual std::vector<Outcome> traced(TraceState &TS, Metrics &M,
                                      double &UntracedRps,
                                      double &TracedRps) = 0;
  /// Releases what setup() built outside the process (servers, files).
  virtual void teardown() {}
  /// Extra end-to-end metrics of this workload.
  virtual void extraMetrics(const std::vector<Outcome> &, Metrics &) {}
};

/// Moves \p L's outcomes to the end of \p All.
void append(std::vector<Outcome> &All, Loop &L) {
  for (Outcome &O : L.Outcomes)
    All.push_back(std::move(O));
}

/// Inputs are checked before anything is timed.
void requireParses(const Request &R) {
  Module M;
  DiagnosticsEngine Diags;
  if (Parser(R.Job.Source, Diags).parseProgram(M).empty()) {
    std::fprintf(stderr, "perfbench: input %s does not parse:\n%s",
                 R.Job.Name.c_str(), Diags.str().c_str());
    std::exit(1);
  }
}

/// cold_serial / cold_parallel: passes of the 20 paper jobs, each with a
/// fresh SimCache, no disk tier, Jobs lanes. The pass order is fixed:
/// within one process the order of the jobs moves the small jobs' times
/// by up to 60%, so a seeded order would let the seed, not the code,
/// decide the result.
class ColdWorkload : public Workload {
public:
  explicit ColdWorkload(int Jobs) : Jobs(Jobs) {}

  void setup(std::vector<Outcome> &) override {
    Reqs.clear();
    for (int I = 0; I < static_cast<int>(paperKernels().size()); ++I) {
      Reqs.push_back(paperRequest(I, ReqClass::Paper));
      requireParses(Reqs.back());
    }
  }
  bool cheapSetup() const override { return true; }

  Loop run(double Seconds) override {
    return passes(Reqs, Seconds, 2, [&](const Request &R, CompileResult &Out) {
      return exec(R, Out);
    });
  }
  size_t windowSize() const override { return Reqs.size(); }

  std::vector<Outcome> traced(TraceState &TS, Metrics &, double &UntracedRps,
                              double &TracedRps) override {
    return pairedPass(
        Reqs, [&](const Request &R, CompileResult &Out) { return exec(R, Out); },
        [&](const Request &R, CompileResult &Out, double &ExcludedMs) {
          SimCache Mem;
          TracingBackend Shim(TS.T);
          Mem.setBackend(&Shim);
          ServiceContext Ctx;
          Ctx.Mem = &Mem;
          Ctx.Jobs = Jobs;
          RetainedVariants K;
          Out = tracedCompileJob(R.Job, Ctx, TS.T, TS.C, &K);
          TS.C.add("cache.mem.entries", static_cast<double>(Mem.size()));
          ExcludedMs = TS.analyze(K);
          return ClientStatus::Ok;
        },
        UntracedRps, TracedRps);
  }

private:
  ClientStatus exec(const Request &R, CompileResult &Out) {
    SimCache Mem;
    ServiceContext Ctx;
    Ctx.Mem = &Mem;
    Ctx.Jobs = Jobs;
    Out = runCompileJob(R.Job, Ctx);
    return ClientStatus::Ok;
  }

  int Jobs;
  std::vector<Request> Reqs;
};

/// lint_check: the ten gtx280 paper jobs with the sanitizer and strict
/// lint, one lane, against a SimCache primed in setup (fixed order, as in
/// ColdWorkload).
class LintWorkload : public Workload {
public:

  void setup(std::vector<Outcome> &) override {
    Mem = std::make_unique<SimCache>();
    Reqs.clear();
    for (int I = 0; I < static_cast<int>(paperKernels().size()); ++I) {
      if (std::strcmp(paperKernels()[I].Device, "gtx280") != 0)
        continue;
      ServiceContext Ctx;
      Ctx.Mem = Mem.get();
      runCompileJob(paperRequest(I, ReqClass::Paper).Job, Ctx);
      Reqs.push_back(paperRequest(I, ReqClass::Lint,
                                  JF_Sanitize | JF_Lint | JF_LintStrict));
    }
  }

  Loop run(double Seconds) override {
    return passes(Reqs, Seconds, 1, [&](const Request &R, CompileResult &Out) {
      return exec(R, Out);
    });
  }
  size_t windowSize() const override { return Reqs.size(); }

  std::vector<Outcome> traced(TraceState &TS, Metrics &, double &UntracedRps,
                              double &TracedRps) override {
    TracingBackend Shim(TS.T);
    std::vector<Outcome> All = pairedPass(
        Reqs, [&](const Request &R, CompileResult &Out) { return exec(R, Out); },
        [&](const Request &R, CompileResult &Out, double &ExcludedMs) {
          Mem->setBackend(&Shim);
          ServiceContext Ctx;
          Ctx.Mem = Mem.get();
          RetainedVariants K;
          Out = tracedCompileJob(R.Job, Ctx, TS.T, TS.C, &K);
          Mem->setBackend(nullptr);
          ExcludedMs = TS.analyze(K);
          return ClientStatus::Ok;
        },
        UntracedRps, TracedRps);
    TS.C.add("cache.mem.entries", static_cast<double>(Mem->size()));
    return All;
  }

private:
  ClientStatus exec(const Request &R, CompileResult &Out) {
    ServiceContext Ctx;
    Ctx.Mem = Mem.get();
    Out = runCompileJob(R.Job, Ctx);
    return ClientStatus::Ok;
  }

  std::unique_ptr<SimCache> Mem;
  std::vector<Request> Reqs;
};

uint64_t dirBytes(const std::string &Dir) {
  uint64_t Bytes = 0;
  std::error_code EC;
  for (auto It = std::filesystem::recursive_directory_iterator(Dir, EC);
       !EC && It != std::filesystem::recursive_directory_iterator();
       It.increment(EC))
    if (It->is_regular_file(EC))
      Bytes += It->file_size(EC);
  return Bytes;
}

/// daemon_mixed: an in-process serve::Server (two workers, one lane each,
/// disk tier in the state directory) primed by one cold pass over the 20
/// paper jobs; two closed-loop clients, one connection per request.
class DaemonWorkload : public Workload {
public:
  static constexpr int Clients = 2;
  /// Requests per phase of the traced run.
  static constexpr uint64_t PhaseRequests = 200;
  /// Requests per window of the timed run (ten blocks of the stream).
  static constexpr uint64_t WindowRequests = 100;

  DaemonWorkload(uint64_t Seed, std::string StateDir)
      : Seed(Seed), StateDir(std::move(StateDir)) {}
  ~DaemonWorkload() override { teardown(); }

  void setup(std::vector<Outcome> &Primed) override {
    teardown();
    Dir = strFormat("%s/run/%d", StateDir.c_str(),
                    static_cast<int>(::getpid()));
    std::filesystem::create_directories(Dir);
    ServerOptions Opts;
    Opts.SocketPath = Dir + "/d.sock";
    Opts.CacheDir = Dir + "/cache";
    Opts.Workers = 2;
    Opts.InnerJobs = 1;
    Srv = std::make_unique<Server>(Opts);
    std::string Err;
    if (!Srv->start(Err)) {
      std::fprintf(stderr, "perfbench: cannot start the daemon: %s\n",
                   Err.c_str());
      std::exit(1);
    }
    int NextJob = 0;
    const int NumPaper = static_cast<int>(paperKernels().size());
    Primed = closedLoop(
                 Clients,
                 [&](Request &R, int &) {
                   int I = NextJob++;
                   if (I >= NumPaper)
                     return false;
                   R = paperRequest(I, ReqClass::Paper);
                   return true;
                 },
                 [&](const Request &R, CompileResult &Out) {
                   return send(R, Out);
                 })
                 .Outcomes;
    Stream = std::make_unique<MixedStream>(Seed);
  }

  Loop run(double Seconds) override {
    const auto T0 = Clock::now();
    return closedLoop(
        Clients,
        [&](Request &R, int &Window) {
          if (msSince(T0) >= Seconds * 1000)
            return false;
          uint64_t Index;
          R = Stream->next(Index);
          Window = static_cast<int>(Index / WindowRequests);
          return true;
        },
        [&](const Request &R, CompileResult &Out) { return send(R, Out); });
  }
  size_t windowSize() const override { return WindowRequests; }

  /// Phase A: the stream through the daemon, untraced, bracketed by
  /// Server::stats() snapshots (the serve layer); the warm RTT comes from
  /// its replays, and the protocol codecs are timed afterwards on its own
  /// jobs and results. The daemon's internals are not observable from
  /// outside, so every other layer comes from phase C: the next requests
  /// of the stream run in-process, each untraced by runCompileJob and
  /// traced by tracedCompileJob (pairedPass), against two copies of the
  /// daemon's cache directory taken after phase A, each behind its own
  /// empty SimCache. The two halves of phase C give the tracing overhead.
  std::vector<Outcome> traced(TraceState &TS, Metrics &M, double &UntracedRps,
                              double &TracedRps) override {
    const ServerStats S0 = Srv->stats();
    uint64_t Sent = 0;
    Loop A = closedLoop(
        Clients,
        [&](Request &R, int &) {
          if (Sent++ >= PhaseRequests)
            return false;
          uint64_t Index;
          R = Stream->next(Index);
          return true;
        },
        [&](const Request &R, CompileResult &Out) { return send(R, Out); });
    const ServerStats S1 = Srv->stats();
    uint64_t EncodeNs = 0, DecodeNs = 0;
    std::vector<double> WarmRtt;
    for (const Outcome &O : A.Outcomes) {
      timeCodecs(O.Req.Job, O.Result, EncodeNs, DecodeNs);
      if (O.Req.Class == ReqClass::Replay)
        WarmRtt.push_back(O.Ms);
    }

    std::vector<Request> Reqs(PhaseRequests);
    for (Request &R : Reqs) {
      uint64_t Index;
      R = Stream->next(Index);
    }
    const std::string PlainDir = copyCache("untraced");
    const std::string TracedDir = copyCache("traced");
    DiskCache PlainDisk(PlainDir);
    TracingDiskCache Disk(TracedDir, TS.T);
    SimCache PlainMem, Mem;
    PlainMem.setBackend(&PlainDisk);
    Mem.setBackend(&Disk);
    std::vector<Outcome> C = pairedPass(
        Reqs,
        [&](const Request &R, CompileResult &Out) {
          ServiceContext Ctx;
          Ctx.Mem = &PlainMem;
          Ctx.Disk = &PlainDisk;
          Out = runCompileJob(R.Job, Ctx);
          return ClientStatus::Ok;
        },
        [&](const Request &R, CompileResult &Out, double &ExcludedMs) {
          ServiceContext Ctx;
          Ctx.Mem = &Mem;
          Ctx.Disk = &Disk;
          RetainedVariants K;
          Out = tracedCompileJob(R.Job, Ctx, TS.T, TS.C, &K);
          ExcludedMs = TS.analyze(K);
          return ClientStatus::Ok;
        },
        UntracedRps, TracedRps);
    const DiskCacheStats D = Disk.stats();
    PlainMem.setBackend(nullptr);
    Mem.setBackend(nullptr);

    // The server's latency percentiles and queue peak have no window: they
    // span the daemon's whole life, the 20 priming compiles included.
    const double Served = static_cast<double>(S1.Served - S0.Served);
    M.set("serve.server_latency_p50_ms", S1.LatencyP50Ms, "ms");
    M.set("serve.server_latency_p90_ms", S1.LatencyP90Ms, "ms");
    M.set("serve.protocol.encode_us",
          ratio(EncodeNs / 1000.0, A.Outcomes.size()), "us");
    M.set("serve.protocol.decode_us",
          ratio(DecodeNs / 1000.0, A.Outcomes.size()), "us");
    M.set("serve.fast_path_ratio",
          ratio(static_cast<double>(S1.WarmFastPath - S0.WarmFastPath),
                Served),
          "ratio");
    M.set("serve.queue_peak", static_cast<double>(S1.QueuePeak), "count");
    M.set("serve.served_search",
          static_cast<double>(S1.ServedSearch - S0.ServedSearch), "count");
    M.set("serve.served_quick",
          static_cast<double>(S1.ServedQuick - S0.ServedQuick), "count");
    M.set("serve.rejected_busy",
          static_cast<double>(S1.RejectedBusy - S0.RejectedBusy), "count");
    M.set("serve.timeouts", static_cast<double>(S1.Timeouts - S0.Timeouts),
          "count");
    M.set("serve.protocol_errors",
          static_cast<double>(S1.ProtocolErrors - S0.ProtocolErrors), "count");
    M.set("serve.warm_rtt_p50_ms", percentile(WarmRtt, 50), "ms");
    M.set("serve.warm_rtt_p90_ms", percentile(WarmRtt, 90), "ms");

    TS.C.add("cache.mem.entries", static_cast<double>(Mem.size()));
    TS.C.add("cache.disk.sim_hits", double(D.SimHits));
    TS.C.add("cache.disk.sim_misses", double(D.SimMisses));
    TS.C.add("cache.disk.text_hits", double(D.TextHits));
    TS.C.add("cache.disk.text_misses", double(D.TextMisses));
    TS.C.add("cache.disk.writes", double(D.Writes));
    TS.C.add("cache.disk.write_errors", double(D.WriteErrors));
    TS.C.add("cache.disk.quarantined", double(D.Quarantined));
    TS.C.add("cache.disk.bytes", double(dirBytes(TracedDir)));

    std::vector<Outcome> All;
    append(All, A);
    for (Outcome &O : C)
      All.push_back(std::move(O));
    return All;
  }

  void extraMetrics(const std::vector<Outcome> &Out, Metrics &M) override {
    std::vector<double> Warm;
    for (const Outcome &O : Out)
      if (O.Req.Class == ReqClass::Replay)
        Warm.push_back(O.Ms);
    M.set("warm_rtt_p50_ms", percentile(Warm, 50), "ms");
    M.set("warm_rtt_p90_ms", percentile(Warm, 90), "ms");
    M.set("warm_rtt_p99_ms", percentile(Warm, 99), "ms");
  }

private:
  ClientStatus send(const Request &R, CompileResult &Out) {
    std::string Err;
    ClientStatus St = compileViaDaemon(Srv->socketPath(), R.Job, Out, Err);
    if (St != ClientStatus::Ok)
      Out.Err = Err;
    return St;
  }

  /// Copies the daemon's cache directory to a sibling named \p Name.
  std::string copyCache(const char *Name) {
    const std::string To = strFormat("%s/cache-%s", Dir.c_str(), Name);
    std::error_code EC;
    std::filesystem::copy(Dir + "/cache", To,
                          std::filesystem::copy_options::recursive, EC);
    if (EC) {
      std::fprintf(stderr, "perfbench: cannot copy the daemon's cache: %s\n",
                   EC.message().c_str());
      std::exit(1);
    }
    return To;
  }

  static void timeCodecs(const CompileJob &J, const CompileResult &R,
                         uint64_t &EncodeNs, uint64_t &DecodeNs) {
    auto Ns = [](Clock::time_point T0) {
      return static_cast<uint64_t>(
          std::chrono::duration<double, std::nano>(Clock::now() - T0)
              .count());
    };
    auto T0 = Clock::now();
    ByteWriter JW, RW;
    encodeCompileJob(JW, J);
    encodeCompileResult(RW, R);
    std::string Frames = encodeFrame(MsgType::CompileReq, JW.buffer()) +
                         encodeFrame(MsgType::ResultResp, RW.buffer());
    EncodeNs += Ns(T0);
    T0 = Clock::now();
    FrameHeader H;
    decodeFrameHeader(Frames.data(), Frames.size(), H);
    ByteReader JR(JW.buffer()), RR(RW.buffer());
    CompileJob JOut;
    CompileResult ROut;
    decodeCompileJob(JR, JOut);
    decodeCompileResult(RR, ROut);
    DecodeNs += Ns(T0);
  }

  void teardown() override {
    if (Srv)
      Srv->stop();
    Srv.reset();
    if (!Dir.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
      Dir.clear();
    }
  }

  uint64_t Seed;
  std::string StateDir;
  std::string Dir;
  std::unique_ptr<Server> Srv;
  std::unique_ptr<MixedStream> Stream;
};

void layerMetrics(TraceState &TS, Metrics &M) {
  std::vector<Span> Spans = TS.T.spans();
  std::map<std::string, double> Ms, Count;
  spanTotals(Spans, Ms, Count);
  std::map<std::string, double> Self = spanSelfMs(Spans);
  auto C = [&](const std::string &Name) { return TS.C.get(Name); };

  M.set("parser.calls", C("parser.calls"), "count");
  M.set("parser.ms", Ms["parser.parseProgram"], "ms");
  M.set("ast.cache_key.ms", Ms["ast.cache_key"], "ms");
  M.set("ast.print.ms", Ms["ast.print"], "ms");
  M.set("core.variants", Count["core.stage.input"], "count");
  for (const char *Stage : {"vectorize", "coalesce", "merge",
                            "partition-camping", "prefetch", "final"})
    M.set(strFormat("core.stage.%s.ms", Stage),
          Ms[strFormat("core.stage.%s", Stage)], "ms");
  for (const char *Name :
       {"candidates", "probed", "simulated", "pruned", "statically_pruned",
        "infeasible"})
    M.set(strFormat("core.search.%s", Name),
          C(strFormat("core.search.%s", Name)), "count");
  M.set("core.search.probe_useful_ratio",
        ratio(C("core.search.pruned"), C("core.search.probed")), "ratio");
  M.set("core.search.wall_ms", C("core.search.wall_ms"), "ms");
  M.set("core.search.crit_path_ms", C("core.search.crit_path_ms"), "ms");
  M.set("core.search.self_ms", Self["core.search"], "ms");
  for (const char *Name : {"core.layout.points", "core.layout.wins",
                           "core.fusion.candidates", "core.fusion.legal",
                           "core.fusion.wins"})
    M.set(Name, C(Name), "count");

  M.set("analysis.dataflow.calls", C("analysis.dataflow.calls"), "count");
  M.set("analysis.dataflow.ms", C("analysis.dataflow.ms"), "ms");
  M.set("analysis.barrier_check.ms", C("analysis.barrier_check.ms"), "ms");
  M.set("analysis.static_prune_ratio",
        ratio(C("core.search.statically_pruned"), C("core.search.candidates")),
        "ratio");
  M.set("analysis.sanitize.ms", Ms["analysis.sanitize"], "ms");
  M.set("analysis.sanitize.kernels_checked",
        C("analysis.sanitize.kernels_checked"), "count");
  M.set("analysis.sanitize.races", C("analysis.sanitize.races"), "count");
  M.set("analysis.sanitize.lint_warnings",
        C("analysis.sanitize.lint_warnings"), "count");

  M.set("sim.runs.probe", C("sim.runs.probe"), "count");
  M.set("sim.runs.full", C("sim.runs.full"), "count");
  M.set("sim.ms", Ms["sim.run"], "ms");
  M.set("sim.ms_per_run", ratio(Ms["sim.run"], Count["sim.run"]), "ms");
  M.set("sim.scalar_fallbacks", C("sim.scalar_fallbacks"), "count");

  const double Hits = C("cache.mem.hits"), Misses = C("cache.mem.misses");
  M.set("cache.mem.hits", Hits, "count");
  M.set("cache.mem.misses", Misses, "count");
  M.set("cache.mem.hit_ratio", ratio(Hits, Hits + Misses), "ratio");
  M.set("cache.mem.entries", C("cache.mem.entries"), "count");
  for (const char *Name :
       {"cache.disk.sim_hits", "cache.disk.sim_misses", "cache.disk.text_hits",
        "cache.disk.text_misses", "cache.disk.writes",
        "cache.disk.write_errors", "cache.disk.quarantined"})
    M.set(Name, C(Name), "count");
  M.set("cache.disk.bytes", C("cache.disk.bytes"), "bytes");
  M.set("cache.disk.load.ms",
        Ms["cache.disk.load"] + Ms["cache.disk.load_text"], "ms");
  M.set("cache.disk.store.ms", Ms["cache.disk.store"], "ms");

  M.set("exec.lanes", C("exec.lanes"), "count");
  M.set("exec.busy_ms", C("exec.busy_ms"), "ms");
  M.set("exec.utilization", ratio(C("exec.busy_ms"), C("exec.lane_wall_ms")),
        "ratio");
  M.set("exec.crit_path_share",
        ratio(C("core.search.crit_path_ms"), C("core.search.wall_ms")),
        "ratio");

  auto [Uncovered, Wall] = unattributedMs(Spans);
  M.set("trace.unattributed_frac", ratio(Uncovered, Wall), "ratio");
}

/// Times one W.setup() in a forked child (the caller is single-threaded
/// here). \returns seconds, or -1 when the child failed.
double setupInChild(Workload &W) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return -1;
  std::fflush(nullptr);
  const pid_t Pid = fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    close(Fd[0]);
    std::vector<Outcome> Primed;
    const auto T0 = Clock::now();
    W.setup(Primed);
    const double S = msSince(T0) / 1000;
    W.teardown();
    const bool Ok = write(Fd[1], &S, sizeof S) == sizeof S;
    _exit(Ok ? 0 : 1);
  }
  close(Fd[1]);
  double S = -1;
  if (read(Fd[0], &S, sizeof S) != sizeof S)
    S = -1;
  close(Fd[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0 ? S : -1;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string StateDir = ".bench_build/perfbench-state";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::stoull(V);
    else if (K == "--seconds")
      A.Seconds = std::stod(V);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--state-dir")
      A.StateDir = V;
    else
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty();
}

std::unique_ptr<Workload> makeWorkload(const Args &A) {
  if (A.Workload == "cold_serial")
    return std::make_unique<ColdWorkload>(1);
  if (A.Workload == "cold_parallel")
    return std::make_unique<ColdWorkload>(
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  if (A.Workload == "daemon_mixed")
    return std::make_unique<DaemonWorkload>(A.Seed, A.StateDir);
  if (A.Workload == "lint_check")
    return std::make_unique<LintWorkload>();
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: gpuc-perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--state-dir DIR]\n");
    return 2;
  }
  std::unique_ptr<Workload> W = makeWorkload(A);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(A.StateDir);

  // Set up several times from scratch; setup_s is the median. A cheap
  // set-up runs 200 times in-process, each after a 5 ms pause: it then
  // starts as a one-off set-up does, on caches others have used, and the
  // samples span a second rather than a burst whose speed depends on what
  // else the host runs at that moment (back to back, the medians of
  // separate runs fell into two clusters 1.6x apart). An expensive set-up
  // runs twice in a child process, so that neither its memory nor its
  // leftovers reach the measured process, then once for real.
  const int Setups = W->cheapSetup() ? 200 : 3;
  std::vector<double> SetupS;
  std::vector<Outcome> Primed;
  for (int I = 0; I + 1 < Setups; ++I) {
    double S;
    if (W->cheapSetup()) {
      usleep(5000);
      const auto T0 = Clock::now();
      W->setup(Primed);
      S = msSince(T0) / 1000;
    } else if ((S = setupInChild(*W)) < 0) {
      std::fprintf(stderr, "perfbench: set-up failed in a child process\n");
      return 1;
    }
    SetupS.push_back(S);
  }
  Primed.clear();
  if (W->cheapSetup())
    usleep(5000);
  const auto SetupT0 = Clock::now();
  W->setup(Primed);
  SetupS.push_back(msSince(SetupT0) / 1000);
  std::fprintf(stderr, "perfbench: %d set-ups, median %.6g s (%.6g to %.6g)\n",
               Setups, median(SetupS),
               *std::min_element(SetupS.begin(), SetupS.end()),
               *std::max_element(SetupS.begin(), SetupS.end()));

  Metrics M;
  std::vector<Outcome> Outcomes;
  std::unique_ptr<TraceState> TS;
  if (A.Trace) {
    TS = std::make_unique<TraceState>();
    double UntracedRps = 0, TracedRps = 0;
    Outcomes = W->traced(*TS, M, UntracedRps, TracedRps);
    // Workloads without a socket leave the serve layer idle.
    static const std::pair<const char *, const char *> ServeMetrics[] = {
        {"serve.server_latency_p50_ms", "ms"},
        {"serve.server_latency_p90_ms", "ms"},
        {"serve.protocol.encode_us", "us"},
        {"serve.protocol.decode_us", "us"},
        {"serve.fast_path_ratio", "ratio"},
        {"serve.queue_peak", "count"},
        {"serve.served_search", "count"},
        {"serve.served_quick", "count"},
        {"serve.rejected_busy", "count"},
        {"serve.timeouts", "count"},
        {"serve.protocol_errors", "count"},
        {"serve.warm_rtt_p50_ms", "ms"},
        {"serve.warm_rtt_p90_ms", "ms"}};
    for (const auto &[Name, Unit] : ServeMetrics)
      if (!M.has(Name))
        M.set(Name, 0, Unit);
    layerMetrics(*TS, M);
    M.set("trace.overhead_frac", 1 - ratio(TracedRps, UntracedRps), "ratio");
    const std::string TracePath =
        strFormat("%s/traces/%s-seed%llu.json", A.StateDir.c_str(),
                  A.Workload.c_str(), static_cast<unsigned long long>(A.Seed));
    std::filesystem::create_directories(A.StateDir + "/traces");
    if (TS->T.writeChromeJson(TracePath))
      std::printf("trace: %s\n", TracePath.c_str());
  } else {
    Loop L = W->run(A.Seconds);
    M.set("peak_rss_mb", peakRssMb(), "MB");
    M.set("setup_s", median(SetupS), "s");
    windowMetrics(L, W->windowSize(), M);
    append(Outcomes, L);
  }

  // Output checks, outside the timed loop.
  Verifier V(A.StateDir, Argv[0]);
  uint64_t Failed = 0, Wrong = 0, Errored = 0;
  // Winner checks: a paper job's winner is the same whatever flags its
  // requests carried, so it is checked once, on its plain compile.
  std::map<int, Reference> PaperRefs;
  auto WinnerRef = [&](const Request &R) {
    if (R.Paper < 0)
      return V.reference(R);
    auto It = PaperRefs.find(R.Paper);
    if (It == PaperRefs.end())
      It = PaperRefs
               .emplace(R.Paper,
                        V.reference(paperRequest(R.Paper, ReqClass::Paper)))
               .first;
    return It->second;
  };
  std::vector<const Outcome *> All;
  for (const Outcome &O : Primed)
    All.push_back(&O);
  for (const Outcome &O : Outcomes)
    All.push_back(&O);
  for (const Outcome *O : All) {
    std::string Why;
    const bool Error = O->Status != ClientStatus::Ok || O->Result.Code != 0;
    bool Bad = O->Status == ClientStatus::Ok &&
               !V.matches(O->Req, O->Result, Why);
    if (!Bad) {
      const Reference Ref = WinnerRef(O->Req);
      Bad = !Ref.Functional;
      Why = "winner check: " + Ref.Why;
    }
    if (Error && !Bad && Errored++ < 3)
      std::fprintf(stderr, "perfbench: %s: %s, exit %d: %s\n",
                   O->Req.Job.Name.c_str(), clientStatusName(O->Status),
                   O->Result.Code, O->Result.Err.substr(0, 300).c_str());
    if (Bad && Wrong++ < 10)
      std::fprintf(stderr, "perfbench: WRONG OUTPUT %s [%s]: %s\n",
                   O->Req.Job.Name.c_str(), reqClassName(O->Req.Class),
                   Why.c_str());
    if (Error || Bad)
      ++Failed;
  }
  std::vector<double> Winners;
  for (const auto &[Paper, Ref] : PaperRefs)
    Winners.push_back(Ref.WinnerMs);
  const uint64_t Attempted = All.size();

  const double WinnerGeomean = geomean(Winners);

  if (A.Trace) {
    M.set("core.winner_sim_ms_geomean", WinnerGeomean, "ms");
  } else {
    std::vector<double> Lat;
    for (const Outcome &O : Outcomes)
      Lat.push_back(O.Ms);
    M.set("latency_p50_ms", percentile(Lat, 50), "ms");
    M.set("latency_p90_ms", percentile(Lat, 90), "ms");
    M.set("latency_p99_ms", percentile(Lat, 99), "ms");
    M.set("failed_frac", ratio(Failed, Attempted), "ratio");
    M.set("winner_sim_ms_geomean", WinnerGeomean, "ms");
    M.set("samples", static_cast<double>(Outcomes.size()), "count");
    W->extraMetrics(Outcomes, M);
  }

  std::string Json = strFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      Wrong ? "false" : "true", static_cast<unsigned long long>(Attempted),
      static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < M.List.size(); ++I) {
    const auto &[Name, VU] = M.List[I];
    std::printf("%-36s %14.6g %s\n", Name.c_str(), VU.first,
                VU.second.c_str());
    Json += strFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      I ? ", " : "", Name.c_str(), VU.first,
                      VU.second.c_str());
  }
  std::printf("%s}}\n", Json.c_str());
  return Wrong ? 1 : 0;
}
