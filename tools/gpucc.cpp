//===-- tools/gpucc.cpp - The gpuc command-line driver --------------------===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
// Source-to-source driver: reads a naive kernel, emits the optimized CUDA
// kernel and its launch configuration. The analysis report (--report)
// shows what the compiler saw: per-access coalescing verdicts, the
// data-sharing merge plan, the explored design space, and the traffic
// each access contributes on the simulated device.
//
//   gpucc kernel.cu                      # optimize for GTX 280
//   gpucc --device=gtx8800 kernel.cu     # hardware-specific tuning
//   gpucc --block=16 --thread=16 k.cu    # fixed merge factors, no search
//   gpucc --report --validate kernel.cu  # analysis + functional check
//   gpucc --cache-dir=DIR kernel.cu      # persistent compile/sim cache
//   gpucc --batch a.cu b.cu c.cu         # many kernels, shared cache
//
// With a cache directory (--cache-dir or $GPUC_CACHE_DIR), performance
// simulations and search winners persist across processes; a warm
// invocation emits byte-identical output to a cold one.
//
// Every in-process compile (a single-file run, a --batch lane or a
// --connect fallback) is one serve::runCompileJob call, the code the
// gpucd daemon runs; --validate and --time-report are post-steps over
// its in-process products.
//
//===----------------------------------------------------------------------===//

#include "cache/DiskCache.h"
#include "exec/ThreadPool.h"
#include "serve/Client.h"
#include "serve/Service.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

using namespace gpuc;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gpucc [options] <kernel.cu | ->\n"
      "       gpucc --batch [options] <kernel.cu>...\n"
      "  An input with several __global__ kernels and a\n"
      "  '#pragma gpuc pipeline(a -> b)' clause compiles as a pipeline:\n"
      "  kernel fusion is attempted, fused and unfused versions compete in\n"
      "  the search, and the winner program is emitted (--report shows the\n"
      "  legality verdict and the decision).\n"
      "  --device=gtx280|gtx8800|hd5870  target machine description\n"
      "  --opencl                  emit OpenCL C instead of CUDA\n"
      "  --block=N --thread=M      fixed merge factors (skips the search)\n"
      "  --no-vectorize --no-coalesce --no-merge --no-prefetch\n"
      "  --no-partition --no-fold  disable pipeline stages\n"
      "  --no-layout-search        apply the legacy partition-camping\n"
      "                            heuristic at every merge point instead\n"
      "                            of scoring the affine layout family at\n"
      "                            the two best identity merge points\n"
      "                            (--report shows the searched points\n"
      "                            and the winner)\n"
      "  --report                  print the analysis report to stderr\n"
      "  --validate                run naive and optimized kernels on the\n"
      "                            simulator and compare outputs\n"
      "  --sanitize                static shared-memory race detection after\n"
      "                            every pipeline stage; with --validate the\n"
      "                            simulator also race-checks dynamically\n"
      "  --lint                    warn about out-of-bounds accesses, bank\n"
      "                            conflicts and surviving non-coalesced\n"
      "                            accesses\n"
      "  --lint=strict             verdict mode: bounds lints come from the\n"
      "                            abstract-interpretation engine and every\n"
      "                            finding is qualified proven/possible;\n"
      "                            guarded accesses are checked, not\n"
      "                            skipped\n"
      "  --interp=scalar|vector    simulator engine: lane-vectorized\n"
      "                            bytecode (default) or the per-thread\n"
      "                            AST walk; results are bit-identical\n"
      "  --Werror                  treat warnings as errors\n"
      "  --print-naive             echo the parsed naive kernel first\n"
      "  --jobs=N                  lanes for the design-space search, and\n"
      "                            for --batch the concurrent compilations\n"
      "                            (default: hardware concurrency; 1 =\n"
      "                            serial; results are identical)\n"
      "  --no-prune                simulate every feasible variant instead\n"
      "                            of pruning by the lower-bound probe\n"
      "  --search-stats            print search counters (simulated vs.\n"
      "                            pruned, cache hits, wall-clock)\n"
      "  --time-report             print per-phase wall-clock timing and\n"
      "                            a per-variant table (single input only)\n"
      "  --batch                   compile every input file, sharing one\n"
      "                            cache; output and diagnostics are\n"
      "                            printed in input order\n"
      "  --cache-dir=DIR           persistent compile/sim cache directory\n"
      "                            (default: $GPUC_CACHE_DIR if set)\n"
      "  --no-disk-cache           ignore --cache-dir and $GPUC_CACHE_DIR\n"
      "  --cache-stats[=FILE]      print disk-cache traffic to stderr and\n"
      "                            optionally write it as JSON to FILE\n"
      "  --connect[=SOCK]          compile via a gpucd daemon (default\n"
      "                            socket: $GPUC_DAEMON_SOCKET), sharing\n"
      "                            its warm cache; when the daemon is\n"
      "                            unreachable, busy or shutting down,\n"
      "                            fall back to in-process compilation\n"
      "                            with a note. --validate/--time-report\n"
      "                            never ride the daemon and compile\n"
      "                            in-process directly\n"
      "  --daemon[=SOCK]           like --connect, but a missing daemon\n"
      "                            is an error instead of a fallback\n"
      "  --daemon-timeout-ms=N     per-request deadline on the daemon; at\n"
      "                            the deadline the search is cancelled\n"
      "                            and the request fails (no fallback)\n");
}

bool readInputFile(const std::string &Path, std::string &Out) {
  if (Path == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Out = SS.str();
    return true;
  }
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Fills the array parameters of a kernel chain with deterministic values
/// in [-0.5, 0.5). Arrays are bound by name across stages, so each unique
/// name is allocated and filled once (first occurrence wins; later stages
/// then see the producer's values, or the initial fill for true inputs).
void fillInputs(const std::vector<KernelFunction *> &Stages, BufferSet &B) {
  unsigned State = 99;
  for (const KernelFunction *K : Stages) {
    for (const ParamDecl &P : K->params()) {
      if (!P.IsArray || B.has(P.Name))
        continue;
      auto &V = B.alloc(P.Name, static_cast<size_t>(P.elemCount()) *
                                    P.ElemTy.vectorWidth());
      for (float &X : V) {
        State = State * 1664525u + 1013904223u;
        X = static_cast<float>(State >> 20) / 4096.0f - 0.5f;
      }
    }
  }
}

/// Everything main() parses from argv: the job every input is compiled
/// with, plus what only the driver acts on.
struct DriverOptions {
  serve::CompileJob Job;
  std::vector<std::string> Inputs;
  /// --jobs: search lanes for a single input, concurrent files for
  /// --batch. 0 until main() resolves it to the hardware concurrency.
  int Jobs = 0;
  bool Batch = false, Validate = false, TimeReportFlag = false;
  bool NoDiskCache = false;
  bool CacheStatsFlag = false;
  std::string CacheStatsFile;
  std::string CacheDir;

  /// Thin-client mode: Optional (--connect) falls back to in-process
  /// compilation when the daemon is unreachable, busy or shutting down;
  /// Required (--daemon) makes those hard errors instead.
  enum class DaemonUse { Off, Optional, Required };
  DaemonUse Daemon = DaemonUse::Off;
  std::string DaemonSocket;

  bool has(uint32_t Flag) const { return (Job.Flags & Flag) != 0; }
  void set(uint32_t Flag, bool On) {
    Job.Flags = On ? Job.Flags | Flag : Job.Flags & ~Flag;
  }
};

/// The in-process cache tiers: opened lazily, at most once per process,
/// and only when some input actually compiles in-process. A --connect
/// client whose every request the daemon serves never opens the disk
/// cache at all (the one-open-per-daemon regression test pins this).
struct LocalCache {
  std::once_flag Once;
  std::unique_ptr<DiskCache> Disk;
  SimCache Mem;

  void ensure(const DriverOptions &D) {
    std::call_once(Once, [&] {
      std::string Dir = D.CacheDir.empty() ? envOr("GPUC_CACHE_DIR", "")
                                           : D.CacheDir;
      if (!D.NoDiskCache && !Dir.empty()) {
        Disk = std::make_unique<DiskCache>(Dir);
        if (!Disk->valid()) {
          std::fprintf(stderr,
                       "gpucc: warning: cannot use cache directory "
                       "'%s'; continuing without a disk cache\n",
                       Dir.c_str());
          Disk.reset();
        }
      }
      Mem.setBackend(Disk.get());
    });
  }
};

/// Emits --cache-stats output: a human line on stderr and optional JSON.
void emitCacheStats(const DriverOptions &D, const LocalCache &Local) {
  if (!D.CacheStatsFlag && D.CacheStatsFile.empty())
    return;
  const SimCache &Mem = Local.Mem;
  DiskCacheStats S;
  std::string Dir = "(disabled)";
  if (Local.Disk) {
    S = Local.Disk->stats();
    Dir = Local.Disk->directory();
  }
  if (D.CacheStatsFlag)
    std::fprintf(stderr,
                 "disk cache %s: %llu sim hits, %llu sim misses, %llu text "
                 "hits, %llu text misses, %llu writes, %llu corrupt "
                 "(%llu quarantined), hit rate %.1f%%; memory tier: %llu "
                 "hits, %llu misses\n",
                 Dir.c_str(), (unsigned long long)S.SimHits,
                 (unsigned long long)S.SimMisses,
                 (unsigned long long)S.TextHits,
                 (unsigned long long)S.TextMisses,
                 (unsigned long long)S.Writes,
                 (unsigned long long)S.Corrupt,
                 (unsigned long long)S.Quarantined, 100.0 * S.hitRate(),
                 (unsigned long long)Mem.hits(),
                 (unsigned long long)Mem.misses());
  if (D.CacheStatsFile.empty())
    return;
  std::ofstream Out(D.CacheStatsFile, std::ios::trunc);
  Out << strFormat(
      "{\"dir\": \"%s\", \"schema_version\": %u, \"sim_hits\": %llu, "
      "\"sim_misses\": %llu, \"text_hits\": %llu, \"text_misses\": %llu, "
      "\"writes\": %llu, \"write_errors\": %llu, \"corrupt\": %llu, "
      "\"quarantined\": %llu, \"hit_rate\": %.6f, \"mem_hits\": %llu, "
      "\"mem_misses\": %llu}\n",
      Dir.c_str(), DiskCache::SchemaVersion, (unsigned long long)S.SimHits,
      (unsigned long long)S.SimMisses, (unsigned long long)S.TextHits,
      (unsigned long long)S.TextMisses, (unsigned long long)S.Writes,
      (unsigned long long)S.WriteErrors, (unsigned long long)S.Corrupt,
      (unsigned long long)S.Quarantined, S.hitRate(),
      (unsigned long long)Mem.hits(), (unsigned long long)Mem.misses());
}

/// The per-input step: reads \p Path and compiles it with D.Job, through
/// the daemon under --connect/--daemon and otherwise in-process. An
/// eligible daemon failure under --connect falls back in-process with a
/// note. Every in-process compile is serve::runCompileJob over the local
/// cache tiers with \p Jobs search lanes; \p Products (in-process only)
/// receives its kernels for the --validate/--time-report post-steps.
serve::CompileResult compileInput(const DriverOptions &D, LocalCache &Local,
                                  const std::string &Path, int Jobs,
                                  serve::LocalCompile *Products) {
  serve::CompileResult R;
  serve::CompileJob J = D.Job;
  if (D.Batch)
    J.Name = Path;
  if (!readInputFile(Path, J.Source)) {
    R.Code = 1;
    R.Err = strFormat("gpucc: error: cannot open '%s'\n", Path.c_str());
    return R;
  }
  std::string Note;
  if (D.Daemon != DriverOptions::DaemonUse::Off) {
    std::string Err;
    serve::ClientStatus S =
        serve::compileViaDaemon(D.DaemonSocket, J, R, Err);
    if (S == serve::ClientStatus::Ok)
      return R;
    R = serve::CompileResult();
    if (D.Daemon == DriverOptions::DaemonUse::Required ||
        !serve::fallbackEligible(S)) {
      R.Code = 1;
      R.Err = strFormat("gpucc: error: daemon %s: %s\n",
                        serve::clientStatusName(S), Err.c_str());
      return R;
    }
    Note = strFormat("gpucc: note: daemon %s (%s); compiling in-process\n",
                     serve::clientStatusName(S), Err.c_str());
  }
  Local.ensure(D);
  serve::ServiceContext Ctx;
  Ctx.Mem = &Local.Mem;
  Ctx.Disk = Local.Disk.get();
  Ctx.Jobs = Jobs;
  Ctx.Local = Products;
  R = serve::runCompileJob(J, Ctx);
  R.Err = Note + R.Err;
  return R;
}

/// --validate: runs the naive stages and the chosen kernels on the
/// simulator over identical inputs and compares the final stage's output
/// arrays. A single kernel is a one-stage pipeline. \returns the exit
/// code (2 on mismatches).
int validate(const DriverOptions &D, const serve::LocalCompile &L) {
  CompileOptions Opt;
  serve::optionsFromJob(D.Job, serve::ServiceContext(), Opt);
  Simulator Sim(Opt.Device);
  Sim.setInterpBackend(Opt.Interp);

  std::vector<const KernelFunction *> Naive(L.Stages.begin(),
                                            L.Stages.end());
  std::vector<const KernelFunction *> Chosen;
  if (L.Stages.size() == 1)
    Chosen.push_back(L.Out.Best);
  else if (L.Program.UseFused)
    Chosen.push_back(L.Program.FusedOut.Best);
  else
    for (const CompileOutput &C : L.Program.StageOuts)
      Chosen.push_back(C.Best);

  BufferSet RefBufs, OptBufs;
  fillInputs(L.Stages, RefBufs);
  fillInputs(L.Stages, OptBufs);
  const bool Races = D.has(serve::JF_Sanitize);
  DiagnosticsEngine RunDiags;
  RaceLog RefRaces, OptRaces;
  if (!Sim.runPipelineFunctional(Naive, RefBufs, RunDiags,
                                 Races ? &RefRaces : nullptr) ||
      !Sim.runPipelineFunctional(Chosen, OptBufs, RunDiags,
                                 Races ? &OptRaces : nullptr)) {
    std::fprintf(stderr, "validation run failed:\n%s",
                 RunDiags.str().c_str());
    return 1;
  }
  if (Races) {
    for (const RaceLog *Log : {&RefRaces, &OptRaces})
      for (const RaceRecord &R : Log->Races)
        std::fprintf(stderr,
                     "dynamic race: %s on '%s' word %lld, phase %d, "
                     "block %lld, threads %lld and %lld\n",
                     R.WriteWrite ? "write-write" : "write-read",
                     R.Array.c_str(), R.Word, R.Phase, R.Block, R.T1, R.T2);
    if (!RefRaces.clean() || !OptRaces.clean())
      return 1;
  }
  // The observable outputs are the final stage's output arrays;
  // intermediates are scratch (a fused program never writes them).
  long long Bad = 0;
  for (const ParamDecl &Param : L.Stages.back()->params()) {
    if (!Param.IsArray || !Param.IsOutput)
      continue;
    const auto &A = RefBufs.data(Param.Name);
    const auto &B = OptBufs.data(Param.Name);
    for (size_t I = 0; I < A.size(); ++I) {
      double Denom = std::max(1.0, static_cast<double>(std::fabs(A[I])));
      if (std::fabs(A[I] - B[I]) / Denom > 1e-3)
        ++Bad;
    }
  }
  std::fprintf(stderr, "validation: %lld mismatches\n", Bad);
  return Bad == 0 ? 0 : 2;
}

/// One input: the per-input step, its output, then the post-steps.
int compileSingleFile(const DriverOptions &D, LocalCache &Local) {
  TimeReport Times("gpucc --time-report");
  serve::LocalCompile Products;
  const bool Post = D.Validate || D.TimeReportFlag;
  WallTimer CompileTimer;
  serve::CompileResult R = compileInput(D, Local, D.Inputs.front(), D.Jobs,
                                        Post ? &Products : nullptr);
  Times.add("compile (parse, search, emit)", CompileTimer.elapsedMs());
  std::fputs(R.Out.c_str(), stdout);
  std::fputs(R.Err.c_str(), stderr);
  if (R.Code != 0 || !Post)
    return R.Code;

  if (D.TimeReportFlag && Products.Out.Variants.size() > 1) {
    // Per-variant detail in its own table: per-task times sum over lanes,
    // so they are not a partition of the driver wall-clock above. Rows
    // name the full design point, so layouts never merge.
    TimeReport VariantTimes("design-space variants (per-lane time)");
    for (const VariantResult &V : Products.Out.Variants) {
      std::string Tag = strFormat("b%d t%d %s", V.BlockMergeN,
                                  V.ThreadMergeM, V.Layout);
      VariantTimes.add(Tag + " compile", V.CompileWallMs);
      VariantTimes.add(Tag + " simulate", V.SimWallMs);
    }
    std::fprintf(stderr, "%s", VariantTimes.str().c_str());
  }
  int Code = 0;
  if (D.Validate) {
    WallTimer ValidateTimer;
    Code = validate(D, Products);
    Times.add("validate", ValidateTimer.elapsedMs());
  }
  if (D.TimeReportFlag)
    std::fprintf(stderr, "%s", Times.str().c_str());
  return Code;
}

/// Batch mode: the per-input step over the thread pool, one file per lane
/// with a serial search inside (nested parallelism would oversubscribe,
/// and results are identical anyway), all sharing the cache tiers (or the
/// daemon's). Kernels (stdout) and diagnostics (stderr) print strictly in
/// input order, so the streams are byte-identical for any lane count and
/// any cache temperature.
int compileBatch(const DriverOptions &D, LocalCache &Local) {
  std::vector<serve::CompileResult> Results(D.Inputs.size());
  ThreadPool Pool(static_cast<unsigned>(D.Jobs));
  Pool.parallelFor(D.Inputs.size(), [&](size_t I) {
    Results[I] = compileInput(D, Local, D.Inputs[I], /*Jobs=*/1, nullptr);
  });

  int Code = 0;
  for (size_t I = 0; I < D.Inputs.size(); ++I) {
    const serve::CompileResult &R = Results[I];
    std::printf("// ==== %s ====\n%s", D.Inputs[I].c_str(), R.Out.c_str());
    if (!R.Err.empty())
      std::fprintf(stderr, "== %s ==\n%s", D.Inputs[I].c_str(),
                   R.Err.c_str());
    if (R.Code != 0)
      Code = 1;
  }
  return Code;
}

} // namespace

int main(int argc, char **argv) {
  DriverOptions D;
  D.Job.Flags = serve::jobDefaultFlags();

  // Switches that map one-to-one onto a job flag bit.
  static const struct {
    const char *Name;
    uint32_t Bit;
    bool On;
  } BitSwitches[] = {
      {"--no-vectorize", serve::JF_Vectorize, false},
      {"--no-coalesce", serve::JF_Coalesce, false},
      {"--no-merge", serve::JF_Merge, false},
      {"--no-prefetch", serve::JF_Prefetch, false},
      {"--no-partition", serve::JF_PartitionElim, false},
      {"--no-layout-search", serve::JF_LayoutSearch, false},
      {"--no-fold", serve::JF_Fold, false},
      {"--no-prune", serve::JF_Exhaustive, true},
      {"--report", serve::JF_Report, true},
      {"--print-naive", serve::JF_PrintNaive, true},
      {"--sanitize", serve::JF_Sanitize, true},
      {"--lint", serve::JF_Lint, true},
      {"--Werror", serve::JF_Werror, true},
      {"--search-stats", serve::JF_SearchStats, true},
  };

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    DeviceSpec Dev;
    auto Switch = std::find_if(
        std::begin(BitSwitches), std::end(BitSwitches),
        [&](const auto &S) { return std::strcmp(Arg, S.Name) == 0; });
    if (Switch != std::end(BitSwitches))
      D.set(Switch->Bit, Switch->On);
    else if (std::strncmp(Arg, "--device=", 9) == 0 &&
             serve::deviceFromName(Arg + 9, Dev))
      D.Job.DeviceName = Arg + 9;
    else if (std::strcmp(Arg, "--opencl") == 0)
      D.Job.Dialect = 1;
    else if (std::strncmp(Arg, "--block=", 8) == 0)
      D.Job.BlockN = std::atoi(Arg + 8);
    else if (std::strncmp(Arg, "--thread=", 9) == 0)
      D.Job.ThreadM = std::atoi(Arg + 9);
    else if (std::strcmp(Arg, "--lint=strict") == 0)
      D.set(serve::JF_Lint | serve::JF_LintStrict, true);
    else if (std::strcmp(Arg, "--validate") == 0)
      D.Validate = true;
    else if (std::strncmp(Arg, "--jobs=", 7) == 0)
      D.Jobs = std::atoi(Arg + 7);
    else if (std::strcmp(Arg, "--jobs") == 0 && I + 1 < argc)
      D.Jobs = std::atoi(argv[++I]);
    else if (std::strncmp(Arg, "--interp=", 9) == 0) {
      if (std::strcmp(Arg + 9, "scalar") == 0)
        D.Job.Interp = 1;
      else if (std::strcmp(Arg + 9, "vector") == 0)
        D.Job.Interp = 0;
      else {
        std::fprintf(stderr, "gpucc: error: bad --interp value '%s'\n",
                     Arg + 9);
        return 1;
      }
    } else if (std::strcmp(Arg, "--time-report") == 0)
      D.TimeReportFlag = true;
    else if (std::strcmp(Arg, "--batch") == 0)
      D.Batch = true;
    else if (std::strncmp(Arg, "--cache-dir=", 12) == 0)
      D.CacheDir = Arg + 12;
    else if (std::strcmp(Arg, "--no-disk-cache") == 0)
      D.NoDiskCache = true;
    else if (std::strcmp(Arg, "--connect") == 0)
      D.Daemon = DriverOptions::DaemonUse::Optional;
    else if (std::strncmp(Arg, "--connect=", 10) == 0) {
      D.Daemon = DriverOptions::DaemonUse::Optional;
      D.DaemonSocket = Arg + 10;
    } else if (std::strcmp(Arg, "--daemon") == 0)
      D.Daemon = DriverOptions::DaemonUse::Required;
    else if (std::strncmp(Arg, "--daemon=", 9) == 0) {
      D.Daemon = DriverOptions::DaemonUse::Required;
      D.DaemonSocket = Arg + 9;
    } else if (std::strncmp(Arg, "--daemon-timeout-ms=", 20) == 0)
      D.Job.TimeoutMs = static_cast<unsigned>(std::atoi(Arg + 20));
    else if (std::strcmp(Arg, "--cache-stats") == 0)
      D.CacheStatsFlag = true;
    else if (std::strncmp(Arg, "--cache-stats=", 14) == 0) {
      D.CacheStatsFlag = true;
      D.CacheStatsFile = Arg + 14;
    } else if (std::strcmp(Arg, "--help") == 0) {
      usage();
      return 0;
    } else if (Arg[0] == '-' && std::strcmp(Arg, "-") != 0) {
      std::fprintf(stderr, "gpucc: error: unknown option '%s'\n", Arg);
      usage();
      return 1;
    } else {
      D.Inputs.push_back(Arg);
    }
  }
  if (D.Inputs.empty()) {
    usage();
    return 1;
  }
  if (!D.Batch && D.Inputs.size() > 1) {
    std::fprintf(stderr,
                 "gpucc: error: multiple inputs require --batch\n");
    return 1;
  }
  if (D.Batch && (D.has(serve::JF_Report) || D.Validate ||
                  D.TimeReportFlag || D.has(serve::JF_PrintNaive) ||
                  D.Job.BlockN > 0 || D.Job.ThreadM > 0)) {
    std::fprintf(stderr,
                 "gpucc: error: --report/--validate/--time-report/"
                 "--print-naive/--block/--thread are not supported with "
                 "--batch\n");
    return 1;
  }
  // Resolved once, so a --connect fallback searches with the same lanes
  // as a plain run.
  if (D.Jobs <= 0)
    D.Jobs = static_cast<int>(ThreadPool::defaultConcurrency());

  // Thin-client routing. --validate and --time-report are local-only
  // (the simulation runs and wall-clock timing happen in this process),
  // so they never ride the daemon: --connect quietly compiles
  // in-process, --daemon refuses.
  if (D.Daemon != DriverOptions::DaemonUse::Off) {
    if (D.DaemonSocket.empty())
      D.DaemonSocket = envOr("GPUC_DAEMON_SOCKET", "");
    if (D.DaemonSocket.empty()) {
      std::fprintf(stderr,
                   "gpucc: error: no daemon socket (--connect=SOCK, "
                   "--daemon=SOCK or $GPUC_DAEMON_SOCKET)\n");
      return 1;
    }
    if (D.Validate || D.TimeReportFlag) {
      if (D.Daemon == DriverOptions::DaemonUse::Required) {
        std::fprintf(stderr,
                     "gpucc: error: --validate/--time-report are not "
                     "supported via the daemon (drop --daemon or use "
                     "--connect)\n");
        return 1;
      }
      D.Daemon = DriverOptions::DaemonUse::Off;
    }
  }

  LocalCache Local;
  int Code = D.Batch ? compileBatch(D, Local) : compileSingleFile(D, Local);
  emitCacheStats(D, Local);
  return Code;
}
