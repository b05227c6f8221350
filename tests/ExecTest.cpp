//===-- tests/ExecTest.cpp - thread pool and parallel search --------------===//
//
// The exec thread pool must run every task exactly once, surface
// exceptions deterministically and support nested parallel-for. On top of
// it, the design-space search must be invariant to the lane count: Jobs=1
// and Jobs=8 select the same best variant, produce identically ordered
// variant lists and emit identical CUDA for every Table 1 kernel. Pruning
// must never change the winner relative to the exhaustive search, and the
// SimCache must hit on structurally identical recompilations (the Figure
// 12 staged prefixes).
//
//===----------------------------------------------------------------------===//

#include "analysis/Sanitizer.h"
#include "ast/Hash.h"
#include "ast/Printer.h"
#include "baselines/NaiveKernels.h"
#include "cache/DiskCache.h"
#include "core/Compiler.h"
#include "exec/ThreadPool.h"
#include "parser/Parser.h"
#include "sim/SimCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <tuple>

using namespace gpuc;

namespace {

long long testSize(Algo A) {
  switch (A) {
  case Algo::RD:
  case Algo::CRD:
  case Algo::VV:
    return 4096;
  case Algo::CONV:
  case Algo::STRSM:
    return 64;
  default:
    return 128;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(8);
  EXPECT_EQ(Pool.concurrency(), 8u);
  constexpr size_t N = 2000;
  std::vector<std::atomic<int>> Seen(N);
  Pool.parallelFor(N, [&](size_t I) { Seen[I].fetch_add(1); });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Seen[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, SerialPoolRunsInlineInOrder) {
  ThreadPool Pool(1);
  std::vector<size_t> Order;
  Pool.parallelFor(10, [&](size_t I) { Order.push_back(I); });
  std::vector<size_t> Want(10);
  std::iota(Want.begin(), Want.end(), 0);
  EXPECT_EQ(Order, Want);
}

TEST(ThreadPool, LowestThrowingIndexWins) {
  for (unsigned Lanes : {1u, 4u}) {
    ThreadPool Pool(Lanes);
    std::string Caught;
    try {
      Pool.parallelFor(64, [](size_t I) {
        if (I >= 17)
          throw std::runtime_error("idx" + std::to_string(I));
      });
    } catch (const std::runtime_error &E) {
      Caught = E.what();
    }
    EXPECT_EQ(Caught, "idx17") << "lanes=" << Lanes;
  }
}

TEST(ThreadPool, ExceptionStillRunsRemainingTasks) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  EXPECT_THROW(Pool.parallelFor(100,
                                [&](size_t I) {
                                  Count.fetch_add(1);
                                  if (I == 3)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  Pool.parallelFor(8, [&](size_t) {
    Pool.parallelFor(25, [&](size_t) { Count.fetch_add(1); });
  });
  EXPECT_EQ(Count.load(), 8 * 25);
}

TEST(ThreadPool, ManySmallLoops) {
  ThreadPool Pool(8);
  std::atomic<long long> Sum{0};
  for (int Round = 0; Round < 50; ++Round)
    Pool.parallelFor(17, [&](size_t I) {
      Sum.fetch_add(static_cast<long long>(I));
    });
  EXPECT_EQ(Sum.load(), 50 * (16 * 17 / 2));
}

//===----------------------------------------------------------------------===//
// Structural hashing
//===----------------------------------------------------------------------===//

TEST(KernelHash, RecompiledVariantHashesEqual) {
  // Two compilations of the same variant in the same module generate
  // different fresh temp names; the alpha-normalized hash must agree so
  // the SimCache can reuse the simulation.
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MM, 128, D);
  ASSERT_NE(Naive, nullptr) << D.str();
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  KernelFunction *V1 = GC.compileVariant(*Naive, Opt, 16, 16);
  KernelFunction *V2 = GC.compileVariant(*Naive, Opt, 16, 16);
  ASSERT_NE(V1, nullptr);
  ASSERT_NE(V2, nullptr);
  EXPECT_EQ(hashKernel(*V1), hashKernel(*V2));
  // Different merge factors produce structurally different kernels.
  KernelFunction *V3 = GC.compileVariant(*Naive, Opt, 8, 16);
  ASSERT_NE(V3, nullptr);
  EXPECT_NE(hashKernel(*V1), hashKernel(*V3));
}

TEST(KernelHash, KernelNameDoesNotAffectHash) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, Algo::MV, 128, D);
  ASSERT_NE(K, nullptr) << D.str();
  uint64_t Before = hashKernel(*K);
  K->setName("renamed_kernel");
  EXPECT_EQ(hashKernel(*K), Before);
}

TEST(SimCacheTest, LookupInsertAndCounters) {
  SimCache Cache;
  PerfResult Out;
  EXPECT_FALSE(Cache.lookup(42, Out));
  EXPECT_EQ(Cache.misses(), 1u);
  PerfResult R;
  R.Valid = true;
  R.TimeMs = 1.5;
  Cache.insert(42, R);
  EXPECT_TRUE(Cache.lookup(42, Out));
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_DOUBLE_EQ(Out.TimeMs, 1.5);
  EXPECT_EQ(Cache.size(), 1u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.hits(), 0u);
}

TEST(SimCacheTest, HitsOnFigure12StagePrefixes) {
  // The Figure 12 dissection recompiles the search's winning variant as
  // its "+partition" stage prefix; with a shared cache that measurement
  // must not re-simulate.
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MM, 128, D);
  ASSERT_NE(Naive, nullptr) << D.str();
  SimCache Cache;
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Cache = &Cache;
  CompileOutput Out = GC.compile(*Naive, Opt);
  ASSERT_NE(Out.Best, nullptr);

  KernelFunction *Stage =
      GC.compileVariant(*Naive, Opt, Out.BestVariant.BlockMergeN,
                        Out.BestVariant.ThreadMergeM);
  ASSERT_NE(Stage, nullptr);
  uint64_t HitsBefore = Cache.hits();
  Simulator Sim(DeviceSpec::gtx280());
  Sim.setCache(&Cache);
  BufferSet B;
  DiagnosticsEngine RunDiags;
  PerfResult R = Sim.runPerformance(*Stage, B, RunDiags);
  EXPECT_TRUE(R.Valid);
  EXPECT_GT(Cache.hits(), HitsBefore)
      << "stage-prefix recompilation missed the cache";
  EXPECT_DOUBLE_EQ(R.TimeMs, Out.BestVariant.Perf.TimeMs);
}

//===----------------------------------------------------------------------===//
// Search determinism and pruning equivalence
//===----------------------------------------------------------------------===//

namespace {

struct VariantSnapshot {
  int N = 0, Mm = 0;
  int Status = 0; // 0 measured, 1 infeasible, 2 pruned, 3 failed
  double TimeMs = 0;
  std::string Text;

  bool operator==(const VariantSnapshot &O) const {
    return N == O.N && Mm == O.Mm && Status == O.Status &&
           TimeMs == O.TimeMs && Text == O.Text;
  }
};

struct SearchSnapshot {
  int BestN = 0, BestM = 0;
  double BestMs = 0;
  std::string BestText;
  std::vector<VariantSnapshot> Variants;
  SearchStats Stats;
};

SearchSnapshot runSearch(Algo A, int Jobs, bool Exhaustive = false,
                         bool StaticPrune = true) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, A, testSize(A), D);
  EXPECT_NE(Naive, nullptr) << D.str();
  SearchSnapshot S;
  if (!Naive)
    return S;
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Jobs = Jobs;
  Opt.ExhaustiveSearch = Exhaustive;
  Opt.StaticPrune = StaticPrune;
  CompileOutput Out = GC.compile(*Naive, Opt);
  EXPECT_NE(Out.Best, nullptr) << D.str() << Out.Log;
  if (!Out.Best)
    return S;
  S.BestN = Out.BestVariant.BlockMergeN;
  S.BestM = Out.BestVariant.ThreadMergeM;
  S.BestMs = Out.BestVariant.Perf.TimeMs;
  S.BestText = printKernel(*Out.Best);
  for (const VariantResult &V : Out.Variants) {
    VariantSnapshot VS;
    VS.N = V.BlockMergeN;
    VS.Mm = V.ThreadMergeM;
    VS.Status = V.Feasible ? 0 : V.LimitedBy ? 1 : V.Pruned ? 2 : 3;
    VS.TimeMs = V.Feasible ? V.Perf.TimeMs : 0;
    VS.Text = V.Kernel ? printKernel(*V.Kernel) : "";
    S.Variants.push_back(VS);
  }
  S.Stats = Out.Search;
  return S;
}

} // namespace

class SearchDeterminism : public ::testing::TestWithParam<Algo> {};

TEST_P(SearchDeterminism, SerialAndParallelSearchesAgree) {
  Algo A = GetParam();
  SearchSnapshot Serial = runSearch(A, /*Jobs=*/1);
  SearchSnapshot Parallel = runSearch(A, /*Jobs=*/8);

  EXPECT_EQ(Serial.Stats.Jobs, 1);
  EXPECT_EQ(Parallel.Stats.Jobs, 8);
  EXPECT_EQ(Serial.BestN, Parallel.BestN);
  EXPECT_EQ(Serial.BestM, Parallel.BestM);
  EXPECT_EQ(Serial.BestMs, Parallel.BestMs);
  EXPECT_EQ(Serial.BestText, Parallel.BestText)
      << "emitted CUDA differs between Jobs=1 and Jobs=8";
  ASSERT_EQ(Serial.Variants.size(), Parallel.Variants.size());
  for (size_t I = 0; I < Serial.Variants.size(); ++I)
    EXPECT_TRUE(Serial.Variants[I] == Parallel.Variants[I])
        << "variant " << I << " (b" << Serial.Variants[I].N << " t"
        << Serial.Variants[I].Mm << ") differs";
  // The same candidates are probed, pruned and simulated.
  EXPECT_EQ(Serial.Stats.Candidates, Parallel.Stats.Candidates);
  EXPECT_EQ(Serial.Stats.Simulated, Parallel.Stats.Simulated);
  EXPECT_EQ(Serial.Stats.Probed, Parallel.Stats.Probed);
  EXPECT_EQ(Serial.Stats.Pruned, Parallel.Stats.Pruned);
  EXPECT_EQ(Serial.Stats.Infeasible, Parallel.Stats.Infeasible);
}

TEST_P(SearchDeterminism, PruningNeverChangesTheWinner) {
  Algo A = GetParam();
  SearchSnapshot Pruned = runSearch(A, /*Jobs=*/8, /*Exhaustive=*/false);
  SearchSnapshot Full = runSearch(A, /*Jobs=*/8, /*Exhaustive=*/true);

  EXPECT_EQ(Pruned.BestN, Full.BestN);
  EXPECT_EQ(Pruned.BestM, Full.BestM);
  EXPECT_EQ(Pruned.BestMs, Full.BestMs);
  EXPECT_EQ(Pruned.BestText, Full.BestText);
  EXPECT_LE(Pruned.Stats.Simulated, Full.Stats.Simulated);
  EXPECT_EQ(Full.Stats.Pruned, 0);
  EXPECT_EQ(Full.Stats.Probed, 0);
  // Every variant the pruned search did measure agrees with the
  // exhaustive measurement.
  ASSERT_EQ(Pruned.Variants.size(), Full.Variants.size());
  for (size_t I = 0; I < Pruned.Variants.size(); ++I) {
    if (Pruned.Variants[I].Status == 0) {
      EXPECT_EQ(Pruned.Variants[I].TimeMs, Full.Variants[I].TimeMs)
          << "variant b" << Pruned.Variants[I].N << " t"
          << Pruned.Variants[I].Mm;
    }
  }
}

TEST_P(SearchDeterminism, StaticPruneNeverChangesTheWinner) {
  // The abstract-interpretation pre-filter only rejects variants with a
  // proven violation, which a correct pipeline never produces from a
  // clean naive kernel: the winner must be byte-identical with the
  // filter on and off, and no paper kernel loses a variant to it.
  Algo A = GetParam();
  SearchSnapshot With = runSearch(A, /*Jobs=*/8, /*Exhaustive=*/false,
                                  /*StaticPrune=*/true);
  SearchSnapshot Without = runSearch(A, /*Jobs=*/8, /*Exhaustive=*/false,
                                     /*StaticPrune=*/false);
  EXPECT_EQ(With.BestN, Without.BestN);
  EXPECT_EQ(With.BestM, Without.BestM);
  EXPECT_EQ(With.BestText, Without.BestText)
      << "static pruning changed the selected kernel";
  EXPECT_EQ(With.Stats.StaticallyPruned, 0);
  EXPECT_EQ(Without.Stats.StaticallyPruned, 0);
}

TEST(SanitizedSearch, LintDiagnosticsMatchAcrossLaneCounts) {
  // gpucc --lint rides the per-task stage hooks; the diagnostics replay
  // must dedupe and order them so the user-visible text is identical for
  // a serial and a parallel search.
  auto Run = [](int Jobs, std::string &DiagText, SanitizeSummary &Sum) {
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, Algo::TMV, testSize(Algo::TMV), D);
    EXPECT_NE(Naive, nullptr) << D.str();
    if (!Naive)
      return;
    CompileOptions Opt;
    Opt.Jobs = Jobs;
    SanitizeOptions SO;
    attachStageSanitizer(Opt, D, SO, &Sum);
    GpuCompiler GC(M, D);
    CompileOutput Out = GC.compile(*Naive, Opt);
    EXPECT_NE(Out.Best, nullptr) << D.str() << Out.Log;
    DiagText = D.str();
  };
  std::string Serial, Parallel;
  SanitizeSummary SerialSum, ParallelSum;
  Run(1, Serial, SerialSum);
  Run(8, Parallel, ParallelSum);
  EXPECT_EQ(Serial, Parallel)
      << "lint/sanitizer diagnostics differ between Jobs=1 and Jobs=8";
  EXPECT_EQ(SerialSum.KernelsChecked, ParallelSum.KernelsChecked);
  EXPECT_EQ(SerialSum.RaceErrors, ParallelSum.RaceErrors);
  EXPECT_EQ(SerialSum.LintWarnings, ParallelSum.LintWarnings);
  EXPECT_EQ(SerialSum.Unanalyzable, ParallelSum.Unanalyzable);
}

TEST(SanitizedSearch, StaticPruneRejectsProvenOutOfBoundsVariants) {
  // A kernel every variant of which provably faults: the pre-filter must
  // reject each candidate before simulation and count it.
  Module M;
  DiagnosticsEngine D;
  Parser P("#pragma gpuc output(out)\n"
           "#pragma gpuc domain(64,1)\n"
           "__global__ void oob(float out[64]) {\n"
           "  out[idx + 64] = 1.0f;\n"
           "}\n",
           D);
  KernelFunction *K = P.parseKernel(M);
  ASSERT_NE(K, nullptr) << D.str();
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Jobs = 1;
  CompileOutput Out = GC.compile(*K, Opt);
  EXPECT_EQ(Out.Search.StaticallyPruned, Out.Search.Candidates) << Out.Log;
  EXPECT_EQ(Out.Search.Simulated, 0)
      << "a statically pruned variant was still simulated";
  // With every candidate rejected the search falls back to the unit
  // probe, which is reported as not feasible.
  EXPECT_FALSE(Out.BestVariant.Feasible);
}

TEST(SearchDefaults, DefaultJobsMatchesSerial) {
  // Jobs=0 resolves to hardware concurrency; the result must still match
  // the serial search exactly.
  SearchSnapshot Default = runSearch(Algo::MM, /*Jobs=*/0);
  SearchSnapshot Serial = runSearch(Algo::MM, /*Jobs=*/1);
  EXPECT_EQ(Default.BestN, Serial.BestN);
  EXPECT_EQ(Default.BestM, Serial.BestM);
  EXPECT_EQ(Default.BestText, Serial.BestText);
}

INSTANTIATE_TEST_SUITE_P(Table1, SearchDeterminism,
                         ::testing::ValuesIn(table1Algos()),
                         [](const ::testing::TestParamInfo<Algo> &Info) {
                           return std::string(algoInfo(Info.param).Name);
                         });

//===----------------------------------------------------------------------===//
// Shared disk cache under concurrency
//===----------------------------------------------------------------------===//

namespace {

/// RAII temp cache directory.
struct TempCacheDir {
  std::string Path = DiskCache::makeTempDir("gpuc-exec-test");
  ~TempCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

} // namespace

TEST(DiskCacheConcurrency, HammeredSharedDirectoryStaysConsistent) {
  // Many lanes across two DiskCache instances (two processes, as far as
  // the cache can tell) racing to publish and read the same keys: every
  // load is either a miss or the exact stored value; nothing corrupts.
  TempCacheDir Tmp;
  DiskCache A(Tmp.Path), B(Tmp.Path);
  ASSERT_TRUE(A.valid());
  ASSERT_TRUE(B.valid());

  constexpr uint64_t Keys = 16;
  auto makeResult = [](uint64_t Key) {
    PerfResult R;
    R.Valid = true;
    R.TimeMs = 0.5 + static_cast<double>(Key);
    R.Stats.Transactions = static_cast<double>(Key * 3);
    return R;
  };

  ThreadPool Pool(8);
  std::atomic<int> BadLoads{0};
  Pool.parallelFor(256, [&](size_t I) {
    uint64_t Key = I % Keys;
    DiskCache &C = (I / Keys) % 2 ? A : B;
    if (I % 3 == 0)
      C.store(Key, makeResult(Key));
    PerfResult Out;
    if (C.load(Key, Out) &&
        (Out.TimeMs != makeResult(Key).TimeMs ||
         Out.Stats.Transactions != makeResult(Key).Stats.Transactions))
      BadLoads.fetch_add(1);
  });

  EXPECT_EQ(BadLoads.load(), 0) << "a load returned a foreign value";
  EXPECT_EQ(A.stats().Corrupt + B.stats().Corrupt, 0u);
  EXPECT_EQ(A.stats().WriteErrors + B.stats().WriteErrors, 0u);
  // After the dust settles every key is present and intact.
  for (uint64_t Key = 0; Key < Keys; ++Key) {
    PerfResult Out;
    ASSERT_TRUE(A.load(Key, Out)) << "key " << Key;
    EXPECT_DOUBLE_EQ(Out.TimeMs, makeResult(Key).TimeMs);
  }
}

TEST(DiskCacheConcurrency, TwoHandlesStagingOneKeyUseDistinctTmpFiles) {
  // The hammer test's race, forced: two handles on one directory both
  // stage a write of the same key before either publishes. Sharing a
  // staging file would let the first rename carry off the second
  // writer's bytes and fail the second rename.
  TempCacheDir Tmp;
  DiskCache A(Tmp.Path), B(Tmp.Path);
  constexpr uint64_t Key = 7;
  const std::string TmpA = A.tmpPath(Key), TmpB = B.tmpPath(Key);
  ASSERT_NE(TmpA, TmpB);
  for (const std::string &T : {TmpA, TmpB})
    std::ofstream(T) << "staged";
  const std::string Entry = A.entryPath(Key, DiskCache::Kind::Perf);
  std::filesystem::create_directories(
      std::filesystem::path(Entry).parent_path());
  std::error_code EC;
  std::filesystem::rename(TmpA, Entry, EC);
  EXPECT_FALSE(EC) << EC.message();
  std::filesystem::rename(TmpB, Entry, EC);
  EXPECT_FALSE(EC) << EC.message();
}

TEST(DiskCacheConcurrency, WarmSecondInstanceMatchesSerialColdRun) {
  // The satellite invariant: a parallel search writing through to a shared
  // cache dir, then a second instance reading it warm, must both emit
  // byte-identical text to a serial run with no disk cache at all.
  TempCacheDir Tmp;

  SearchSnapshot Plain = runSearch(Algo::MM, /*Jobs=*/1);

  auto diskSearch = [&](DiskCache &Disk, int Jobs) {
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, Algo::MM, testSize(Algo::MM), D);
    EXPECT_NE(Naive, nullptr) << D.str();
    GpuCompiler GC(M, D);
    CompileOptions Opt;
    Opt.Jobs = Jobs;
    SimCache Mem;
    Mem.setBackend(&Disk);
    Opt.Cache = &Mem;
    Opt.Disk = &Disk;
    return GC.compile(*Naive, Opt);
  };

  DiskCache Cold(Tmp.Path);
  CompileOutput ColdOut = diskSearch(Cold, /*Jobs=*/8);
  ASSERT_NE(ColdOut.Best, nullptr);
  EXPECT_EQ(printKernel(*ColdOut.Best), Plain.BestText)
      << "disk-backed parallel search diverged from the plain serial one";
  EXPECT_GT(Cold.stats().Writes, 0u);

  // "Second process": a fresh DiskCache and a fresh memory tier.
  DiskCache Warm(Tmp.Path);
  CompileOutput WarmOut = diskSearch(Warm, /*Jobs=*/8);
  ASSERT_NE(WarmOut.Best, nullptr);
  EXPECT_EQ(printKernel(*WarmOut.Best), Plain.BestText)
      << "warm search diverged from the cold one";
  EXPECT_EQ(WarmOut.BestVariant.BlockMergeN, ColdOut.BestVariant.BlockMergeN);
  EXPECT_EQ(WarmOut.BestVariant.ThreadMergeM, ColdOut.BestVariant.ThreadMergeM);
  EXPECT_EQ(WarmOut.BestVariant.Perf.TimeMs, ColdOut.BestVariant.Perf.TimeMs);
  EXPECT_GT(WarmOut.Search.DiskHits, 0u)
      << "warm search re-simulated instead of hitting the shared cache";
  EXPECT_EQ(Warm.stats().SimMisses, 0u)
      << "warm search missed entries the cold search should have written";
}

TEST(SearchStatsInvariants, CriticalPathNeverExceedsLaneSums) {
  // The stats must be self-consistent on every lane count: the critical
  // path bounds the wall-clock contribution of the slowest chain and can
  // never exceed the lane-summed aggregate work.
  for (int Jobs : {1, 8}) {
    SearchSnapshot S = runSearch(Algo::MM, Jobs);
    EXPECT_GT(S.Stats.CritPathMs, 0) << "jobs=" << Jobs;
    EXPECT_LE(S.Stats.CritPathMs, S.Stats.CompileMs + S.Stats.SimMs)
        << "jobs=" << Jobs;
  }
}
