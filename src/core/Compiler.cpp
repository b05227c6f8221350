//===-- core/Compiler.cpp - Compilation pipeline --------------------------===//

#include "core/Compiler.h"

#include "ast/Clone.h"
#include "ast/Hash.h"
#include "ast/Printer.h"
#include "ast/Verifier.h"
#include "analysis/BarrierCheck.h"
#include "cache/DiskCache.h"
#include "core/BlockMerge.h"
#include "core/Coalescing.h"
#include "core/ConstantFold.h"
#include "core/Prefetch.h"
#include "core/AmdVectorize.h"
#include "core/ThreadMerge.h"
#include "core/Vectorize.h"
#include "exec/ThreadPool.h"
#include "sim/SimCache.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>

using namespace gpuc;

namespace {

/// Sets the post-coalescing launch shape: one half warp per block
/// (Section 3.3: "the thread block size is also set to 16").
bool setHalfWarpLaunch(KernelFunction &K) {
  if (K.workDomainX() % 16 != 0)
    return false;
  LaunchConfig &L = K.launch();
  L.BlockDimX = 16;
  L.BlockDimY = 1;
  L.GridDimX = K.workDomainX() / 16;
  L.GridDimY = K.workDomainY();
  L.Remap = BlockRemap();
  return true;
}

int countUncoalescedStores(KernelFunction &K) {
  int N = 0;
  for (const AccessInfo &A : collectGlobalAccesses(K))
    if (A.IsStore && A.Resolved && !checkCoalescing(A, K).Coalesced)
      ++N;
  return N;
}

/// True if some load needs the loop-free transpose tile (Pattern V with an
/// idy-shaped contiguous dimension), which wants a 16x16 block.
bool needsTransposeTile(KernelFunction &K) {
  for (const AccessInfo &A : collectGlobalAccesses(K)) {
    if (A.IsStore || !A.Resolved || A.DimAffine.size() != 2)
      continue;
    CoalesceInfo CI = checkCoalescing(A, K);
    if (CI.Failure != CoalesceFailure::HighDimThread)
      continue;
    const AffineExpr &Last = A.DimAffine.back();
    if (!Last.hasLoopTerms() && Last.CTidy == 1 &&
        Last.CBidy == K.launch().BlockDimY && Last.CTidx == 0 &&
        Last.CBidx == 0)
      return true;
  }
  return false;
}

} // namespace

uint64_t gpuc::compileCacheKey(const KernelFunction &Naive,
                               const CompileOptions &Opt) {
  uint64_t H = hashKernel(Naive);
  H = hashCombine(H, hashDevice(Opt.Device));
  H = hashCombine(H, hashPerfOptions(Opt.Perf));
  uint64_t Flags = 0;
  Flags |= Opt.Vectorize ? 1u << 0 : 0;
  Flags |= Opt.Coalesce ? 1u << 1 : 0;
  Flags |= Opt.Merge ? 1u << 2 : 0;
  Flags |= Opt.Prefetch ? 1u << 3 : 0;
  Flags |= Opt.PartitionElim ? 1u << 4 : 0;
  Flags |= Opt.Fold ? 1u << 5 : 0;
  Flags |= Opt.Verify ? 1u << 6 : 0;
  // Pruning provably never changes the winner (test-enforced), but keying
  // on it is free and keeps the entry's provenance unambiguous.
  Flags |= Opt.ExhaustiveSearch ? 1u << 7 : 0;
  // The layout dimension changes which variants compete, so the winner
  // of a layout search must never be served to a legacy-heuristic caller
  // (or vice versa).
  Flags |= Opt.LayoutSearch ? 1u << 8 : 0;
  return hashCombine(H, Flags);
}

const std::vector<const char *> &gpuc::pipelineStageNames() {
  static const std::vector<const char *> Names = {
      "input",  "vectorize",         "coalesce", "merge",
      "partition-camping", "prefetch", "final"};
  return Names;
}

KernelFunction *GpuCompiler::compileVariant(const KernelFunction &Naive,
                                            const CompileOptions &Opt,
                                            int BlockN, int ThreadM,
                                            MergePlan *PlanOut,
                                            PartitionCampResult *CampOut,
                                            const LayoutPoint *Layout,
                                            CampingAnalysis *ScanOut) {
  std::string Name =
      strFormat("%s_opt_b%d_t%d", Naive.name().c_str(), BlockN, ThreadM);
  KernelFunction *V = cloneKernel(M, &Naive, Name);
  ASTContext &Ctx = M.context();

  // Per-stage observer (the sanitizer layer): every intermediate kernel is
  // announced, and the last announcement on each return path is final. A
  // HookFactory binds to this compiler's engine, which in a search task is
  // the task's own — that's what keeps hooked searches parallel.
  StageHook Hook = Opt.HookFactory ? Opt.HookFactory(Diags) : StageHook();
  auto Stage = [&](const char *StageName, bool Final = false) {
    if (Hook)
      Hook(StageName, *V, Final);
  };
  Stage("input");

  if (Opt.Vectorize) {
    vectorizeAccesses(*V, Ctx);
    // Section 3.1: ATI/AMD targets also group neighboring threads' X
    // accesses into wide vectors (float4 is their fastest class).
    if (Opt.Device.PreferWideVectors && amdVectorize(*V, Ctx, 4))
      setHalfWarpLaunch(*V);
    Stage("vectorize");
  }

  if (!Opt.Coalesce) {
    Stage("final", /*Final=*/true);
    return V;
  }

  if (!setHalfWarpLaunch(*V)) {
    Stage("final", /*Final=*/true);
    return V; // domain not tileable; keep the naive launch
  }

  // Transpose-shaped kernels: if stores are non-coalesced and exchanging
  // idx/idy fixes them, exchange (Section 3.3's loop-interchange analog).
  int BadStores = countUncoalescedStores(*V);
  if (BadStores > 0 && V->workDomainY() > 1) {
    exchangeIdxIdy(*V, Ctx);
    setHalfWarpLaunch(*V);
    if (countUncoalescedStores(*V) >= BadStores) {
      exchangeIdxIdy(*V, Ctx); // no improvement: undo
      setHalfWarpLaunch(*V);
    }
  }

  // The loop-free tile pattern needs a 16x16 block before conversion.
  if (needsTransposeTile(*V) && V->launch().GridDimY % 16 == 0)
    blockMergeY(*V, 16);

  CoalesceResult CR = convertNonCoalesced(*V, Ctx, Diags);
  Stage("coalesce");

  MergePlan Plan = planMerges(*V, CR);
  if (PlanOut)
    *PlanOut = Plan;

  if (Opt.Merge) {
    if (Plan.BlockMergeX && BlockN > 1)
      blockMergeX(*V, Ctx, CR, BlockN);
    if (ThreadM > 1) {
      if (Plan.ThreadMergeY)
        threadMerge(*V, Ctx, ThreadM, /*AlongY=*/true);
      else if (Plan.ThreadMergeX)
        threadMerge(*V, Ctx, ThreadM, /*AlongY=*/false);
    }
    Stage("merge");
  }

  // Camping rotation must precede prefetch (see header note). The scan
  // runs before any layout is applied: it sees the variant exactly as the
  // legacy heuristic would, plus the scaled strides merging could create.
  PartitionCampResult Camp;
  if (Opt.PartitionElim) {
    if (ScanOut)
      *ScanOut = analyzeCamping(*V, Opt.Device, {8, 16, 32});
    Camp = Layout ? applyLayout(*V, Ctx, Opt.Device, *Layout)
                  : eliminatePartitionCamping(*V, Ctx, Opt.Device);
    Stage("partition-camping");
  }
  if (CampOut)
    *CampOut = Camp;

  if (Opt.Prefetch) {
    insertPrefetch(*V, Ctx);
    Stage("prefetch");
  }

  if (Opt.Fold)
    foldKernel(*V, Ctx);

  if (Opt.Verify) {
    for (const std::string &Violation : verifyKernel(*V))
      Diags.error(SourceLocation(),
                  strFormat("%s: %s", V->name().c_str(), Violation.c_str()));
    // Barrier uniformity is semantic, not structural: the dataflow
    // engine's divergence lattice must prove every barrier (conservative
    // parity with the pre-analysis Verifier: an unproven barrier is still
    // an error, but thread-invariant conditions now verify).
    for (const BarrierIssue &Issue : checkBarriers(*V))
      Diags.error(SourceLocation(), strFormat("%s: %s", V->name().c_str(),
                                              Issue.Message.c_str()));
  }
  Stage("final", /*Final=*/true);
  return V;
}

CompileOutput GpuCompiler::compile(const KernelFunction &Naive,
                                   const CompileOptions &Opt) {
  WallTimer SearchWall;
  CompileOutput Out;

  if (compileCancelled(Opt)) {
    Out.Log += "search cancelled\n";
    return Out;
  }

  // Probe the merge plan with a unit variant (built in the caller's
  // module, as always — single-variant compilations are unaffected by the
  // search machinery below). In layout mode the probe is compiled with the
  // explicit identity point — same output as the legacy heuristic when no
  // camping is detected — and additionally scans for camping at the
  // candidate block-merge strides, which gates the family enumeration.
  const bool LayoutMode = Opt.LayoutSearch && Opt.PartitionElim;
  const LayoutPoint Identity = LayoutPoint::identityPoint();
  CampingAnalysis Scan;
  KernelFunction *Probe =
      compileVariant(Naive, Opt, /*BlockN=*/1, /*ThreadM=*/1, &Out.Plan,
                     &Out.Camping, LayoutMode ? &Identity : nullptr,
                     LayoutMode ? &Scan : nullptr);
  if (!Probe || Diags.hasErrors()) {
    Out.Log += "probe compilation failed\n";
    return Out;
  }

  // Candidate factors (Section 4.1): block merges giving 128/256/512
  // threads per block, thread-merge degrees 4..32.
  std::vector<int> BlockNs{1};
  if (Opt.Merge && Out.Plan.BlockMergeX)
    BlockNs = {1, 8, 16, 32};
  std::vector<int> ThreadMs{1};
  if (Opt.Merge && Out.Plan.anyThreadMerge())
    ThreadMs = {1, 4, 8, 16, 32};

  // The affine layout dimension (outermost). Kernels that camp at no
  // probed stride get the identity alone, so their candidate set — and
  // their search cost — is unchanged by layout mode.
  std::vector<LayoutPoint> Layouts{LayoutPoint::identityPoint()};
  if (LayoutMode)
    Layouts = enumerateLayouts(*Probe, Opt.Device, Scan);

  // One slot per candidate in canonical (layout outer, then N, then M)
  // order. Every search result is keyed by slot, every decision reads
  // deterministic per-slot values, and the final reduction walks slots in
  // order — the outcome is therefore independent of task completion order
  // and of the lane count. Identity is layout slot 0, so the strict-<
  // reduction keeps the untransformed variant whenever a permutation buys
  // nothing.
  struct Candidate {
    int N = 1, Mm = 1;
    LayoutPoint Layout;
    PartitionCampResult Camp;
    /// Owning module for non-probe variants. ASTContext is not
    /// thread-safe and nodes carry interpreter scratch, so a variant is
    /// only ever touched by the task that owns its slot.
    std::shared_ptr<Module> Owner;
    DiagnosticsEngine TaskDiags;
    KernelFunction *Kernel = nullptr;
    Occupancy Occ;
    bool OccInfeasible = false;
    bool Probed = false;
    double LowerBoundMs = 0;
    bool Simulated = false;
    bool Pruned = false;
    bool StaticallyPruned = false;
    PerfResult Perf;
    std::string SimLog;
    double CompileWallMs = 0;
    double SimWallMs = 0;
  };
  std::vector<Candidate> Cands(Layouts.size() * BlockNs.size() *
                               ThreadMs.size());
  {
    size_t I = 0;
    for (const LayoutPoint &L : Layouts)
      for (int N : BlockNs)
        for (int Mm : ThreadMs) {
          Cands[I].Layout = L;
          Cands[I].N = N;
          Cands[I].Mm = Mm;
          ++I;
        }
  }

  unsigned Jobs = Opt.Jobs <= 0 ? ThreadPool::defaultConcurrency()
                                : static_cast<unsigned>(Opt.Jobs);
  ThreadPool Pool(Jobs);

  SimCache LocalCache;
  SimCache *Cache = Opt.Cache ? Opt.Cache : &LocalCache;
  // Wire the persistent tier under whichever memo table this search uses;
  // a caller-provided cache gets its previous wiring back afterwards.
  SimCacheBackend *PrevBackend = Cache->backend();
  if (Opt.Disk)
    Cache->setBackend(Opt.Disk);
  const uint64_t Hits0 = Cache->hits();
  const uint64_t Misses0 = Cache->misses();
  const uint64_t DiskHits0 = Cache->diskHits();
  Simulator Sim(Opt.Device);
  Sim.setCache(Cache);
  Sim.setInterpBackend(Opt.Interp);

  // The probe profile's coarser sampling can miss camping and imbalance
  // effects that only ever increase the full-run estimate; the safety
  // factor keeps the bound under the model's full-run time.
  constexpr double LowerBoundSafety = 0.75;
  const PerfOptions ProbeOpts = PerfOptions::lowerBoundProbe();

  // Phase A: compile every candidate in its own Module/ASTContext arena
  // with its own DiagnosticsEngine, compute occupancy, and (unless the
  // search is exhaustive) estimate a lower bound with a cheap probe run.
  Pool.parallelFor(Cands.size(), [&](size_t I) {
    Candidate &C = Cands[I];
    if (compileCancelled(Opt))
      return; // cancelled: leave the slot unbuilt, discarded below
    WallTimer CompileTimer;
    if (C.N == 1 && C.Mm == 1 && C.Layout.identity()) {
      C.Kernel = Probe; // already built for the plan probe
      C.Camp = Out.Camping;
    } else {
      C.Owner = std::make_shared<Module>();
      GpuCompiler TaskCompiler(*C.Owner, C.TaskDiags);
      C.Kernel =
          TaskCompiler.compileVariant(Naive, Opt, C.N, C.Mm, nullptr,
                                      &C.Camp,
                                      LayoutMode ? &C.Layout : nullptr);
    }
    C.CompileWallMs = CompileTimer.elapsedMs();
    if (!C.Kernel)
      return;
    C.Occ = computeOccupancy(Opt.Device, *C.Kernel);
    C.OccInfeasible = C.Occ.Infeasible;
    if (C.OccInfeasible)
      return;
    // A Violation verdict means the variant provably faults at runtime —
    // its performance run could never succeed, so skip probe and
    // simulation outright. The fuzz oracle's static/dynamic differential
    // keeps this sound, which is what guarantees identical winners with
    // pruning on or off.
    if (Opt.StaticPrune && runDataflow(*C.Kernel).anyViolation()) {
      C.StaticallyPruned = true;
      return;
    }
    if (Opt.ExhaustiveSearch)
      return;
    WallTimer ProbeTimer;
    BufferSet Buffers;
    DiagnosticsEngine ProbeDiags;
    PerfResult LB = Sim.runPerformance(*C.Kernel, Buffers, ProbeDiags,
                                       ProbeOpts);
    C.SimWallMs += ProbeTimer.elapsedMs();
    C.Probed = true;
    if (LB.Valid)
      C.LowerBoundMs = LB.TimeMs * LowerBoundSafety;
  });

  // Replay per-task diagnostics into the caller's engine in slot order
  // (identical text for every lane count). Exact duplicates are emitted
  // once: every variant of one kernel runs the same sanitizer over mostly
  // identical stages, and repeating a finding per candidate only buries
  // it.
  {
    std::set<std::tuple<DiagKind, int, int, std::string>> Seen;
    for (const Diagnostic &D : Diags.diagnostics())
      Seen.insert({D.Kind, D.Loc.Line, D.Loc.Col, D.Message});
    for (Candidate &C : Cands)
      for (const Diagnostic &D : C.TaskDiags.diagnostics())
        if (Seen.insert({D.Kind, D.Loc.Line, D.Loc.Col, D.Message}).second)
          Diags.report(D.Kind, D.Loc, D.Message);
  }

  auto FullSim = [&](size_t I) {
    Candidate &C = Cands[I];
    if (compileCancelled(Opt))
      return; // cancelled: skip the run; the result is discarded below
    WallTimer SimTimer;
    BufferSet Buffers;
    DiagnosticsEngine RunDiags;
    C.Perf = Sim.runPerformance(*C.Kernel, Buffers, RunDiags, Opt.Perf);
    C.SimWallMs += SimTimer.elapsedMs();
    C.Simulated = true;
    if (!C.Perf.Valid)
      C.SimLog = strFormat("b%d t%d: %s", C.N, C.Mm, RunDiags.str().c_str());
  };

  std::vector<size_t> Runnable;
  for (size_t I = 0; I < Cands.size(); ++I)
    if (Cands[I].Kernel && !Cands[I].OccInfeasible &&
        !Cands[I].StaticallyPruned)
      Runnable.push_back(I);

  // Phase B: full performance runs. The candidate with the smallest lower
  // bound becomes the champion; it is measured first and its time prunes
  // every candidate whose bound it beats. A pruned candidate's true time
  // is >= its bound > the champion's time >= the final winner's time, so
  // pruning cannot change the winner as long as the bound holds (the
  // ExhaustiveSearch tests enforce exactly that).
  double Threshold = std::numeric_limits<double>::infinity();
  if (Opt.ExhaustiveSearch || Runnable.size() <= 1) {
    Pool.parallelFor(Runnable.size(),
                     [&](size_t I) { FullSim(Runnable[I]); });
  } else {
    std::stable_sort(Runnable.begin(), Runnable.end(),
                     [&](size_t A, size_t B) {
                       return Cands[A].LowerBoundMs < Cands[B].LowerBoundMs;
                     });
    const size_t Champion = Runnable.front();
    FullSim(Champion);
    if (Cands[Champion].Perf.Valid)
      Threshold = Cands[Champion].Perf.TimeMs;
    std::vector<size_t> Survivors;
    for (size_t I = 1; I < Runnable.size(); ++I) {
      Candidate &C = Cands[Runnable[I]];
      if (C.LowerBoundMs > Threshold)
        C.Pruned = true;
      else
        Survivors.push_back(Runnable[I]);
    }
    Pool.parallelFor(Survivors.size(),
                     [&](size_t I) { FullSim(Survivors[I]); });
  }

  // Phase C: deterministic reduction in canonical order; strict < keeps
  // the earliest candidate on ties, exactly like the serial loop did.
  PartitionCampResult BestCamp;
  for (Candidate &C : Cands) {
    if (!C.Kernel)
      continue;
    // Keep the legacy log format for legacy-shaped searches; tag the
    // layout only when the family was actually enumerated.
    const std::string Tag =
        Layouts.size() > 1
            ? strFormat("%s b%d t%d", C.Layout.name(), C.N, C.Mm)
            : strFormat("b%d t%d", C.N, C.Mm);
    VariantResult VR;
    VR.Kernel = C.Kernel;
    VR.BlockMergeN = C.N;
    VR.ThreadMergeM = C.Mm;
    VR.Layout = C.Layout.name();
    VR.LowerBoundMs = C.LowerBoundMs;
    VR.CompileWallMs = C.CompileWallMs;
    VR.SimWallMs = C.SimWallMs;
    if (C.OccInfeasible) {
      VR.LimitedBy = C.Occ.LimitedBy;
      VR.Perf.Occ = C.Occ;
      Out.Log += strFormat("%s: infeasible (%s)\n", Tag.c_str(),
                           C.Occ.LimitedBy);
    } else if (C.StaticallyPruned) {
      VR.StaticallyPruned = true;
      Out.Log += strFormat("%s: statically pruned (proven "
                           "out-of-bounds access or invalid barrier)\n",
                           Tag.c_str());
    } else if (C.Pruned) {
      VR.Pruned = true;
      Out.Log += strFormat(
          "%s: pruned (lower bound %.4f ms > best %.4f ms)\n", Tag.c_str(),
          C.LowerBoundMs, Threshold);
    } else {
      VR.Perf = C.Perf;
      VR.Feasible = C.Perf.Valid;
      if (!VR.Feasible)
        Out.Log += C.SimLog;
    }
    Out.Variants.push_back(VR);
    if (VR.Feasible &&
        (!Out.Best || VR.Perf.TimeMs < Out.BestVariant.Perf.TimeMs)) {
      Out.Best = VR.Kernel;
      Out.BestVariant = VR;
      BestCamp = C.Camp;
    }
    if (C.Owner)
      Out.OwnedModules.push_back(std::move(C.Owner));
  }
  if (!Out.Best && Probe) {
    Out.Best = Probe;
    Out.BestVariant.Kernel = Probe;
  }
  // The probe's camping result only reflects the identity point; fold in
  // what the winning candidate actually detected and applied (merging can
  // create camping the probe never saw).
  if (LayoutMode && Out.BestVariant.Feasible) {
    Out.Camping.Detected |= BestCamp.Detected;
    Out.Camping.AppliedOffset |= BestCamp.AppliedOffset;
    Out.Camping.AppliedDiagonal |= BestCamp.AppliedDiagonal;
    Out.Camping.CampingAccesses =
        std::max(Out.Camping.CampingAccesses, BestCamp.CampingAccesses);
  }

  Out.Search.Jobs = static_cast<int>(Pool.concurrency());
  Out.Search.Candidates = static_cast<int>(Cands.size());
  Out.Search.LayoutPoints = static_cast<int>(Layouts.size());
  if (Out.BestVariant.Feasible &&
      std::string(Out.BestVariant.Layout) != "identity")
    Out.Search.LayoutWins = 1;
  for (const Candidate &C : Cands) {
    Out.Search.Simulated += C.Simulated ? 1 : 0;
    Out.Search.Probed += C.Probed ? 1 : 0;
    Out.Search.Pruned += C.Pruned ? 1 : 0;
    Out.Search.StaticallyPruned += C.StaticallyPruned ? 1 : 0;
    Out.Search.Infeasible += C.OccInfeasible ? 1 : 0;
    Out.Search.CompileMs += C.CompileWallMs;
    Out.Search.SimMs += C.SimWallMs;
    Out.Search.CritPathMs = std::max(Out.Search.CritPathMs,
                                     C.CompileWallMs + C.SimWallMs);
  }
  Out.Search.CacheHits = Cache->hits() - Hits0;
  Out.Search.CacheMisses = Cache->misses() - Misses0;
  Out.Search.DiskHits = Cache->diskHits() - DiskHits0;
  Out.Search.ScalarFallbacks = Sim.scalarFallbacks();
  Out.Search.WallMs = SearchWall.elapsedMs();

  // A cancelled search ran over a partial candidate set; its champion is
  // not the true winner, so the result is withdrawn — nothing is returned
  // and (via the Out.Best guard below) nothing is published to disk.
  if (compileCancelled(Opt)) {
    Out.Best = nullptr;
    Out.BestVariant = VariantResult();
    Out.Log += "search cancelled\n";
  }

  // Persist the search's winner (text + factors) so a later process can
  // reuse it without re-searching. Only diagnostics-clean compilations are
  // stored: a warm consumer that skips the search must not silently drop
  // warnings a cold run would have printed. If a warm entry already exists
  // it must match what this full search just produced — a mismatch means a
  // stale or foreign entry (the schema version should have been bumped),
  // and the freshly computed result overwrites it, so cached and uncached
  // runs can never diverge.
  if (Opt.Disk && Out.Best && Out.BestVariant.Feasible &&
      !Diags.hasErrors() && !Diags.hasWarnings()) {
    const uint64_t TextKey = compileCacheKey(Naive, Opt);
    CachedCompile Entry;
    Entry.KernelText = printKernel(*Out.Best);
    Entry.BlockMergeN = Out.BestVariant.BlockMergeN;
    Entry.ThreadMergeM = Out.BestVariant.ThreadMergeM;
    Entry.TimeMs = Out.BestVariant.Perf.TimeMs;
    CachedCompile Existing;
    if (!Opt.Disk->loadText(TextKey, Existing)) {
      Opt.Disk->storeText(TextKey, Entry);
    } else if (Existing.KernelText != Entry.KernelText ||
               Existing.BlockMergeN != Entry.BlockMergeN ||
               Existing.ThreadMergeM != Entry.ThreadMergeM) {
      Out.Log += "disk cache: stale winner entry replaced (cross-check "
                 "mismatch)\n";
      Opt.Disk->storeText(TextKey, Entry);
    }
  }
  if (Opt.Disk && Opt.Cache)
    Cache->setBackend(PrevBackend);
  return Out;
}

uint64_t
gpuc::programCacheKey(const std::vector<const KernelFunction *> &Stages,
                      const CompileOptions &Opt) {
  // Ordered fold: swapping two stages or dropping one changes the key even
  // when the per-stage keys are a permutation of each other.
  uint64_t H = hashCombine(0x70697065u /* 'pipe' */,
                           static_cast<uint64_t>(Stages.size()));
  for (const KernelFunction *S : Stages)
    H = hashCombine(H, compileCacheKey(*S, Opt));
  return H;
}

namespace {

/// Merges one search's counters into the program-level aggregate. The
/// program's searches run back to back, so wall-clock and critical path
/// add (unlike lanes within one search, which overlap).
void addSearchStats(SearchStats &A, const SearchStats &B) {
  A.Jobs = std::max(A.Jobs, B.Jobs);
  A.Candidates += B.Candidates;
  A.Simulated += B.Simulated;
  A.Probed += B.Probed;
  A.Pruned += B.Pruned;
  A.StaticallyPruned += B.StaticallyPruned;
  A.Infeasible += B.Infeasible;
  A.CacheHits += B.CacheHits;
  A.CacheMisses += B.CacheMisses;
  A.DiskHits += B.DiskHits;
  A.WallMs += B.WallMs;
  A.CompileMs += B.CompileMs;
  A.SimMs += B.SimMs;
  A.CritPathMs += B.CritPathMs;
  A.ScalarFallbacks += B.ScalarFallbacks;
  A.LayoutPoints += B.LayoutPoints;
  A.LayoutWins += B.LayoutWins;
}

} // namespace

ProgramCompileOutput
GpuCompiler::compileProgram(const std::vector<const KernelFunction *> &Stages,
                            const CompileOptions &Opt) {
  ProgramCompileOutput Out;
  Out.Search.Jobs = 0;
  for (const KernelFunction *S : Stages)
    Out.StageNames.push_back(S->name());
  if (Stages.size() < 2) {
    Diags.error({}, "a pipeline compilation needs at least two kernels");
    return Out;
  }

  // Fusion legality is decided once, up front; the fused kernel (if any)
  // then competes in the design-space search like any other dimension.
  const std::string FusedName = Stages.back()->name() + "_fused";
  PipelineFusion PF = fusePipeline(M, Stages, Opt.Device, FusedName);
  Out.FusionLegal = PF.Legal;
  Out.FusionReason = PF.Reason;
  Out.FusionSteps = PF.Steps;
  Out.Fused = PF.Fused;
  Out.Search.FusionCandidates = static_cast<int>(PF.Steps.size());
  for (const FusionDecision &D : PF.Steps)
    ++(D.Legal ? Out.Search.FusionLegal : Out.Search.FusionRejected);

  // Unfused side: every stage gets its own full search. The shared
  // SimCache/DiskCache wiring (Opt.Cache / Opt.Disk) carries over, so
  // repeated program compiles reuse per-stage winners.
  bool AllStagesFeasible = true;
  double UnfusedMs = 0;
  for (const KernelFunction *S : Stages) {
    CompileOutput CO = compile(*S, Opt);
    if (CO.Best && CO.BestVariant.Feasible)
      UnfusedMs += CO.BestVariant.Perf.TimeMs;
    else
      AllStagesFeasible = false;
    addSearchStats(Out.Search, CO.Search);
    Out.StageOuts.push_back(std::move(CO));
  }
  if (AllStagesFeasible)
    Out.UnfusedMs = UnfusedMs;

  // Fused side. A shared-stage kernel is searched with merging pinned
  // off: the 16-wide staging tile bakes the launch geometry into the
  // body, and merge factors would break the barrier proof's alignment.
  bool FusedFeasible = false;
  if (PF.Legal) {
    CompileOptions FOpt = Opt;
    if (PF.UsedSharedStage)
      FOpt.Merge = false;
    Out.FusedOut = compile(*PF.Fused, FOpt);
    addSearchStats(Out.Search, Out.FusedOut.Search);
    FusedFeasible = Out.FusedOut.Best && Out.FusedOut.BestVariant.Feasible;
    if (FusedFeasible)
      Out.FusedMs = Out.FusedOut.BestVariant.Perf.TimeMs;
  }
  Out.AllFeasible = AllStagesFeasible && (!PF.Legal || FusedFeasible);

  Out.UseFused =
      FusedFeasible && (!AllStagesFeasible || Out.FusedMs < Out.UnfusedMs);
  if (Out.UseFused)
    Out.Search.FusionWins = 1;

  // Deterministic program text: decision header + the chosen winner(s).
  // This is what gpucc emits and what the disk cache replays, so cold and
  // warm runs are byte-identical.
  std::string T = "// pipeline:";
  for (size_t I = 0; I < Out.StageNames.size(); ++I)
    T += strFormat("%s %s", I ? " ->" : "", Out.StageNames[I].c_str());
  T += "\n";
  if (PF.Legal) {
    for (size_t I = 0; I < PF.Steps.size(); ++I) {
      const FusionDecision &D = PF.Steps[I];
      T += strFormat("// fusion: '%s' -> %s (%s)\n", D.Intermediate.c_str(),
                     fusePlacementName(D.Placement), D.Reason.c_str());
    }
  } else {
    T += "// fusion: rejected: " + PF.Reason + "\n";
  }
  T += strFormat("// decision: %s (fused %.6f ms vs unfused %.6f ms)\n",
                 Out.UseFused ? "fused" : "unfused", Out.FusedMs,
                 Out.UnfusedMs);
  if (Out.UseFused) {
    T += printKernel(*Out.FusedOut.Best);
  } else {
    for (size_t I = 0; I < Out.StageOuts.size(); ++I) {
      T += strFormat("%s// stage: %s\n", I ? "\n" : "",
                     Out.StageNames[I].c_str());
      if (Out.StageOuts[I].Best)
        T += printKernel(*Out.StageOuts[I].Best);
    }
  }
  Out.ProgramText = std::move(T);

  // Program-level winner store, mirroring the single-kernel block above:
  // clean compiles only, cross-check-replace on mismatch. The per-stage
  // and fused entries were already stored by the nested compile() calls;
  // this entry memoizes the decision and the assembled text.
  if (Opt.Disk && Out.AllFeasible && !Diags.hasErrors() &&
      !Diags.hasWarnings()) {
    const uint64_t TextKey = programCacheKey(Stages, Opt);
    CachedCompile Entry;
    Entry.KernelText = Out.ProgramText;
    if (Out.UseFused) {
      Entry.BlockMergeN = Out.FusedOut.BestVariant.BlockMergeN;
      Entry.ThreadMergeM = Out.FusedOut.BestVariant.ThreadMergeM;
      Entry.TimeMs = Out.FusedMs;
    } else {
      Entry.BlockMergeN = 0;
      Entry.ThreadMergeM = 0;
      Entry.TimeMs = Out.UnfusedMs;
    }
    CachedCompile Existing;
    if (!Opt.Disk->loadText(TextKey, Existing) ||
        Existing.KernelText != Entry.KernelText)
      Opt.Disk->storeText(TextKey, Entry);
  }
  return Out;
}
