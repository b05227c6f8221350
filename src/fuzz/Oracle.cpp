//===-- fuzz/Oracle.cpp - Differential translation validation -------------===//

#include "fuzz/Oracle.h"

#include "analysis/Dataflow.h"
#include "analysis/RaceDetector.h"
#include "ast/Clone.h"
#include "ast/Walk.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>

using namespace gpuc;

namespace {

/// The shared LCG fill: one continuing \p State across every buffer, so
/// a fixed allocation order fixes every byte.
void fillParamBuffer(const ParamDecl &P, BufferSet &Buffers,
                     unsigned &State) {
  auto &V = Buffers.alloc(P.Name, static_cast<size_t>(P.elemCount()) *
                                      P.ElemTy.vectorWidth());
  for (float &X : V) {
    State = State * 1664525u + 1013904223u;
    X = static_cast<float>(State >> 20) / 4096.0f - 0.5f;
  }
}

} // namespace

void gpuc::fillFuzzInputs(const KernelFunction &K, BufferSet &Buffers,
                          unsigned Seed) {
  unsigned State = Seed ? Seed : 1u;
  for (const ParamDecl &P : K.params())
    if (P.IsArray)
      fillParamBuffer(P, Buffers, State);
}

void gpuc::fillPipelineFuzzInputs(
    const std::vector<const KernelFunction *> &Stages, BufferSet &Buffers,
    unsigned Seed) {
  unsigned State = Seed ? Seed : 1u;
  for (const KernelFunction *K : Stages)
    for (const ParamDecl &P : K->params())
      if (P.IsArray && !Buffers.has(P.Name))
        fillParamBuffer(P, Buffers, State);
}

bool gpuc::kernelHasFloatArith(const KernelFunction &K) {
  bool Arith = false;
  forEachStmt(K.body(), [&](Stmt *S) {
    if (auto *A = dyn_cast<AssignStmt>(S))
      if (A->op() != AssignOp::Assign)
        Arith = true;
  });
  if (Arith)
    return true;
  forEachExpr(K.body(), [&](Expr *E) {
    if (auto *B = dyn_cast<Binary>(E)) {
      if (B->type().isFloat())
        Arith = true;
    } else if (isa<Call>(E)) {
      Arith = true;
    }
  });
  return Arith;
}

long long gpuc::ulpDistance(float A, float B) {
  if (A == B)
    return 0;
  if (std::isnan(A) || std::isnan(B))
    return std::isnan(A) && std::isnan(B)
               ? 0
               : std::numeric_limits<long long>::max();
  int32_t IA, IB;
  std::memcpy(&IA, &A, sizeof(float));
  std::memcpy(&IB, &B, sizeof(float));
  // Map to a monotonic integer line (sign-magnitude -> offset binary).
  if (IA < 0)
    IA = std::numeric_limits<int32_t>::min() - IA;
  if (IB < 0)
    IB = std::numeric_limits<int32_t>::min() - IB;
  return std::llabs(static_cast<long long>(IA) - static_cast<long long>(IB));
}

namespace {

/// Per-element acceptance for one output array.
struct Comparator {
  bool Exact;
  int UlpTol;
  double RelTol;

  bool accept(float Want, float Got) const {
    if (std::memcmp(&Want, &Got, sizeof(float)) == 0)
      return true;
    if (Exact)
      return false;
    if (ulpDistance(Want, Got) <= UlpTol)
      return true;
    double Denom = std::max(1.0, static_cast<double>(std::fabs(Want)));
    return std::fabs(static_cast<double>(Want) - Got) / Denom <= RelTol;
  }
};

/// Compares every output array of \p K; fills mismatch fields of \p F.
/// \returns true when all elements are accepted.
bool compareOutputs(const KernelFunction &K, const BufferSet &Ref,
                    const BufferSet &Got, const Comparator &Cmp,
                    OracleFailure &F) {
  bool Ok = true;
  for (const ParamDecl &P : K.params()) {
    if (!P.IsArray || !P.IsOutput)
      continue;
    const auto &A = Ref.data(P.Name);
    const auto &B = Got.data(P.Name);
    for (size_t I = 0; I < A.size() && I < B.size(); ++I) {
      if (Cmp.accept(A[I], B[I]))
        continue;
      if (F.MismatchCount == 0) {
        F.Array = P.Name;
        F.FirstBadIndex = static_cast<long long>(I);
        F.Want = A[I];
        F.Got = B[I];
      }
      ++F.MismatchCount;
      Ok = false;
    }
  }
  return Ok;
}

std::string describeRaces(const RaceLog &Races) {
  std::string S;
  for (const RaceRecord &R : Races.Races)
    S += strFormat("%s race on '%s' word %lld (phase %d, block %lld, "
                   "threads %lld/%lld)\n",
                   R.WriteWrite ? "write-write" : "write-read",
                   R.Array.c_str(), R.Word, R.Phase, R.Block, R.T1, R.T2);
  return S;
}

/// Runs \p K functionally against fresh seeded buffers. \returns false on
/// an execution error (message in \p Detail) and surfaces races.
bool runVariant(const Simulator &Sim, const KernelFunction &K,
                unsigned InputSeed, bool CheckRaces, BufferSet &Buffers,
                std::string &Detail, bool &Raced) {
  fillFuzzInputs(K, Buffers, InputSeed);
  DiagnosticsEngine RunDiags;
  RaceLog Races;
  bool Ok = Sim.runFunctional(K, Buffers, RunDiags,
                              CheckRaces ? &Races : nullptr);
  Raced = CheckRaces && !Races.clean();
  if (!Ok)
    Detail = RunDiags.str();
  else if (Raced)
    Detail = describeRaces(Races);
  return Ok;
}

/// The oracle's own compiles carry the test-only fault injection (if any)
/// as their stage hook.
StageHookFactory injectFactory(const OracleOptions &Opt) {
  if (!Opt.Inject)
    return nullptr;
  return [Inject = Opt.Inject](DiagnosticsEngine &) { return Inject; };
}

/// Re-compiles one variant with a snapshot hook and blames the first
/// stage whose intermediate kernel diverges from the reference outputs
/// (or fails to run / races, matching the original failure mode).
std::string attributeStage(const KernelFunction &Naive,
                           const OracleOptions &Opt, int BlockN, int ThreadM,
                           const Simulator &Sim, const BufferSet &Ref,
                           const Comparator &Cmp) {
  Module CompileM;
  Module SnapM; // snapshots survive the pipeline mutating the variant
  DiagnosticsEngine Diags;
  GpuCompiler GC(CompileM, Diags);

  std::vector<std::pair<std::string, KernelFunction *>> Snaps;
  CompileOptions O = Opt.Compile;
  O.HookFactory = [&](DiagnosticsEngine &) -> StageHook {
    return [&](const char *Stage, KernelFunction &K, bool Final) {
      if (Opt.Inject)
        Opt.Inject(Stage, K, Final);
      Snaps.emplace_back(Stage, cloneKernel(SnapM, &K, K.name()));
    };
  };
  GC.compileVariant(Naive, O, BlockN, ThreadM);

  for (const auto &[Stage, Snap] : Snaps) {
    BufferSet Buffers;
    std::string Detail;
    bool Raced = false;
    bool Ok = runVariant(Sim, *Snap, Opt.InputSeed, Opt.CheckRaces, Buffers,
                         Detail, Raced);
    OracleFailure Scratch;
    if (!Ok || Raced || !compareOutputs(Naive, Ref, Buffers, Cmp, Scratch))
      return Stage;
  }
  return "unattributed";
}

/// Static classification of one kernel for the --check-static
/// differential. Clean demands Proven verdicts on every access and
/// barrier plus a clean race report; ProvenOOB means some access carries
/// a Violation verdict (must-execute, proven out of bounds), which the
/// dynamic sanitizer is then obligated to observe.
struct StaticClass {
  bool Clean = false;
  bool ProvenOOB = false;
  std::string Desc;
};

bool sameRaceLog(const RaceLog &A, const RaceLog &B) {
  if (A.Phases != B.Phases || A.Races.size() != B.Races.size())
    return false;
  for (size_t I = 0; I < A.Races.size(); ++I) {
    const RaceRecord &X = A.Races[I], &Y = B.Races[I];
    if (X.Array != Y.Array || X.WriteWrite != Y.WriteWrite ||
        X.Phase != Y.Phase || X.Word != Y.Word || X.T1 != Y.T1 ||
        X.T2 != Y.T2 || X.Block != Y.Block)
      return false;
  }
  return true;
}

/// Bit-compares one named buffer between two BufferSets; fills \p Detail
/// and \returns false at the first diverging element.
bool bufferBitEqual(const std::string &Name, const BufferSet &BufS,
                    const BufferSet &BufV, std::string &Detail) {
  const auto &A = BufS.data(Name);
  const auto &B = BufV.data(Name);
  if (A.size() == B.size() &&
      (A.empty() ||
       std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0))
    return true;
  for (size_t I = 0; I < A.size() && I < B.size(); ++I) {
    if (std::memcmp(&A[I], &B[I], sizeof(float)) != 0) {
      Detail = strFormat("buffer '%s' diverges at [%zu]: scalar %.9g, "
                         "vector %.9g",
                         Name.c_str(), I, A[I], B[I]);
      break;
    }
  }
  if (Detail.empty())
    Detail = strFormat("buffer '%s' sizes diverge", Name.c_str());
  return false;
}

/// Runs \p K with both interpreter engines on identical seeded inputs and
/// demands equal outcomes, bit-identical buffers and a record-identical
/// race log. \returns false with \p Detail filled on divergence.
bool crossCheckInterp(const Simulator &Sim, const KernelFunction &K,
                      unsigned InputSeed, std::string &Detail) {
  Simulator Scalar(Sim.device());
  Scalar.setInterpBackend(InterpBackend::Scalar);
  Simulator Vector(Sim.device());
  Vector.setInterpBackend(InterpBackend::Vector);

  BufferSet BufS, BufV;
  fillFuzzInputs(K, BufS, InputSeed);
  fillFuzzInputs(K, BufV, InputSeed);
  DiagnosticsEngine DiagS, DiagV;
  RaceLog RaceS, RaceV;
  bool OkS = Scalar.runFunctional(K, BufS, DiagS, &RaceS);
  bool OkV = Vector.runFunctional(K, BufV, DiagV, &RaceV);
  if (OkS != OkV) {
    Detail = strFormat("engines disagree on outcome: scalar %s, vector %s\n",
                       OkS ? "ok" : "error", OkV ? "ok" : "error") +
             DiagS.str() + DiagV.str();
    return false;
  }
  if (!OkS)
    return true; // both faulted; the result is discarded either way
  for (const ParamDecl &P : K.params()) {
    if (!P.IsArray)
      continue;
    if (!bufferBitEqual(P.Name, BufS, BufV, Detail))
      return false;
  }
  if (!sameRaceLog(RaceS, RaceV)) {
    Detail = "race logs diverge:\nscalar:\n" + describeRaces(RaceS) +
             "vector:\n" + describeRaces(RaceV) +
             strFormat("(%zu vs %zu records, %d vs %d phases)",
                       RaceS.Races.size(), RaceV.Races.size(), RaceS.Phases,
                       RaceV.Phases);
    return false;
  }
  return true;
}

/// Pipeline analogue of crossCheckInterp: both engines run the whole
/// unfused naive chain on identical seeded inputs and must agree on the
/// outcome, every stage buffer bit-for-bit, and the chain-wide race log.
bool crossCheckInterpPipeline(
    const Simulator &Sim, const std::vector<const KernelFunction *> &Stages,
    unsigned InputSeed, std::string &Detail) {
  Simulator Scalar(Sim.device());
  Scalar.setInterpBackend(InterpBackend::Scalar);
  Simulator Vector(Sim.device());
  Vector.setInterpBackend(InterpBackend::Vector);

  BufferSet BufS, BufV;
  fillPipelineFuzzInputs(Stages, BufS, InputSeed);
  fillPipelineFuzzInputs(Stages, BufV, InputSeed);
  DiagnosticsEngine DiagS, DiagV;
  RaceLog RaceS, RaceV;
  bool OkS = Scalar.runPipelineFunctional(Stages, BufS, DiagS, &RaceS);
  bool OkV = Vector.runPipelineFunctional(Stages, BufV, DiagV, &RaceV);
  if (OkS != OkV) {
    Detail = strFormat("engines disagree on chain outcome: scalar %s, "
                       "vector %s\n",
                       OkS ? "ok" : "error", OkV ? "ok" : "error") +
             DiagS.str() + DiagV.str();
    return false;
  }
  if (!OkS)
    return true;
  for (const KernelFunction *K : Stages)
    for (const ParamDecl &P : K->params())
      if (P.IsArray && !bufferBitEqual(P.Name, BufS, BufV, Detail))
        return false;
  if (!sameRaceLog(RaceS, RaceV)) {
    Detail = "chain race logs diverge:\nscalar:\n" + describeRaces(RaceS) +
             "vector:\n" + describeRaces(RaceV);
    return false;
  }
  return true;
}

StaticClass classifyStatic(const KernelFunction &K) {
  StaticClass C;
  DataflowResult DF = runDataflow(K);
  RaceReport RR = detectSharedRaces(K);
  int Proven = 0, Possible = 0, Violations = 0;
  for (const AccessFact &A : DF.Accesses) {
    if (A.Bounds == Verdict::Proven)
      ++Proven;
    else if (A.Bounds == Verdict::Violation)
      ++Violations;
    else
      ++Possible;
  }
  C.ProvenOOB = Violations > 0;
  C.Clean = DF.boundsClean() && DF.barriersClean() && RR.clean();
  C.Desc = strFormat("accesses: %d proven, %d possible, %d violation; "
                     "barriers %s; races %s",
                     Proven, Possible, Violations,
                     DF.barriersClean() ? "proven" : "unproven",
                     RR.clean() ? "clean" : "unproven");
  return C;
}

} // namespace

OracleResult gpuc::runOracle(Module &M, const KernelFunction &Naive,
                             const OracleOptions &Opt) {
  OracleResult Res;
  Simulator Sim(Opt.Compile.Device);
  Sim.setInterpBackend(Opt.Compile.Interp);

  StaticClass SC;
  if (Opt.CheckStatic)
    SC = classifyStatic(Naive);

  if (Opt.CheckInterp) {
    std::string Detail;
    if (!crossCheckInterp(Sim, Naive, Opt.InputSeed, Detail)) {
      OracleFailure F;
      F.FailKind = OracleFailure::Kind::InterpDivergence;
      F.Variant = "naive";
      F.Stage = "interp";
      F.Detail = Detail;
      Res.Failures.push_back(F);
      Res.Passed = false;
      return Res;
    }
  }

  // Reference: the naive kernel's own outputs on the seeded inputs. Under
  // --check-static the naive run is itself race-checked, since the static
  // claim being audited covers race-freedom too.
  BufferSet Ref;
  {
    fillFuzzInputs(Naive, Ref, Opt.InputSeed);
    DiagnosticsEngine RunDiags;
    RaceLog NaiveRaces;
    bool WantRaces = Opt.CheckStatic && Opt.CheckRaces;
    bool Ok = Sim.runFunctional(Naive, Ref, RunDiags,
                                WantRaces ? &NaiveRaces : nullptr);
    bool Raced = WantRaces && !NaiveRaces.clean();
    if (!Ok || Raced) {
      OracleFailure F;
      F.Variant = "naive";
      F.Stage = "input";
      if (Opt.CheckStatic && SC.Clean) {
        // The engine proved this kernel in-bounds, barrier-uniform and
        // race-free; the dynamic sanitizer disagrees. Unsound analysis.
        F.FailKind = OracleFailure::Kind::StaticUnsound;
        F.Stage = "static";
        F.Detail = "statically clean kernel failed the dynamic sanitizer "
                   "(" + SC.Desc + "):\n" +
                   (!Ok ? RunDiags.str() : describeRaces(NaiveRaces));
      } else {
        F.FailKind = !Ok ? OracleFailure::Kind::RunError
                         : OracleFailure::Kind::Race;
        F.Detail = !Ok ? RunDiags.str() : describeRaces(NaiveRaces);
      }
      Res.Failures.push_back(F);
      Res.Passed = false;
      return Res;
    }
    if (Opt.CheckStatic && SC.ProvenOOB) {
      // A Violation verdict asserts some thread must fault; a clean run
      // refutes the proof. Unsound in the other direction.
      OracleFailure F;
      F.FailKind = OracleFailure::Kind::StaticUnsound;
      F.Variant = "naive";
      F.Stage = "static";
      F.Detail = "proven out-of-bounds access did not fault dynamically (" +
                 SC.Desc + ")";
      Res.Failures.push_back(F);
      Res.Passed = false;
      return Res;
    }
  }

  Comparator Cmp{!kernelHasFloatArith(Naive), Opt.UlpTol, Opt.RelTol};
  Res.ExactCompare = Cmp.Exact;

  // Full pipeline + design-space search. The oracle owns the hook slot;
  // the injected fault (if any) rides inside it.
  CompileOptions CO = Opt.Compile;
  CO.Jobs = 1;
  CO.HookFactory = injectFactory(Opt);
  DiagnosticsEngine CompDiags;
  GpuCompiler GC(M, CompDiags);
  CompileOutput Out = GC.compile(Naive, CO);
  if (!Out.Best || CompDiags.hasErrors()) {
    OracleFailure F;
    F.FailKind = OracleFailure::Kind::CompileError;
    F.Variant = "compile";
    F.Stage = "final";
    F.Detail = CompDiags.str() + Out.Log;
    Res.Failures.push_back(F);
    Res.Passed = false;
    return Res;
  }
  Res.BestBlockN = Out.BestVariant.BlockMergeN;
  Res.BestThreadM = Out.BestVariant.ThreadMergeM;

  // Execute every variant the search produced (feasible or not — pruned
  // and occupancy-limited kernels still must be semantically correct).
  for (const VariantResult &V : Out.Variants) {
    if (!V.Kernel)
      continue;
    ++Res.VariantsChecked;
    OracleFailure F;
    F.Variant = V.Kernel->name();
    F.BlockN = V.BlockMergeN;
    F.ThreadM = V.ThreadMergeM;

    BufferSet Buffers;
    std::string Detail;
    bool Raced = false;
    bool Ok = runVariant(Sim, *V.Kernel, Opt.InputSeed, Opt.CheckRaces,
                         Buffers, Detail, Raced);
    if (Ok && !Raced && compareOutputs(Naive, Ref, Buffers, Cmp, F))
      continue;

    F.FailKind = !Ok ? OracleFailure::Kind::RunError
                 : Raced ? OracleFailure::Kind::Race
                         : OracleFailure::Kind::Mismatch;
    F.Detail = Detail;
    F.Stage = attributeStage(Naive, Opt, V.BlockMergeN, V.ThreadMergeM, Sim,
                             Ref, Cmp);
    // A sanitizer-level failure (fault or race, not a value mismatch) on
    // a variant the engine proved clean is the same unsoundness the naive
    // check hunts for, surfaced on a transformed kernel.
    if (Opt.CheckStatic && F.FailKind != OracleFailure::Kind::Mismatch) {
      StaticClass VSC = classifyStatic(*V.Kernel);
      if (VSC.Clean) {
        F.FailKind = OracleFailure::Kind::StaticUnsound;
        F.Detail = "statically clean variant failed the dynamic sanitizer "
                   "(" + VSC.Desc + "):\n" + Detail;
      }
    }
    Res.Failures.push_back(F);
    Res.Passed = false;
  }
  return Res;
}

OracleResult gpuc::runLayoutOracle(Module &M, const KernelFunction &Naive,
                                   const OracleOptions &Opt) {
  OracleResult Res;
  Simulator Sim(Opt.Compile.Device);
  Sim.setInterpBackend(Opt.Compile.Interp);

  if (Opt.CheckInterp) {
    std::string Detail;
    if (!crossCheckInterp(Sim, Naive, Opt.InputSeed, Detail)) {
      OracleFailure F;
      F.FailKind = OracleFailure::Kind::InterpDivergence;
      F.Variant = "naive";
      F.Stage = "interp";
      F.Detail = Detail;
      Res.Failures.push_back(F);
      Res.Passed = false;
      return Res;
    }
  }

  // Reference: the naive kernel's own outputs on the seeded inputs.
  BufferSet Ref;
  {
    fillFuzzInputs(Naive, Ref, Opt.InputSeed);
    DiagnosticsEngine RunDiags;
    if (!Sim.runFunctional(Naive, Ref, RunDiags, nullptr)) {
      OracleFailure F;
      F.FailKind = OracleFailure::Kind::RunError;
      F.Variant = "naive";
      F.Stage = "input";
      F.Detail = RunDiags.str();
      Res.Failures.push_back(F);
      Res.Passed = false;
      return Res;
    }
  }

  // Tier one: pure block-id remaps installed directly on the naive
  // kernel. A legal remap is a bijection on block ids — it only relabels
  // which physical block runs which logical tile — so the outputs must be
  // bit-identical to naive even for float-arithmetic kernels. This is the
  // strongest claim of the battery and holds with no tolerance at all.
  {
    const LaunchConfig &L = Naive.launch();
    const std::pair<const char *, BlockRemap> Pure[] = {
        {"shift", {1, 0, 0, 1, 1, 0}},
        {"swap", {0, 1, 1, 0, 0, 0}},
        {"skew-x", {1, 1, 0, 1, 0, 0}},
        {"skew-y", {1, 0, 1, 1, 0, 0}},
        {"diagonal", BlockRemap::diagonal()},
    };
    Comparator Bit{/*Exact=*/true, 0, 0.0};
    for (const auto &[Name, Remap] : Pure) {
      if (!remapLegal(Remap, L.GridDimX, L.GridDimY))
        continue;
      KernelFunction *Clone =
          cloneKernel(M, &Naive, Naive.name() + "_remap_" + Name);
      Clone->launch().Remap = Remap;
      ++Res.VariantsChecked;
      OracleFailure F;
      F.Variant = Clone->name();
      F.Stage = std::string("layout:") + Name;
      if (Opt.CheckInterp) {
        std::string Detail;
        if (!crossCheckInterp(Sim, *Clone, Opt.InputSeed, Detail)) {
          F.FailKind = OracleFailure::Kind::InterpDivergence;
          F.Detail = Detail;
          Res.Failures.push_back(F);
          Res.Passed = false;
          continue;
        }
      }
      BufferSet Buffers;
      std::string Detail;
      bool Raced = false;
      bool Ok = runVariant(Sim, *Clone, Opt.InputSeed, Opt.CheckRaces,
                           Buffers, Detail, Raced);
      if (Ok && !Raced && compareOutputs(Naive, Ref, Buffers, Bit, F))
        continue;
      F.FailKind = !Ok     ? OracleFailure::Kind::RunError
                   : Raced ? OracleFailure::Kind::Race
                           : OracleFailure::Kind::Mismatch;
      F.Detail = Detail;
      Res.Failures.push_back(F);
      Res.Passed = false;
    }
  }

  Comparator Cmp{!kernelHasFloatArith(Naive), Opt.UlpTol, Opt.RelTol};
  Res.ExactCompare = Cmp.Exact;

  CompileOptions CO = Opt.Compile;
  CO.Jobs = 1;
  CO.HookFactory = injectFactory(Opt);

  // Identity probe at unit merge factors: yields the post-pipeline launch
  // and the camping scan that seed the family enumeration.
  Module ProbeM;
  DiagnosticsEngine ProbeDiags;
  GpuCompiler ProbeGC(ProbeM, ProbeDiags);
  LayoutPoint Identity = LayoutPoint::identityPoint();
  CampingAnalysis Scan;
  KernelFunction *Probe = ProbeGC.compileVariant(Naive, CO, 1, 1, nullptr,
                                                 nullptr, &Identity, &Scan);
  if (!Probe || ProbeDiags.hasErrors()) {
    OracleFailure F;
    F.FailKind = OracleFailure::Kind::CompileError;
    F.Variant = "compile";
    F.Stage = "layout:identity";
    F.Detail = ProbeDiags.str();
    Res.Failures.push_back(F);
    Res.Passed = false;
    return Res;
  }

  // Tier two: every point of the full family — enumerated
  // unconditionally, not just when camping is detected — compiled through
  // the whole pipeline and compared against naive under the usual
  // comparator. Illegal points degrade to the identity inside applyLayout
  // and still must agree (the degradation itself is under test).
  std::vector<LayoutPoint> Points =
      enumerateLayouts(*Probe, CO.Device, Scan, /*FullFamily=*/true);
  for (const LayoutPoint &P : Points) {
    Module VarM;
    DiagnosticsEngine Diags;
    GpuCompiler GC(VarM, Diags);
    KernelFunction *V = P.identity()
                            ? Probe
                            : GC.compileVariant(Naive, CO, 1, 1, nullptr,
                                                nullptr, &P, nullptr);
    OracleFailure F;
    F.Stage = std::string("layout:") + P.name();
    if (!V || (!P.identity() && Diags.hasErrors())) {
      F.FailKind = OracleFailure::Kind::CompileError;
      F.Variant = "compile";
      F.Detail = Diags.str();
      Res.Failures.push_back(F);
      Res.Passed = false;
      continue;
    }
    ++Res.VariantsChecked;
    F.Variant = V->name();
    if (Opt.CheckInterp) {
      std::string Detail;
      if (!crossCheckInterp(Sim, *V, Opt.InputSeed, Detail)) {
        F.FailKind = OracleFailure::Kind::InterpDivergence;
        F.Detail = Detail;
        Res.Failures.push_back(F);
        Res.Passed = false;
        continue;
      }
    }
    BufferSet Buffers;
    std::string Detail;
    bool Raced = false;
    bool Ok = runVariant(Sim, *V, Opt.InputSeed, Opt.CheckRaces, Buffers,
                         Detail, Raced);
    if (Ok && !Raced && compareOutputs(Naive, Ref, Buffers, Cmp, F))
      continue;
    F.FailKind = !Ok     ? OracleFailure::Kind::RunError
                 : Raced ? OracleFailure::Kind::Race
                         : OracleFailure::Kind::Mismatch;
    F.Detail = Detail;
    Res.Failures.push_back(F);
    Res.Passed = false;
  }
  return Res;
}

OracleResult gpuc::runPipelineOracle(
    Module &M, const std::vector<const KernelFunction *> &Stages,
    const OracleOptions &Opt) {
  OracleResult Res;
  Simulator Sim(Opt.Compile.Device);
  Sim.setInterpBackend(Opt.Compile.Interp);
  const KernelFunction &Final = *Stages.back();

  if (Opt.CheckInterp) {
    std::string Detail;
    if (!crossCheckInterpPipeline(Sim, Stages, Opt.InputSeed, Detail)) {
      OracleFailure F;
      F.FailKind = OracleFailure::Kind::InterpDivergence;
      F.Variant = "chain";
      F.Stage = "interp";
      F.Detail = Detail;
      Res.Failures.push_back(F);
      Res.Passed = false;
      return Res;
    }
  }

  // Reference: the unfused naive chain, stage by stage against one shared
  // buffer set (the simulator is the paper-semantics oracle the fusion
  // transform is tested against).
  BufferSet Ref;
  {
    fillPipelineFuzzInputs(Stages, Ref, Opt.InputSeed);
    DiagnosticsEngine RunDiags;
    RaceLog Races;
    bool Ok = Sim.runPipelineFunctional(Stages, Ref, RunDiags,
                                        Opt.CheckRaces ? &Races : nullptr);
    bool Raced = Opt.CheckRaces && !Races.clean();
    if (!Ok || Raced) {
      OracleFailure F;
      F.FailKind =
          !Ok ? OracleFailure::Kind::RunError : OracleFailure::Kind::Race;
      F.Variant = "chain";
      F.Stage = "input";
      F.Detail = !Ok ? RunDiags.str() : describeRaces(Races);
      Res.Failures.push_back(F);
      Res.Passed = false;
      return Res;
    }
  }

  bool AnyFloat = false;
  for (const KernelFunction *K : Stages)
    AnyFloat |= kernelHasFloatArith(*K);
  Comparator Cmp{!AnyFloat, Opt.UlpTol, Opt.RelTol};
  Res.ExactCompare = Cmp.Exact;

  // Fusion legality + both sides of the design-space search.
  CompileOptions CO = Opt.Compile;
  CO.Jobs = 1;
  CO.HookFactory = injectFactory(Opt);
  DiagnosticsEngine CompDiags;
  GpuCompiler GC(M, CompDiags);
  ProgramCompileOutput Out = GC.compileProgram(Stages, CO);
  bool StageBests = true;
  for (const CompileOutput &SO : Out.StageOuts)
    StageBests &= SO.Best != nullptr;
  if (CompDiags.hasErrors() || Out.StageOuts.size() != Stages.size() ||
      !StageBests) {
    OracleFailure F;
    F.FailKind = OracleFailure::Kind::CompileError;
    F.Variant = "compile";
    F.Stage = "final";
    F.Detail = CompDiags.str();
    Res.Failures.push_back(F);
    Res.Passed = false;
    return Res;
  }
  if (Out.UseFused && Out.FusedOut.Best) {
    Res.BestBlockN = Out.FusedOut.BestVariant.BlockMergeN;
    Res.BestThreadM = Out.FusedOut.BestVariant.ThreadMergeM;
  }

  // The fused *naive* kernel is held to the strongest claim: bit-exact
  // agreement with the chain on the final stage's outputs, regardless of
  // float arithmetic — register/shared-stage placement must preserve the
  // per-element evaluation order exactly.
  if (Out.Fused) {
    ++Res.VariantsChecked;
    OracleFailure F;
    F.Variant = Out.Fused->name();
    F.Stage = "fusion";
    BufferSet FB;
    fillPipelineFuzzInputs(Stages, FB, Opt.InputSeed);
    DiagnosticsEngine RunDiags;
    RaceLog Races;
    bool Ok = Sim.runFunctional(*Out.Fused, FB, RunDiags,
                                Opt.CheckRaces ? &Races : nullptr);
    bool Raced = Opt.CheckRaces && !Races.clean();
    Comparator Bit{/*Exact=*/true, 0, 0.0};
    if (!Ok || Raced || !compareOutputs(Final, Ref, FB, Bit, F)) {
      F.FailKind = !Ok     ? OracleFailure::Kind::RunError
                   : Raced ? OracleFailure::Kind::Race
                           : OracleFailure::Kind::Mismatch;
      F.Detail = !Ok ? RunDiags.str()
                 : Raced
                     ? describeRaces(Races)
                     : "fused naive kernel diverges bit-wise from the "
                       "unfused chain";
      Res.Failures.push_back(F);
      Res.Passed = false;
    }
    // The fused kernel is new code (possibly with a staging barrier);
    // give it the same engine cross-check the chain got.
    if (Opt.CheckInterp) {
      std::string Detail;
      if (!crossCheckInterp(Sim, *Out.Fused, Opt.InputSeed, Detail)) {
        OracleFailure FI;
        FI.FailKind = OracleFailure::Kind::InterpDivergence;
        FI.Variant = Out.Fused->name();
        FI.Stage = "interp";
        FI.Detail = Detail;
        Res.Failures.push_back(FI);
        Res.Passed = false;
      }
    }
  }

  // Every compiled fused variant must match the chain within tolerance.
  if (Out.Fused) {
    for (const VariantResult &V : Out.FusedOut.Variants) {
      if (!V.Kernel)
        continue;
      ++Res.VariantsChecked;
      OracleFailure F;
      F.Variant = V.Kernel->name();
      F.BlockN = V.BlockMergeN;
      F.ThreadM = V.ThreadMergeM;
      F.Stage = "fused-search";
      BufferSet VB;
      fillPipelineFuzzInputs(Stages, VB, Opt.InputSeed);
      DiagnosticsEngine RunDiags;
      RaceLog Races;
      bool Ok = Sim.runFunctional(*V.Kernel, VB, RunDiags,
                                  Opt.CheckRaces ? &Races : nullptr);
      bool Raced = Opt.CheckRaces && !Races.clean();
      if (Ok && !Raced && compareOutputs(Final, Ref, VB, Cmp, F))
        continue;
      F.FailKind = !Ok     ? OracleFailure::Kind::RunError
                   : Raced ? OracleFailure::Kind::Race
                           : OracleFailure::Kind::Mismatch;
      F.Detail = !Ok ? RunDiags.str() : Raced ? describeRaces(Races) : "";
      Res.Failures.push_back(F);
      Res.Passed = false;
    }
  }

  // The unfused compiled side: each stage's winner chained in order.
  {
    ++Res.VariantsChecked;
    OracleFailure F;
    F.Variant = "unfused-best";
    F.Stage = "stage-search";
    std::vector<const KernelFunction *> Bests;
    for (const CompileOutput &SO : Out.StageOuts)
      Bests.push_back(SO.Best);
    BufferSet BB;
    fillPipelineFuzzInputs(Stages, BB, Opt.InputSeed);
    DiagnosticsEngine RunDiags;
    RaceLog Races;
    bool Ok = Sim.runPipelineFunctional(Bests, BB, RunDiags,
                                        Opt.CheckRaces ? &Races : nullptr);
    bool Raced = Opt.CheckRaces && !Races.clean();
    if (!Ok || Raced || !compareOutputs(Final, Ref, BB, Cmp, F)) {
      F.FailKind = !Ok     ? OracleFailure::Kind::RunError
                   : Raced ? OracleFailure::Kind::Race
                           : OracleFailure::Kind::Mismatch;
      F.Detail = !Ok ? RunDiags.str() : Raced ? describeRaces(Races) : "";
      Res.Failures.push_back(F);
      Res.Passed = false;
    }
  }
  return Res;
}
