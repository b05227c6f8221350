//===-- tests/DataflowTest.cpp - abstract-interpretation golden facts -----===//
//
// Golden range/divergence/verdict facts for the dataflow engine
// (analysis/Dataflow.h): every paper kernel must come out statically
// clean (no Violation access, every barrier Proven), representative
// kernels pin exact intervals and divergence lattice points, and
// adversarial kernels (divergent barriers, clamped vs unclamped halo
// guards, non-affine subscripts, proven out-of-bounds stores) must land
// on exactly the right side of the Proven / Possible / Violation fence.
//
//===----------------------------------------------------------------------===//

#include "analysis/BarrierCheck.h"
#include "analysis/Dataflow.h"
#include "ast/Printer.h"
#include "baselines/NaiveKernels.h"
#include "core/Compiler.h"
#include "parser/Parser.h"
#include "sim/SimCache.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace gpuc;

namespace {

KernelFunction *parseSource(Module &M, const std::string &Src) {
  DiagnosticsEngine D;
  Parser P(Src, D);
  KernelFunction *K = P.parseKernel(M);
  EXPECT_NE(K, nullptr) << D.str();
  EXPECT_FALSE(D.hasErrors()) << D.str();
  return K;
}

/// Canonical 16x1 blocks over the kernel's work domain, as the sanitizer
/// tests use.
void setLaunch(KernelFunction &K, long long Bx = 16, long long By = 1) {
  LaunchConfig &L = K.launch();
  L.BlockDimX = Bx;
  L.BlockDimY = By;
  L.GridDimX = std::max<long long>(1, K.workDomainX() / Bx);
  L.GridDimY = std::max<long long>(1, K.workDomainY() / By);
}

/// First access fact on the named array (store or load per \p IsStore).
const AccessFact *findAccess(const DataflowResult &R,
                             const std::string &Array, bool IsStore) {
  for (const AccessFact &A : R.Accesses)
    if (A.Array == Array && A.IsStore == IsStore)
      return &A;
  return nullptr;
}

std::string describe(const DataflowResult &R) {
  std::string S;
  for (const AccessFact &A : R.Accesses)
    S += std::string(A.IsStore ? "store " : "load ") + A.Array + " " +
         A.Words.str() + " verdict=" + verdictName(A.Bounds) + "\n";
  for (const BarrierFact &B : R.Barriers)
    S += std::string(B.IsGlobal ? "globalSync" : "syncthreads") +
         " verdict=" + verdictName(B.Uniformity) + " (" + B.Reason + ")\n";
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Paper kernels: all statically clean.
//===----------------------------------------------------------------------===//

class PaperKernelDataflow : public ::testing::TestWithParam<Algo> {};

TEST_P(PaperKernelDataflow, NoViolationsAndBarriersProven) {
  Module M;
  DiagnosticsEngine D;
  long long N = GetParam() == Algo::CONV || GetParam() == Algo::STRSM
                    ? 64
                    : 128;
  if (GetParam() == Algo::RD || GetParam() == Algo::CRD ||
      GetParam() == Algo::VV)
    N = 4096;
  KernelFunction *K = parseNaive(M, GetParam(), N, D);
  ASSERT_NE(K, nullptr) << D.str();
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  EXPECT_FALSE(R.anyViolation()) << describe(R);
  EXPECT_TRUE(R.barriersClean()) << describe(R);
  // Every paper kernel addresses its arrays affinely: the engine must
  // resolve a finite word interval for each access.
  for (const AccessFact &A : R.Accesses)
    EXPECT_TRUE(A.Words.Known) << A.Array << ": " << describe(R);
}

INSTANTIATE_TEST_SUITE_P(AllPaperKernels, PaperKernelDataflow,
                         ::testing::Values(Algo::TMV, Algo::MM, Algo::MV,
                                           Algo::VV, Algo::RD, Algo::STRSM,
                                           Algo::CONV, Algo::TP,
                                           Algo::DEMOSAIC, Algo::IMREGIONMAX,
                                           Algo::CRD));

//===----------------------------------------------------------------------===//
// Golden range and divergence facts.
//===----------------------------------------------------------------------===//

TEST(Dataflow, AffineLocalRangeAndDivergence) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float out[128]) {\n"
                                  "  int i = tidx * 2 + 1;\n"
                                  "  out[i] = 0.0f;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K); // blockDim (16,1), grid (4,1)
  DataflowResult R = runDataflow(*K);
  auto It = R.ExitVars.find("i");
  ASSERT_NE(It, R.ExitVars.end());
  const VarFact &V = It->second;
  EXPECT_TRUE(V.HasForm);
  // tidx in [0,15]: i = 2*tidx + 1 in [1, 31], both endpoints attained.
  EXPECT_TRUE(V.Range.Known);
  EXPECT_EQ(V.Range.Lo, 1);
  EXPECT_EQ(V.Range.Hi, 31);
  EXPECT_TRUE(V.Range.Exact);
  EXPECT_EQ(V.Div.Thread, Divergence::TidDependent);
  EXPECT_EQ(V.Div.Block, Divergence::Uniform);
}

TEST(Dataflow, IdxRangeSpansGrid) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(c)\n"
                                  "__global__ void k(float a[4096],\n"
                                  "                  float c[4096]) {\n"
                                  "  c[idx] = a[idx];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K); // 16 threads x 256 blocks = exactly 4096 lanes
  DataflowResult R = runDataflow(*K);
  ASSERT_TRUE(R.boundsClean()) << describe(R);
  const AccessFact *A = findAccess(R, "c", /*IsStore=*/true);
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(A->Words.Known);
  EXPECT_EQ(A->Words.Lo, 0);
  EXPECT_EQ(A->Words.Hi, 4095);
  EXPECT_EQ(A->TotalWords, 4096);
  EXPECT_EQ(A->Bounds, Verdict::Proven);
  EXPECT_EQ(A->AddrDiv.Thread, Divergence::TidDependent);
  EXPECT_FALSE(A->Guarded);
}

TEST(Dataflow, LoopIteratorRangeFeedsAccessInterval) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(c)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float a[64][32],\n"
                                  "                  float c[64]) {\n"
                                  "  float s = 0.0f;\n"
                                  "  for (int j = 0; j < 32; j = j + 1) {\n"
                                  "    s += a[idx][j];\n"
                                  "  }\n"
                                  "  c[idx] = s;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  EXPECT_TRUE(R.boundsClean()) << describe(R);
  const AccessFact *A = findAccess(R, "a", /*IsStore=*/false);
  ASSERT_NE(A, nullptr);
  // a[idx][j]: word = 32*idx + j, idx in [0,63], j in [0,31].
  EXPECT_TRUE(A->Words.Known);
  EXPECT_EQ(A->Words.Lo, 0);
  EXPECT_EQ(A->Words.Hi, 63 * 32 + 31);
  EXPECT_EQ(A->Bounds, Verdict::Proven);
  // The accumulator folds in array loads, whose divergence the engine
  // does not track: it must degrade toward Unknown, never claim Uniform.
  auto It = R.ExitVars.find("s");
  ASSERT_NE(It, R.ExitVars.end());
  EXPECT_NE(It->second.Div.Thread, Divergence::Uniform);
}

TEST(Dataflow, UniformScalarStaysUniform) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(c)\n"
                                  "#pragma gpuc bind(n=64)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float c[64], int n) {\n"
                                  "  int half = n / 2;\n"
                                  "  int base = bidx * 16;\n"
                                  "  c[base + tidx] = 1.0f;\n"
                                  "  int t = half + base;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  // n is bound to 64: half is the exact point 32, thread- and
  // block-uniform.
  auto Half = R.ExitVars.find("half");
  ASSERT_NE(Half, R.ExitVars.end());
  EXPECT_TRUE(Half->second.Range.Known);
  EXPECT_EQ(Half->second.Range.Lo, 32);
  EXPECT_EQ(Half->second.Range.Hi, 32);
  EXPECT_EQ(Half->second.Div.Thread, Divergence::Uniform);
  EXPECT_EQ(Half->second.Div.Block, Divergence::Uniform);
  // base is block-dependent but uniform within a block.
  auto Base = R.ExitVars.find("base");
  ASSERT_NE(Base, R.ExitVars.end());
  EXPECT_EQ(Base->second.Div.Thread, Divergence::Uniform);
  EXPECT_EQ(Base->second.Div.Block, Divergence::TidDependent);
}

//===----------------------------------------------------------------------===//
// Adversarial: barrier uniformity.
//===----------------------------------------------------------------------===//

TEST(Dataflow, DivergentBarrierIsViolation) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(s)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float s[64]) {\n"
                                  "  __shared__ float t[16];\n"
                                  "  t[tidx] = s[idx];\n"
                                  "  if (tidx < 8) {\n"
                                  "    __syncthreads();\n"
                                  "  }\n"
                                  "  s[idx] = t[tidx];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  ASSERT_EQ(R.Barriers.size(), 1u);
  EXPECT_EQ(R.Barriers[0].Uniformity, Verdict::Violation) << describe(R);
  std::vector<BarrierIssue> Issues = checkBarriers(R);
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_EQ(Issues[0].Uniformity, Verdict::Violation);
}

TEST(Dataflow, ThreadDependentTripBarrierIsViolation) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(s)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float s[64]) {\n"
                                  "  __shared__ float t[16];\n"
                                  "  t[tidx] = s[idx];\n"
                                  "  for (int i = 0; i < tidx; i = i + 1) {\n"
                                  "    __syncthreads();\n"
                                  "  }\n"
                                  "  s[idx] = t[tidx];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  ASSERT_EQ(R.Barriers.size(), 1u);
  EXPECT_EQ(R.Barriers[0].Uniformity, Verdict::Violation) << describe(R);
  EXPECT_NE(R.Barriers[0].Reason.find("trip"), std::string::npos);
}

TEST(Dataflow, UniformTripBarrierIsProven) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(s)\n"
                                  "#pragma gpuc bind(n=8)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float s[64], int n) {\n"
                                  "  __shared__ float t[16];\n"
                                  "  for (int i = 0; i < n; i = i + 1) {\n"
                                  "    t[tidx] = s[idx];\n"
                                  "    __syncthreads();\n"
                                  "    s[idx] = t[15 - tidx];\n"
                                  "    __syncthreads();\n"
                                  "  }\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  ASSERT_EQ(R.Barriers.size(), 2u);
  EXPECT_TRUE(R.barriersClean()) << describe(R);
  EXPECT_TRUE(checkBarriers(R).empty());
}

TEST(Dataflow, WhileWithThreadDependentConditionFlagsBarrier) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(s)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float s[64]) {\n"
                                  "  __shared__ float t[16];\n"
                                  "  int i = tidx;\n"
                                  "  while (i < 16) {\n"
                                  "    t[tidx] = s[idx];\n"
                                  "    __syncthreads();\n"
                                  "    i = i + 1;\n"
                                  "  }\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  ASSERT_EQ(R.Barriers.size(), 1u);
  // Different threads run the loop a different number of times: the
  // barrier must not be proven uniform.
  EXPECT_NE(R.Barriers[0].Uniformity, Verdict::Proven) << describe(R);
}

//===----------------------------------------------------------------------===//
// Adversarial: bounds verdicts.
//===----------------------------------------------------------------------===//

TEST(Dataflow, ClampedHaloGuardIsProven) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float in[64],\n"
                                  "                  float out[64]) {\n"
                                  "  int i = idx - 1;\n"
                                  "  if (i >= 0) {\n"
                                  "    out[i] = in[i];\n"
                                  "  }\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  const AccessFact *A = findAccess(R, "out", /*IsStore=*/true);
  ASSERT_NE(A, nullptr);
  // The guard clips i to [0, 62]: provably in bounds, and marked guarded.
  EXPECT_EQ(A->Bounds, Verdict::Proven) << describe(R);
  EXPECT_TRUE(A->Guarded);
}

TEST(Dataflow, UnclampedHaloIsPossible) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float in[64],\n"
                                  "                  float out[64]) {\n"
                                  "  int i = idx - 1;\n"
                                  "  out[idx] = in[i];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  const AccessFact *A = findAccess(R, "in", /*IsStore=*/false);
  ASSERT_NE(A, nullptr);
  // i ranges over [-1, 62]: not proven, but the first thread's fault is
  // real, so the engine may even prove the violation; it must not claim
  // Proven.
  EXPECT_NE(A->Bounds, Verdict::Proven) << describe(R);
}

TEST(Dataflow, ProvenOutOfBoundsStoreIsViolation) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float out[64]) {\n"
                                  "  out[idx + 64] = 1.0f;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  const AccessFact *A = findAccess(R, "out", /*IsStore=*/true);
  ASSERT_NE(A, nullptr);
  // Every thread writes past the end: word range [64, 127] against 64
  // declared words, unguarded.
  EXPECT_EQ(A->Bounds, Verdict::Violation) << describe(R);
  EXPECT_TRUE(R.anyViolation());
  EXPECT_FALSE(R.boundsClean());
}

TEST(Dataflow, ExactEndpointOutOfBoundsIsViolation) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float out[63]) {\n"
                                  "  out[idx] = 1.0f;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  const AccessFact *A = findAccess(R, "out", /*IsStore=*/true);
  ASSERT_NE(A, nullptr);
  // idx attains 63 exactly (affine over the full launch), and word 63 is
  // one past the declared extent: a proven violation even though most
  // threads are fine.
  EXPECT_EQ(A->Bounds, Verdict::Violation) << describe(R);
}

TEST(Dataflow, NonAffineIndexIsPossibleNotViolation) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float in[64],\n"
                                  "                  float out[64]) {\n"
                                  "  int i = tidx * tidx;\n"
                                  "  out[idx] = in[i];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  const AccessFact *A = findAccess(R, "in", /*IsStore=*/false);
  ASSERT_NE(A, nullptr);
  // tidx*tidx has no affine form; the engine must degrade to Possible,
  // never to a spurious proof in either direction.
  EXPECT_EQ(A->Bounds, Verdict::Possible) << describe(R);
}

TEST(Dataflow, SharedAccessBoundsProven) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float in[64],\n"
                                  "                  float out[64]) {\n"
                                  "  __shared__ float t[16];\n"
                                  "  t[tidx] = in[idx];\n"
                                  "  __syncthreads();\n"
                                  "  out[idx] = t[15 - tidx];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  EXPECT_TRUE(R.boundsClean()) << describe(R);
  EXPECT_TRUE(R.barriersClean()) << describe(R);
  const AccessFact *A = findAccess(R, "t", /*IsStore=*/true);
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(A->IsShared);
  EXPECT_EQ(A->TotalWords, 16);
  EXPECT_EQ(A->Words.Lo, 0);
  EXPECT_EQ(A->Words.Hi, 15);
}

//===----------------------------------------------------------------------===//
// Soundness invariant: Violation implies the verdict-mode contract.
//===----------------------------------------------------------------------===//

TEST(Dataflow, VerdictNamesStable) {
  EXPECT_STREQ(verdictName(Verdict::Proven), "proven");
  EXPECT_STREQ(verdictName(Verdict::Possible), "possible");
  EXPECT_STREQ(verdictName(Verdict::Violation), "violation");
}

//===----------------------------------------------------------------------===//
// Pinned engine output over every search variant of the example kernels.
//===----------------------------------------------------------------------===//

#if defined(GPUC_EXAMPLE_KERNELS) && defined(GPUC_DATAFLOW_DIGEST)

namespace {

std::string divName(const DivFact &D) {
  return std::string(divergenceName(D.Thread)) + "/" +
         divergenceName(D.Block);
}

std::string formStr(const AffineExpr &A) {
  std::string S = strFormat("%lld+%lld*tx+%lld*ty+%lld*bx+%lld*by", A.Const,
                            A.CTidx, A.CTidy, A.CBidx, A.CBidy);
  for (const auto &[Name, C] : A.LoopCoeffs)
    S += strFormat("+%lld*%s", C, Name.c_str());
  return S;
}

/// Every fact the engine reports, in result order: each access's words,
/// verdict and divergence, each barrier's verdict and reason, and the
/// exit-state variable facts.
std::string dumpResult(const DataflowResult &R) {
  std::string S;
  for (const AccessFact &A : R.Accesses)
    S += strFormat("access %s %s%s @%d:%d words=%s total=%lld lanes=%d "
                   "%s addr=%s%s\n",
                   A.Array.c_str(), A.IsStore ? "store" : "load",
                   A.IsShared ? " shared" : "", A.Loc.Line, A.Loc.Col,
                   A.Words.str().c_str(), A.TotalWords, A.Lanes,
                   verdictName(A.Bounds), divName(A.AddrDiv).c_str(),
                   A.Guarded ? " guarded" : "");
  for (const BarrierFact &B : R.Barriers)
    S += strFormat("barrier %s %s (%s)\n",
                   B.IsGlobal ? "global" : "block",
                   verdictName(B.Uniformity), B.Reason.c_str());
  for (const auto &[Name, F] : R.ExitVars)
    S += strFormat("var %s range=%s div=%s form=%s\n", Name.c_str(),
                   F.Range.str().c_str(), divName(F.Div).c_str(),
                   F.HasForm ? formStr(F.Form).c_str() : "none");
  return S;
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::vector<std::string> exampleKernels() {
  std::vector<std::string> Files;
  for (const auto &E :
       std::filesystem::directory_iterator(GPUC_EXAMPLE_KERNELS))
    if (E.path().extension() == ".cu")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Every variant a search over \p Path returns: the candidates of a
/// single-kernel search, or of each stage's and the fused kernel's
/// searches for a pipeline.
std::vector<const VariantResult *>
searchVariants(const std::vector<KernelFunction *> &Stages, GpuCompiler &GC,
               const CompileOptions &Opt, CompileOutput &Single,
               ProgramCompileOutput &Program) {
  std::vector<const VariantResult *> Vs;
  auto Add = [&](const CompileOutput &Out) {
    for (const VariantResult &V : Out.Variants)
      Vs.push_back(&V);
  };
  if (Stages.size() == 1) {
    Single = GC.compile(*Stages.front(), Opt);
    Add(Single);
    return Vs;
  }
  Program = GC.compileProgram(
      std::vector<const KernelFunction *>(Stages.begin(), Stages.end()), Opt);
  for (const CompileOutput &Out : Program.StageOuts)
    Add(Out);
  if (Program.FusionLegal)
    Add(Program.FusedOut);
  return Vs;
}

/// The search's static-prune verdict must be exactly the engine's
/// Violation verdict on the variant it returned (occupancy-infeasible
/// candidates are rejected before the verdict is consulted).
void expectPruneMatchesEngine(const std::vector<const VariantResult *> &Vs,
                              const std::string &Where) {
  for (const VariantResult *V : Vs) {
    ASSERT_NE(V->Kernel, nullptr) << Where;
    const bool Violation = runDataflow(*V->Kernel).anyViolation();
    EXPECT_EQ(V->StaticallyPruned, V->LimitedBy ? false : Violation)
        << Where << " " << V->Kernel->name() << " " << V->Layout;
  }
}

} // namespace

TEST(DataflowDigest, ExampleVariantsMatchPinnedEngineOutput) {
  // One line per variant: file, device, name, layout and factors, then a
  // hash of dumpResult. The fixture pins the engine's full output, so a
  // faster engine must reproduce it fact for fact. On a mismatch the
  // actual digest is written next to the test binary
  // (dataflow_digest.actual.txt); after an intended change of the
  // engine's facts, copy it over tests/fixtures/dataflow_digest.txt.
  const std::vector<std::string> Files = exampleKernels();
  ASSERT_FALSE(Files.empty());
  std::string Digest;
  std::map<std::string, std::string> Dumps;
  SimCache Cache;
  for (const DeviceSpec &Dev : {DeviceSpec::gtx280(), DeviceSpec::gtx8800()})
    for (const std::string &Path : Files) {
      const std::string File = std::filesystem::path(Path).filename();
      Module M;
      DiagnosticsEngine D;
      Parser P(readFile(Path), D);
      std::vector<KernelFunction *> Stages = P.parseProgram(M);
      ASSERT_FALSE(Stages.empty()) << File << "\n" << D.str();
      CompileOptions Opt;
      Opt.Device = Dev;
      Opt.Cache = &Cache;
      GpuCompiler GC(M, D);
      CompileOutput Single;
      ProgramCompileOutput Program;
      std::vector<const VariantResult *> Vs =
          searchVariants(Stages, GC, Opt, Single, Program);
      ASSERT_FALSE(Vs.empty()) << File;
      for (const VariantResult *V : Vs) {
        const std::string Key =
            strFormat("%s %s %s %s b%d t%d", File.c_str(), Dev.Name.c_str(),
                      V->Kernel->name().c_str(), V->Layout, V->BlockMergeN,
                      V->ThreadMergeM);
        const std::string Dump = dumpResult(runDataflow(*V->Kernel));
        Digest += strFormat("%s %016llx\n", Key.c_str(),
                            static_cast<unsigned long long>(fnv1a(Dump)));
        Dumps[Key] = Dump;
      }
      expectPruneMatchesEngine(Vs, File + " " + Dev.Name);
    }

  const std::string Pinned = readFile(GPUC_DATAFLOW_DIGEST);
  if (Digest == Pinned)
    return;
  std::ofstream("dataflow_digest.actual.txt", std::ios::binary) << Digest;
  std::istringstream Want(Pinned), Got(Digest);
  std::string W, G;
  while (std::getline(Want, W) && std::getline(Got, G))
    if (W != G) {
      const std::string Key = G.substr(0, G.rfind(' '));
      ADD_FAILURE() << "first differing variant:\n  pinned " << W
                    << "\n  actual " << G << "\nengine output:\n"
                    << Dumps[Key];
      return;
    }
  ADD_FAILURE() << "digest length differs (pinned "
                << std::count(Pinned.begin(), Pinned.end(), '\n')
                << " variants, actual "
                << std::count(Digest.begin(), Digest.end(), '\n') << ")";
}

TEST(DataflowDigest, PruneVerdictMatchesEngineWithoutVerifyOrCoalescing) {
  // compileVariant's early exits (no coalescing) and Verify = false never
  // run the engine inside the pipeline; the search must then take the
  // verdict from its own run.
  SimCache Cache;
  for (bool Coalesce : {true, false})
    for (const std::string &Path : exampleKernels()) {
      const std::string File = std::filesystem::path(Path).filename();
      Module M;
      DiagnosticsEngine D;
      Parser P(readFile(Path), D);
      std::vector<KernelFunction *> Stages = P.parseProgram(M);
      ASSERT_FALSE(Stages.empty()) << File << "\n" << D.str();
      CompileOptions Opt;
      Opt.Verify = false;
      Opt.Coalesce = Coalesce;
      Opt.Cache = &Cache;
      GpuCompiler GC(M, D);
      CompileOutput Single;
      ProgramCompileOutput Program;
      expectPruneMatchesEngine(
          searchVariants(Stages, GC, Opt, Single, Program),
          File + (Coalesce ? " verify=off" : " verify=off coalesce=off"));
    }
}

#endif // GPUC_EXAMPLE_KERNELS && GPUC_DATAFLOW_DIGEST
