//===-- perfbench/harness/Jobs.cpp - Requests and their reference ---------===//

#include "Jobs.h"

#include "ast/Hash.h"
#include "ast/Printer.h"
#include "baselines/CpuReference.h"
#include "core/Compiler.h"
#include "fuzz/KernelGen.h"
#include "fuzz/Oracle.h"
#include "parser/Parser.h"
#include "serve/Service.h"
#include "sim/SimCache.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include <unistd.h>

using namespace gpuc;
using namespace gpuc::perfbench;
using namespace gpuc::serve;

const std::vector<PaperKernel> &gpuc::perfbench::paperKernels() {
  static const std::vector<PaperKernel> Jobs = [] {
    // bench_fig11's sizes.
    auto Size = [](Algo A) -> long long {
      switch (A) {
      case Algo::RD:
        return 1 << 21;
      case Algo::VV:
        return 1 << 20;
      case Algo::STRSM:
        return 512;
      default:
        return 1024;
      }
    };
    std::vector<PaperKernel> V;
    for (const char *Dev : {"gtx280", "gtx8800"})
      for (Algo A : table1Algos())
        V.push_back({A, Size(A), Dev});
    return V;
  }();
  return Jobs;
}

const char *gpuc::perfbench::reqClassName(ReqClass C) {
  switch (C) {
  case ReqClass::Paper:
    return "paper";
  case ReqClass::Replay:
    return "replay";
  case ReqClass::Recompile:
    return "recompile";
  case ReqClass::Fresh:
    return "fresh";
  case ReqClass::Lint:
    return "lint";
  }
  return "?";
}

Request gpuc::perfbench::paperRequest(int Index, ReqClass Class,
                                      uint32_t ExtraFlags) {
  const PaperKernel &P = paperKernels()[Index];
  Request R;
  R.Class = Class;
  R.Paper = Index;
  R.Job.Name = strFormat("%s-%lld/%s", algoInfo(P.A).Name, P.N, P.Device);
  R.Job.Source = naiveSource(P.A, P.N);
  R.Job.DeviceName = P.Device;
  R.Job.Flags = jobDefaultFlags() | ExtraFlags;
  return R;
}

namespace {

uint64_t mix(uint64_t A, uint64_t B) {
  // splitmix64 finalizer over the pair.
  uint64_t Z = A * 0x9e3779b97f4a7c15ull + B + 0x632be59bd9b4e019ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

} // namespace

Request MixedStream::next(uint64_t &Index) {
  std::lock_guard<std::mutex> Lock(Mu);
  Index = NextIndex++;
  return make(Index);
}

Request MixedStream::make(uint64_t I) {
  const uint64_t Block = I / 10, Pos = I % 10;
  // Slot layout of this block: 0-7 replay, 8 recompile, 9 fresh, shuffled.
  std::vector<int> Slots = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::mt19937_64 Rng(mix(Seed, Block));
  std::shuffle(Slots.begin(), Slots.end(), Rng);
  const int Slot = Slots[Pos];
  const int NumPaper = static_cast<int>(paperKernels().size());
  if (Slot < 8) {
    const uint64_t K = Block * 8 + Slot;
    return paperRequest(static_cast<int>(mix(Seed ^ 0x5eed, K) % NumPaper),
                        ReqClass::Replay);
  }
  if (Slot == 8)
    return paperRequest(static_cast<int>(Block % NumPaper),
                        ReqClass::Recompile, JF_SearchStats);
  // Fresh: every fourth draw is a pipeline (the fusion path). Draws cycle
  // through KernelGen's templates, whose compile costs differ by two
  // orders of magnitude (mmlike ~200 ms, every other template under
  // 15 ms), so every seed sends the same template mix; the seed picks the
  // kernels. Structural duplicates of an earlier draw are skipped so each
  // one is never-seen.
  static const char *const KernelShapes[] = {
      "map1d", "stencil1d", "map2d", "mmlike", "mvlike", "interleave",
      "reduction"};
  static const char *const PipelineShapes[] = {
      "chain1d", "chain2d", "mv_chain", "stencil_chain", "loop_consumer"};
  Request R;
  R.Class = ReqClass::Fresh;
  R.Job.Flags = jobDefaultFlags();
  R.Job.DeviceName = "gtx280";
  R.Pipeline = Block % 4 == 3;
  uint64_t &Draws = R.Pipeline ? PipelineDraws : KernelDraws;
  std::string Want = R.Pipeline ? PipelineShapes[Draws++ % 5]
                                : KernelShapes[Draws++ % 7];
  for (int Tries = 1;; ++Tries) {
    // A template whose distinct kernels are used up (reduction has about
    // a dozen) gives way to the next one.
    if (Tries % 256 == 0)
      Want = R.Pipeline ? PipelineShapes[Draws++ % 5]
                        : KernelShapes[Draws++ % 7];
    R.GenSeed =
        static_cast<unsigned>(mix(Seed ^ 0xf4e5, GenAttempts++) & 0x7fffffff);
    KernelGen G(R.GenSeed);
    std::string Shape;
    uint64_t Hash;
    if (R.Pipeline) {
      GeneratedPipeline P = G.generatePipeline();
      R.Job.Source = P.Source;
      Shape = P.Shape;
      Hash = P.StructureHash;
    } else {
      GeneratedKernel K = G.generate();
      R.Job.Source = K.Source;
      Shape = K.Shape;
      Hash = K.StructureHash;
    }
    if (Shape == Want && FreshSeen.insert(hashCombine(Hash, R.Pipeline)).second)
      break;
  }
  R.Job.Name = strFormat("fresh-%s-%u", R.Pipeline ? "pipeline" : "kernel",
                         R.GenSeed);
  return R;
}

std::string gpuc::perfbench::stableErr(const std::string &Err) {
  std::istringstream In(Err);
  std::string Line, Out;
  while (std::getline(In, Line)) {
    if (Line.rfind("  wall ", 0) == 0 || Line.rfind("  lane-summed", 0) == 0 ||
        Line.rfind("  sim cache:", 0) == 0 ||
        Line.rfind("  scalar fallbacks:", 0) == 0)
      continue;
    Out += Line + "\n";
  }
  return Out;
}

namespace {

uint64_t fileHash(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  return hashBytes(0xcbf29ce484222325ull, Bytes.data(), Bytes.size());
}

/// Relative max-error comparison of every output array of \p Params.
bool outputsMatch(const std::vector<ParamDecl> &Params, const BufferSet &Want,
                  const BufferSet &Got, std::string &Why) {
  for (const ParamDecl &P : Params) {
    if (!P.IsArray || !P.IsOutput)
      continue;
    long long Bad = countMismatches(Got.data(P.Name), Want.data(P.Name));
    if (Bad) {
      Why = strFormat("%lld mismatches in '%s'", Bad, P.Name.c_str());
      return false;
    }
  }
  return true;
}

/// Functional check of the winner of \p R (compiled here; its text must be
/// the reference text). Fills WinnerMs, Functional and Why.
void checkWinner(const Request &R, Reference &Ref) {
  Module M;
  DiagnosticsEngine Diags;
  Parser P(R.Job.Source, Diags);
  std::vector<KernelFunction *> Stages = P.parseProgram(M);
  SimCache Mem;
  ServiceContext Ctx;
  Ctx.Mem = &Mem;
  CompileOptions Opt;
  optionsFromJob(R.Job, Ctx, Opt);
  GpuCompiler GC(M, Diags);
  Simulator Sim(Opt.Device);
  DiagnosticsEngine RunDiags;
  auto Fail = [&](std::string Why) {
    Ref.Functional = false;
    Ref.Why = std::move(Why);
  };
  if (Stages.size() > 1) {
    std::vector<const KernelFunction *> CStages(Stages.begin(), Stages.end());
    ProgramCompileOutput Out = GC.compileProgram(CStages, Opt);
    if (Out.ProgramText != Ref.Result.Out)
      return Fail("re-compiled program text differs from the reference");
    Ref.WinnerMs = Out.UseFused ? Out.FusedMs : Out.UnfusedMs;
    BufferSet Want, Got;
    fillPipelineFuzzInputs(CStages, Want, 1);
    Got = Want;
    bool Ok = Sim.runPipelineFunctional(CStages, Want, RunDiags);
    if (Out.UseFused)
      Ok = Ok && Sim.runFunctional(*Out.FusedOut.Best, Got, RunDiags);
    else
      for (const CompileOutput &C : Out.StageOuts)
        Ok = Ok && Sim.runFunctional(*C.Best, Got, RunDiags);
    if (!Ok)
      return Fail("functional run failed: " + RunDiags.str());
    std::string Why;
    if (!outputsMatch(Stages.back()->params(), Want, Got, Why))
      return Fail(Why);
    return;
  }
  CompileOutput Out = GC.compile(*Stages.front(), Opt);
  if (!Out.Best || printKernel(*Out.Best) != Ref.Result.Out)
    return Fail("re-compiled winner text differs from the reference");
  Ref.WinnerMs = Out.BestVariant.Perf.TimeMs;
  if (R.Paper >= 0) {
    const PaperKernel &PK = paperKernels()[R.Paper];
    BufferSet B;
    initInputs(PK.A, PK.N, B);
    std::vector<float> Want = cpuReference(PK.A, PK.N, B);
    if (!Sim.runFunctional(*Out.Best, B, RunDiags))
      return Fail("functional run failed: " + RunDiags.str());
    long long Bad = countMismatches(B.data(outputBufferName(PK.A)), Want);
    if (Bad)
      Fail(strFormat("%lld mismatches against cpuReference", Bad));
    return;
  }
  BufferSet Want, Got;
  fillFuzzInputs(*Stages.front(), Want, 1);
  Got = Want;
  if (!Sim.runFunctional(*Stages.front(), Want, RunDiags) ||
      !Sim.runFunctional(*Out.Best, Got, RunDiags))
    return Fail("functional run failed: " + RunDiags.str());
  std::string Why;
  if (!outputsMatch(Stages.front()->params(), Want, Got, Why))
    Fail(Why);
}

} // namespace

Verifier::Verifier(std::string StateDir, const std::string &Binary)
    : Dir(std::move(StateDir) + "/ref") {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  BinaryId = fileHash(Binary);
}

std::string Verifier::pathFor(const Request &R) const {
  uint64_t H = hashString(BinaryId, R.Job.Source);
  H = hashString(H, R.Job.DeviceName);
  H = hashCombine(H, R.Job.Flags);
  return strFormat("%s/%016llx.ref", Dir.c_str(),
                   static_cast<unsigned long long>(H));
}

Reference Verifier::compute(const Request &R) {
  Reference Ref;
  SimCache Mem;
  ServiceContext Ctx;
  Ctx.Mem = &Mem;
  Ctx.Jobs = 1;
  Ref.Result = runCompileJob(R.Job, Ctx);
  // Plain compiles carry the winner check; flagged variants of the same
  // job (search stats, sanitizer) emit the same winner.
  if (R.Job.Flags == jobDefaultFlags() && Ref.Result.Code == 0)
    checkWinner(R, Ref);
  return Ref;
}

Reference Verifier::reference(const Request &R) {
  const std::string Path = pathFor(R);
  {
    std::ifstream In(Path, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    ByteReader Rd(Bytes);
    const std::string Encoded = Rd.str();
    ByteReader ResultReader(Encoded);
    Reference Ref;
    if (!Rd.failed() && decodeCompileResult(ResultReader, Ref.Result)) {
      Ref.WinnerMs = Rd.f64();
      Ref.Functional = Rd.u8() != 0;
      Ref.Why = Rd.str();
      if (!Rd.failed())
        return Ref;
    }
  }
  Reference Ref = compute(R);
  ByteWriter ResultWriter, W;
  encodeCompileResult(ResultWriter, Ref.Result);
  W.str(ResultWriter.buffer());
  W.f64(Ref.WinnerMs);
  W.u8(Ref.Functional ? 1 : 0);
  W.str(Ref.Why);
  // Publish atomically: concurrent runs of one build may race here.
  const std::string Tmp =
      strFormat("%s.%d.tmp", Path.c_str(), static_cast<int>(::getpid()));
  {
    std::ofstream Out(Tmp, std::ios::binary);
    Out << W.buffer();
  }
  std::error_code EC;
  std::filesystem::rename(Tmp, Path, EC);
  return Ref;
}

bool Verifier::matches(const Request &R, const CompileResult &Got,
                       std::string &Why) {
  Reference Ref = reference(R);
  if (Got.Code != Ref.Result.Code)
    Why = strFormat("exit code %d, reference %d", Got.Code, Ref.Result.Code);
  else if (Got.Out != Ref.Result.Out)
    Why = "stdout differs from the reference";
  else if (stableErr(Got.Err) != stableErr(Ref.Result.Err))
    Why = "stderr differs from the reference";
  else
    return true;
  return false;
}
