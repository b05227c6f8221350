//===-- serve/Service.cpp - One compile request, start to finish ----------===//

#include "serve/Service.h"

#include "analysis/Sanitizer.h"
#include "ast/Printer.h"
#include "cache/DiskCache.h"
#include "core/Report.h"
#include "parser/Parser.h"
#include "sim/SimCache.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace gpuc;
using namespace gpuc::serve;

bool gpuc::serve::deviceFromName(const std::string &Name, DeviceSpec &Out) {
  if (Name == "gtx280") {
    Out = DeviceSpec::gtx280();
    return true;
  }
  if (Name == "gtx8800") {
    Out = DeviceSpec::gtx8800();
    return true;
  }
  if (Name == "hd5870") {
    Out = DeviceSpec::hd5870();
    return true;
  }
  return false;
}

bool gpuc::serve::optionsFromJob(const CompileJob &J,
                                 const ServiceContext &Ctx,
                                 CompileOptions &Out) {
  if (!deviceFromName(J.DeviceName, Out.Device))
    return false;
  Out.Vectorize = (J.Flags & JF_Vectorize) != 0;
  Out.Coalesce = (J.Flags & JF_Coalesce) != 0;
  Out.Merge = (J.Flags & JF_Merge) != 0;
  Out.Prefetch = (J.Flags & JF_Prefetch) != 0;
  Out.PartitionElim = (J.Flags & JF_PartitionElim) != 0;
  Out.LayoutSearch = (J.Flags & JF_LayoutSearch) != 0;
  Out.Fold = (J.Flags & JF_Fold) != 0;
  Out.StaticPrune = (J.Flags & JF_StaticPrune) != 0;
  Out.ExhaustiveSearch = (J.Flags & JF_Exhaustive) != 0;
  Out.Interp = J.Interp == 1 ? InterpBackend::Scalar : InterpBackend::Vector;
  Out.Jobs = Ctx.Jobs <= 0 ? 1 : Ctx.Jobs;
  Out.Cache = Ctx.Mem;
  Out.Disk = Ctx.Disk;
  Out.CancelFlag = Ctx.Cancel;
  return true;
}

namespace {

/// Modes derived from the job's flag word.
struct JobModes {
  bool Sanitize, Lint, LintStrict, Werror, Report, SearchStats, PrintNaive;
  PrintDialect Dialect;

  explicit JobModes(const CompileJob &J)
      : Sanitize(J.Flags & JF_Sanitize), Lint(J.Flags & JF_Lint),
        LintStrict(J.Flags & JF_LintStrict), Werror(J.Flags & JF_Werror),
        Report(J.Flags & JF_Report), SearchStats(J.Flags & JF_SearchStats),
        PrintNaive(J.Flags & JF_PrintNaive),
        Dialect(J.Dialect == 1 ? PrintDialect::OpenCL
                               : PrintDialect::Cuda) {}

  /// The warm winner-replay may only answer jobs whose output is exactly
  /// the cold run's plain CUDA text (stored entries are
  /// diagnostics-clean).
  bool fastPathEligible(const CompileJob &J) const {
    return !Report && !Sanitize && !Lint && !PrintNaive && !SearchStats &&
           J.BlockN == 0 && J.ThreadM == 0 && Dialect == PrintDialect::Cuda;
  }
};

std::string sanitizeSummaryLine(const SanitizeSummary &S) {
  return strFormat("sanitizer: %d kernels checked, %d races, %d lint "
                   "warnings, %d not statically analyzable\n",
                   S.KernelsChecked, S.RaceErrors, S.LintWarnings,
                   S.Unanalyzable);
}

/// A pipeline compile succeeded when the chosen side has its kernels.
bool programChosen(const ProgramCompileOutput &Out) {
  if (Out.UseFused)
    return Out.FusedOut.Best != nullptr;
  return !Out.StageOuts.empty() &&
         std::all_of(Out.StageOuts.begin(), Out.StageOuts.end(),
                     [](const CompileOutput &C) { return C.Best; });
}

} // namespace

CompileResult gpuc::serve::runCompileJob(const CompileJob &J,
                                         const ServiceContext &Ctx) {
  CompileResult R;
  CompileOptions Opt;
  if (!optionsFromJob(J, Ctx, Opt)) {
    R.Code = 1;
    R.Err = strFormat("gpucc: error: unknown device '%s'\n",
                      J.DeviceName.c_str());
    return R;
  }
  JobModes Modes(J);

  // Per-request isolation: the Module (AST arena) and DiagnosticsEngine
  // live and die with this job (or with the caller's LocalCompile); only
  // the caches are shared.
  LocalCompile Scratch;
  LocalCompile &L = Ctx.Local ? *Ctx.Local : Scratch;
  DiagnosticsEngine Diags;
  if (Modes.Werror)
    Diags.setWarningsAsErrors(true);
  Parser P(J.Source, Diags);
  L.Stages = P.parseProgram(L.M);
  if (L.Stages.empty()) {
    R.Code = 1;
    R.Err = Diags.str();
    return R;
  }

  // An input with a '#pragma gpuc pipeline(...)' clause compiles as a
  // multi-kernel program: fusion legality, both sides searched.
  const bool Pipeline = L.Stages.size() > 1;
  KernelFunction &Naive = *L.Stages.front();
  std::vector<const KernelFunction *> CStages(L.Stages.begin(),
                                              L.Stages.end());
  if (Pipeline && (J.BlockN > 0 || J.ThreadM > 0 ||
                   Modes.Dialect != PrintDialect::Cuda)) {
    R.Code = 1;
    R.Err = "gpucc: error: --block/--thread/--opencl are not "
            "supported for multi-kernel pipelines\n";
    return R;
  }
  if (Modes.PrintNaive)
    R.Out += "// ---- naive input ----\n" +
             (Pipeline ? printNaiveProgram(CStages)
                       : printKernel(Naive, Modes.Dialect)) +
             "\n";

  // Warm fast path: a clean prior search of this exact (input, device,
  // options) already published its winner; replay it byte-for-byte.
  if (Ctx.Disk && !Ctx.Local && Modes.fastPathEligible(J)) {
    CachedCompile Cached;
    uint64_t Key = Pipeline ? programCacheKey(CStages, Opt)
                            : compileCacheKey(Naive, Opt);
    if (Ctx.Disk->loadText(Key, Cached)) {
      R.Out += Cached.KernelText;
      R.WarmFastPath = 1;
      return R;
    }
  }

  SanitizeSummary SanSummary;
  if (Modes.Sanitize || Modes.Lint) {
    SanitizeOptions SanOpt;
    SanOpt.Races = Modes.Sanitize;
    SanOpt.Lint = Modes.Lint;
    SanOpt.LintOpts.Strict = Modes.LintStrict;
    attachStageSanitizer(Opt, Diags, SanOpt, &SanSummary);
  }

  GpuCompiler GC(L.M, Diags);
  CompileOutput &Out = L.Out;
  bool Ok;
  if (Pipeline) {
    L.Program = GC.compileProgram(CStages, Opt);
    R.CritPathMs = L.Program.Search.CritPathMs;
    Ok = programChosen(L.Program);
  } else {
    if (J.BlockN > 0 || J.ThreadM > 0) {
      Out.Best = GC.compileVariant(Naive, Opt, std::max(1, J.BlockN),
                                   std::max(1, J.ThreadM), &Out.Plan,
                                   &Out.Camping);
      VariantResult VR;
      VR.Kernel = Out.Best;
      VR.BlockMergeN = std::max(1, J.BlockN);
      VR.ThreadMergeM = std::max(1, J.ThreadM);
      Out.Variants.push_back(VR);
    } else {
      Out = GC.compile(Naive, Opt);
    }
    R.CritPathMs = Out.Search.CritPathMs;
    Ok = Out.Best != nullptr;
  }
  if (!Ok || Diags.hasErrors()) {
    R.Code = 1;
    const std::string Summary = Diags.summary();
    R.Err += Diags.str() + Summary + (Summary.empty() ? "" : "\n") + Out.Log;
    return R;
  }
  if (Diags.hasWarnings())
    R.Err += Diags.str() + Diags.summary() + "\n";
  if (Modes.Sanitize || Modes.Lint)
    R.Err += sanitizeSummaryLine(SanSummary);

  R.Out += Pipeline ? L.Program.ProgramText
                    : printKernel(*Out.Best, Modes.Dialect);

  if (Modes.Report)
    R.Err += Pipeline ? fusionReport(L.Program)
                      : fullReport(Naive, Out, Opt.Device);
  if (Modes.SearchStats)
    R.Err += Pipeline ? searchStatsReport(L.Program.Search)
                      : searchStatsReport(Out);
  return R;
}
