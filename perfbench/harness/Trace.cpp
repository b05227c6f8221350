//===-- perfbench/harness/Trace.cpp - Spans for the traced run ------------===//

#include "Trace.h"

#include "analysis/Sanitizer.h"
#include "ast/Printer.h"
#include "core/Report.h"
#include "parser/Parser.h"
#include "sim/SimCache.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <fstream>
#include <set>

using namespace gpuc;
using namespace gpuc::perfbench;
using namespace gpuc::serve;

void Tracer::add(Span S) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(std::move(S));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\') {
      Out += '\\';
      Out += Ch;
    } else if (static_cast<unsigned char>(Ch) < 0x20) {
      Out += strFormat("\\u%04x", Ch);
    } else {
      Out += Ch;
    }
  }
  return Out;
}

} // namespace

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  std::vector<Span> All = spans();
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    OS << strFormat("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                    "\"args\": {\"id\": %u, \"parent\": %u, \"req\": %u}}%s\n",
                    jsonEscape(S.Name).c_str(), jsonEscape(S.Layer).c_str(),
                    S.StartUs, S.EndUs - S.StartUs, S.Tid, S.Id, S.Parent,
                    S.Req, I + 1 < All.size() ? "," : "");
  }
  OS << "]}\n";
  return static_cast<bool>(OS);
}

RequestScope &gpuc::perfbench::currentRequest() {
  thread_local RequestScope Cur;
  return Cur;
}

uint32_t gpuc::perfbench::currentTid() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Tid = Next.fetch_add(1);
  return Tid;
}

ScopedSpan::ScopedSpan(Tracer &T, const char *Layer, std::string Name)
    : T(T) {
  const RequestScope &Cur = currentRequest();
  S.Id = T.newId();
  S.Parent = Cur.Parent;
  S.Req = Cur.Req;
  S.Tid = currentTid();
  S.Layer = Layer;
  S.Name = std::move(Name);
  S.StartUs = T.nowUs();
}

ScopedSpan::~ScopedSpan() {
  S.EndUs = T.nowUs();
  T.add(std::move(S));
}

namespace {

void addSpan(Tracer &T, const char *Layer, const char *Name, double StartUs,
             double EndUs, uint32_t Parent, uint32_t Req) {
  Span S;
  S.Id = T.newId();
  S.Parent = Parent;
  S.Req = Req;
  S.Tid = currentTid();
  S.Layer = Layer;
  S.Name = Name;
  S.StartUs = StartUs;
  S.EndUs = EndUs;
  T.add(std::move(S));
}

/// The open simulation bracket of this thread: a backend load missed on
/// Key at StartUs and no store has closed it yet.
struct OpenBracket {
  bool Open = false;
  uint64_t Key = 0;
  double StartUs = 0;
};

OpenBracket &openBracket() {
  thread_local OpenBracket B;
  return B;
}

void noteLoad(Tracer &T, uint64_t Key, bool Hit) {
  OpenBracket &B = openBracket();
  B.Open = !Hit;
  B.Key = Key;
  B.StartUs = T.nowUs();
}

void noteStore(Tracer &T, uint64_t Key) {
  OpenBracket &B = openBracket();
  if (!B.Open || B.Key != Key)
    return;
  const RequestScope &Cur = currentRequest();
  addSpan(T, "sim", "sim.run", B.StartUs, T.nowUs(), Cur.Parent, Cur.Req);
  B.Open = false;
}

} // namespace

bool TracingBackend::load(uint64_t Key, PerfResult &) {
  noteLoad(T, Key, /*Hit=*/false);
  return false;
}

void TracingBackend::store(uint64_t Key, const PerfResult &) {
  noteStore(T, Key);
}

bool TracingDiskCache::load(uint64_t Key, PerfResult &Out) {
  bool Hit;
  {
    ScopedSpan S(T, "cache", "cache.disk.load");
    Hit = DiskCache::load(Key, Out);
  }
  noteLoad(T, Key, Hit);
  return Hit;
}

void TracingDiskCache::store(uint64_t Key, const PerfResult &Result) {
  noteStore(T, Key);
  ScopedSpan S(T, "cache", "cache.disk.store");
  DiskCache::store(Key, Result);
}

namespace {

/// Wraps \p Inner (the sanitizer's factory, or none) in the stage
/// observer. Each search task calls the factory once per compileVariant,
/// on the lane that builds the variant; that lane then works for \p Req
/// until its next factory call, which is what lets the simulation shim
/// attribute the lane's later runs.
StageHookFactory stageObserver(Tracer &T, StageHookFactory Inner,
                               uint32_t Req, uint32_t Parent) {
  return [&T, Inner, Req, Parent](DiagnosticsEngine &Diags) -> StageHook {
    currentRequest() = {Req, Parent};
    StageHook InnerHook = Inner ? Inner(Diags) : StageHook();
    auto Last = std::make_shared<double>(T.nowUs());
    return [&T, InnerHook, Last, Req, Parent](const char *Stage,
                                              KernelFunction &K, bool Final) {
      const double Now = T.nowUs();
      addSpan(T, "core", strFormat("core.stage.%s", Stage).c_str(), *Last,
              Now, Parent, Req);
      if (InnerHook) {
        InnerHook(Stage, K, Final);
        const double After = T.nowUs();
        addSpan(T, "analysis", "analysis.sanitize", Now, After, Parent, Req);
        *Last = After;
      } else {
        *Last = T.nowUs();
      }
    };
  };
}

struct JobModes {
  bool Sanitize, Lint, LintStrict, Werror, SearchStats;
  explicit JobModes(const CompileJob &J)
      : Sanitize(J.Flags & JF_Sanitize), Lint(J.Flags & JF_Lint),
        LintStrict(J.Flags & JF_LintStrict), Werror(J.Flags & JF_Werror),
        SearchStats(J.Flags & JF_SearchStats) {}
  bool fastPathEligible() const { return !Sanitize && !Lint && !SearchStats; }
};

void countSearch(const SearchStats &S, LayerCounters &C) {
  C.add("core.search.candidates", S.Candidates);
  C.add("core.search.probed", S.Probed);
  C.add("core.search.simulated", S.Simulated);
  C.add("core.search.pruned", S.Pruned);
  C.add("core.search.statically_pruned", S.StaticallyPruned);
  C.add("core.search.infeasible", S.Infeasible);
  C.add("core.search.wall_ms", S.WallMs);
  C.add("core.search.crit_path_ms", S.CritPathMs);
  C.add("core.layout.points", S.LayoutPoints);
  C.add("core.layout.wins", S.LayoutWins);
  C.add("core.fusion.candidates", S.FusionCandidates);
  C.add("core.fusion.legal", S.FusionLegal);
  C.add("core.fusion.wins", S.FusionWins);
  C.add("sim.runs.probe", S.Probed);
  C.add("sim.runs.full", S.Simulated);
  C.add("sim.scalar_fallbacks", static_cast<double>(S.ScalarFallbacks));
  C.add("cache.mem.hits", static_cast<double>(S.CacheHits));
  C.add("cache.mem.misses", static_cast<double>(S.CacheMisses));
  C.add("exec.busy_ms", S.CompileMs + S.SimMs);
  C.add("exec.lane_wall_ms", S.Jobs * S.WallMs);
  C.max("exec.lanes", S.Jobs);
}

void countSanitizer(const SanitizeSummary &S, LayerCounters &C) {
  C.add("analysis.sanitize.kernels_checked", S.KernelsChecked);
  C.add("analysis.sanitize.races", S.RaceErrors);
  C.add("analysis.sanitize.lint_warnings", S.LintWarnings);
}

std::string sanitizeSummaryLine(const SanitizeSummary &S) {
  return strFormat("sanitizer: %d kernels checked, %d races, %d lint "
                   "warnings, %d not statically analyzable\n",
                   S.KernelsChecked, S.RaceErrors, S.LintWarnings,
                   S.Unanalyzable);
}

/// The body of tracedCompileJob; the caller owns the request-root span.
CompileResult runTraced(const CompileJob &J, const ServiceContext &Ctx,
                        Tracer &T, LayerCounters &C, RetainedVariants *Keep,
                        uint32_t Req) {
  CompileResult R;
  CompileOptions Opt;
  if (!optionsFromJob(J, Ctx, Opt)) {
    R.Code = 1;
    R.Err = strFormat("gpucc: error: unknown device '%s'\n",
                      J.DeviceName.c_str());
    return R;
  }
  JobModes Modes(J);
  auto M = std::make_shared<Module>();
  DiagnosticsEngine Diags;
  if (Modes.Werror)
    Diags.setWarningsAsErrors(true);
  std::vector<KernelFunction *> Stages;
  {
    ScopedSpan S(T, "parser", "parser.parseProgram");
    Parser P(J.Source, Diags);
    Stages = P.parseProgram(*M);
  }
  C.add("parser.calls", 1);
  if (Stages.empty()) {
    R.Code = 1;
    R.Err = Diags.str();
    return R;
  }
  std::vector<const KernelFunction *> CStages(Stages.begin(), Stages.end());
  const bool Pipeline = Stages.size() > 1;

  // Warm fast path.
  if (Ctx.Disk && Modes.fastPathEligible()) {
    uint64_t Key;
    {
      ScopedSpan S(T, "ast", "ast.cache_key");
      Key = Pipeline ? programCacheKey(CStages, Opt)
                     : compileCacheKey(*Stages.front(), Opt);
    }
    CachedCompile Cached;
    bool Hit;
    {
      ScopedSpan S(T, "cache", "cache.disk.load_text");
      Hit = Ctx.Disk->loadText(Key, Cached);
    }
    if (Hit) {
      R.Out += Cached.KernelText;
      R.WarmFastPath = 1;
      return R;
    }
  }

  SanitizeSummary San;
  if (Modes.Sanitize || Modes.Lint) {
    SanitizeOptions SanOpt;
    SanOpt.Races = Modes.Sanitize;
    SanOpt.Lint = Modes.Lint;
    SanOpt.LintOpts.Strict = Modes.LintStrict;
    attachStageSanitizer(Opt, Diags, SanOpt, &San);
  }
  const uint32_t SearchId = T.newId();
  Opt.HookFactory = stageObserver(T, Opt.HookFactory, Req, SearchId);

  GpuCompiler GC(*M, Diags);
  Span Search;
  Search.Id = SearchId;
  Search.Parent = Req;
  Search.Req = Req;
  Search.Tid = currentTid();
  Search.Layer = "core";
  Search.Name = "core.search";
  Search.StartUs = T.nowUs();
  CompileOutput Single;
  ProgramCompileOutput Prog;
  if (Pipeline)
    Prog = GC.compileProgram(CStages, Opt);
  else
    Single = GC.compile(*Stages.front(), Opt);
  Search.EndUs = T.nowUs();
  T.add(Search);
  currentRequest() = {Req, Req};

  const SearchStats &Stats = Pipeline ? Prog.Search : Single.Search;
  countSearch(Stats, C);
  countSanitizer(San, C);
  R.CritPathMs = Stats.CritPathMs;
  bool ChosenOk;
  if (Pipeline)
    ChosenOk = Prog.UseFused
                   ? Prog.FusedOut.Best != nullptr
                   : !Prog.StageOuts.empty() &&
                         std::all_of(Prog.StageOuts.begin(),
                                     Prog.StageOuts.end(),
                                     [](const CompileOutput &O) {
                                       return O.Best;
                                     });
  else
    ChosenOk = Single.Best != nullptr;
  if (!ChosenOk || Diags.hasErrors()) {
    R.Code = 1;
    R.Err += Diags.str() + Diags.summary() + (Pipeline ? "" : Single.Log);
    return R;
  }
  if (Diags.hasWarnings())
    R.Err += Diags.str() + Diags.summary() + "\n";
  if (Modes.Sanitize || Modes.Lint)
    R.Err += sanitizeSummaryLine(San);
  if (Pipeline) {
    R.Out += Prog.ProgramText;
  } else {
    ScopedSpan S(T, "ast", "ast.print");
    R.Out += printKernel(*Single.Best, J.Dialect == 1 ? PrintDialect::OpenCL
                                                      : PrintDialect::Cuda);
  }
  if (Modes.SearchStats)
    R.Err += searchStatsReport(Stats);

  if (Keep) {
    Keep->RequestModule = M;
    if (Pipeline) {
      if (Prog.FusionLegal)
        Keep->Outputs.push_back(std::move(Prog.FusedOut));
      for (CompileOutput &O : Prog.StageOuts)
        Keep->Outputs.push_back(std::move(O));
    } else {
      Keep->Outputs.push_back(std::move(Single));
    }
  }
  return R;
}

} // namespace

CompileResult gpuc::perfbench::tracedCompileJob(const CompileJob &J,
                                                const ServiceContext &Ctx,
                                                Tracer &T, LayerCounters &C,
                                                RetainedVariants *Keep) {
  Span Root;
  Root.Id = T.newId();
  Root.Req = Root.Id;
  Root.Tid = currentTid();
  Root.Layer = "request";
  Root.Name = J.Name;
  RequestScope Saved = currentRequest();
  currentRequest() = {Root.Id, Root.Id};
  Root.StartUs = T.nowUs();
  CompileResult R = runTraced(J, Ctx, T, C, Keep, Root.Id);
  Root.EndUs = T.nowUs();
  T.add(Root);
  currentRequest() = Saved;
  return R;
}

namespace {

/// Length of the union of [lo, hi) intervals (sorted in place).
double unionLength(std::vector<std::pair<double, double>> &Iv) {
  std::sort(Iv.begin(), Iv.end());
  double Total = 0, CurLo = 0, CurHi = -1;
  for (const auto &[Lo, Hi] : Iv) {
    if (Hi <= Lo)
      continue;
    if (Lo > CurHi) {
      if (CurHi > CurLo)
        Total += CurHi - CurLo;
      CurLo = Lo;
      CurHi = Hi;
    } else {
      CurHi = std::max(CurHi, Hi);
    }
  }
  if (CurHi > CurLo)
    Total += CurHi - CurLo;
  return Total;
}

} // namespace

std::pair<double, double>
gpuc::perfbench::unattributedMs(const std::vector<Span> &Spans) {
  std::map<uint32_t, const Span *> Roots;
  for (const Span &S : Spans)
    if (S.Layer == "request")
      Roots[S.Req] = &S;
  // Only leaf spans cover time: an umbrella span (a request root,
  // core.search) would cover whatever its children leave out.
  std::set<uint32_t> Parents;
  for (const Span &S : Spans)
    Parents.insert(S.Parent);
  std::map<uint32_t, std::vector<std::pair<double, double>>> Covered;
  for (const Span &S : Spans) {
    auto It = Roots.find(S.Req);
    if (S.Layer == "request" || Parents.count(S.Id) || It == Roots.end())
      continue;
    const Span &Root = *It->second;
    Covered[S.Req].emplace_back(std::max(S.StartUs, Root.StartUs),
                                std::min(S.EndUs, Root.EndUs));
  }
  double Uncovered = 0, Wall = 0;
  for (const auto &[Req, Root] : Roots) {
    const double W = Root->EndUs - Root->StartUs;
    Wall += W;
    Uncovered += W - unionLength(Covered[Req]);
  }
  return {Uncovered / 1000.0, Wall / 1000.0};
}

void gpuc::perfbench::spanTotals(const std::vector<Span> &Spans,
                                 std::map<std::string, double> &Ms,
                                 std::map<std::string, double> &Count) {
  for (const Span &S : Spans) {
    Ms[S.Name] += (S.EndUs - S.StartUs) / 1000.0;
    Count[S.Name] += 1;
  }
}

std::map<std::string, double>
gpuc::perfbench::spanSelfMs(const std::vector<Span> &Spans) {
  std::map<uint32_t, std::vector<std::pair<double, double>>> Children;
  std::map<uint32_t, const Span *> ById;
  for (const Span &S : Spans)
    ById[S.Id] = &S;
  for (const Span &S : Spans) {
    auto It = ById.find(S.Parent);
    if (S.Parent == 0 || It == ById.end() || S.Parent == S.Id)
      continue;
    const Span &P = *It->second;
    Children[S.Parent].emplace_back(std::max(S.StartUs, P.StartUs),
                                    std::min(S.EndUs, P.EndUs));
  }
  std::map<std::string, double> Self;
  for (const Span &S : Spans)
    Self[S.Name] +=
        (S.EndUs - S.StartUs - unionLength(Children[S.Id])) / 1000.0;
  return Self;
}
