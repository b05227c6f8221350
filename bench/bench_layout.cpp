//===-- bench/bench_layout.cpp - Affine layout search vs legacy fixes -----===//
//
// Measures what the generalized affine layout search (DESIGN.md section
// 16) buys over the legacy PartitionCamp heuristic on the kernels where
// Section 3.7's remedies fire — mv (address-offset rotation) and tp
// (diagonal block reordering) — plus camping-free controls (mm, rd).
//
// The acceptance gates are structural:
//  * on every kernel the affine winner must model at least as fast as
//    the legacy arm's winner (the family contains the legacy points; the
//    search scores it at the two best identity merge points, so on these
//    kernels this is a regression gate rather than a theorem);
//  * on the camping kernels the search must rediscover the legacy fix
//    (offset on mv, diagonal on tp) and the winning kernels of both arms
//    must be byte-identical;
//  * on the camping-free controls the identity must win, again with
//    byte-identical winners.
// BENCH_layout.json records the modeled times and decisions so the perf
// trajectory diffs across PRs, and the search width: candidates built and
// merge_points searched at the identity layout (CI checks that the family
// costs at most two candidates per non-identity point).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "ast/Printer.h"
#include "support/Timer.h"

#include <algorithm>

using namespace gpuc;
using namespace gpuc::bench;

namespace {

struct CaseDef {
  const char *Label;
  Algo A;
  long long N;
  bool Gtx280; // else GTX 8800
  const char *ExpectLayout;
};

const CaseDef Cases[] = {
    {"mv_4096_gtx280", Algo::MV, 4096, true, "offset"},
    {"mv_3072_gtx8800", Algo::MV, 3072, false, "offset"},
    {"tp_2048_gtx280", Algo::TP, 2048, true, "diagonal"},
    {"mm_512_gtx280", Algo::MM, 512, true, "identity"},
    {"rd_4096_gtx280", Algo::RD, 4096, true, "identity"},
};

struct CaseResult {
  std::string Label;
  std::string ExpectLayout;
  std::string AffineLayout;
  bool Ok = false;
  bool WinnerIdentical = false;
  double LegacyMs = 0, AffineMs = 0;
  int LayoutPoints = 0;
  int Candidates = 0;
  int MergePoints = 0;
  double SearchWallMs = 0;
};

std::vector<CaseResult> Results;

void BM_Layout(benchmark::State &State, const CaseDef &C) {
  DeviceSpec Dev = C.Gtx280 ? DeviceSpec::gtx280() : DeviceSpec::gtx8800();
  for (auto _ : State) {
    CaseResult R;
    R.Label = C.Label;
    R.ExpectLayout = C.ExpectLayout;

    Module LM, AM;
    DiagnosticsEngine LD, AD;
    KernelFunction *LNaive = parseNaive(LM, C.A, C.N, LD);
    KernelFunction *ANaive = parseNaive(AM, C.A, C.N, AD);
    if (!LNaive || !ANaive) {
      Results.push_back(R);
      continue;
    }

    CompileOptions LegacyOpt;
    LegacyOpt.Device = Dev;
    LegacyOpt.LayoutSearch = false;
    GpuCompiler LGC(LM, LD);
    CompileOutput Legacy = LGC.compile(*LNaive, LegacyOpt);

    CompileOptions AffineOpt;
    AffineOpt.Device = Dev;
    GpuCompiler AGC(AM, AD);
    WallTimer T;
    CompileOutput Affine = AGC.compile(*ANaive, AffineOpt);
    R.SearchWallMs = T.elapsedMs();

    if (Legacy.Best && Affine.Best) {
      R.Ok = true;
      R.AffineLayout = Affine.BestVariant.Layout;
      R.LegacyMs = Legacy.BestVariant.Perf.TimeMs;
      R.AffineMs = Affine.BestVariant.Perf.TimeMs;
      R.LayoutPoints = Affine.Search.LayoutPoints;
      R.Candidates = Affine.Search.Candidates;
      // The merge grid is searched at the identity layout, one slot per
      // merge point.
      R.MergePoints = static_cast<int>(
          std::count_if(Affine.Variants.begin(), Affine.Variants.end(),
                        [](const VariantResult &V) {
                          return std::string(V.Layout) == "identity";
                        }));
      R.WinnerIdentical =
          printKernel(*Legacy.Best) == printKernel(*Affine.Best);
    }
    Results.push_back(R);
    State.counters["legacy_ms"] = R.LegacyMs;
    State.counters["affine_ms"] = R.AffineMs;
  }
}

void registerAll() {
  Report::get().setTitle("Affine layout search vs legacy partition-camping "
                         "heuristic (modeled winners)");
  for (const CaseDef &C : Cases)
    benchmark::RegisterBenchmark(
        strFormat("layout/%s", C.Label).c_str(),
        [&C](benchmark::State &S) { BM_Layout(S, C); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
}

int Registered = (registerAll(), 0);

} // namespace

int main(int argc, char **argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();

  Report &Rep = Report::get();
  bool GatesOk = !Results.empty();
  int Rediscoveries = 0, IdentityHolds = 0;

  for (const CaseResult &R : Results) {
    Rep.add(R.Label, {{"legacy_ms", R.LegacyMs},
                      {"affine_ms", R.AffineMs},
                      {"layout_points", static_cast<double>(R.LayoutPoints)},
                      {"candidates", static_cast<double>(R.Candidates)},
                      {"merge_points", static_cast<double>(R.MergePoints)},
                      {"rediscovered",
                       R.AffineLayout == R.ExpectLayout ? 1.0 : 0.0},
                      {"winner_identical", R.WinnerIdentical ? 1.0 : 0.0},
                      {"search_wall_ms", R.SearchWallMs}});
    Rep.addMeta("layout_" + R.Label, R.AffineLayout);

    // Gate: the family contains the legacy points, so the model-driven
    // search can never pick a slower winner than the heuristic.
    if (!R.Ok || R.AffineMs > R.LegacyMs) {
      GatesOk = false;
      continue;
    }
    // Gate: the expected decision, with byte-identical winner text (the
    // rediscovery is exact, not merely tied in the model).
    if (R.AffineLayout != R.ExpectLayout || !R.WinnerIdentical) {
      GatesOk = false;
      continue;
    }
    if (R.ExpectLayout == "identity")
      ++IdentityHolds;
    else
      ++Rediscoveries;
  }

  Rep.addMeta("rediscoveries", static_cast<double>(Rediscoveries));
  Rep.addMeta("identity_holds", static_cast<double>(IdentityHolds));
  Rep.addMeta("gates_ok", GatesOk ? 1.0 : 0.0);
  Rep.addNote("legacy_ms runs the heuristic PartitionCamp arm "
              "(LayoutSearch off); affine_ms searches the merge grid at "
              "the identity, then every family point at the two best "
              "merge points");
  Rep.addNote("rediscovered=1 and winner_identical=1 on every row are "
              "acceptance gates, not observations");

  Rep.print();
  Rep.writeJson(Report::jsonPathFor(argv[0]));
  return GatesOk ? 0 : 1;
}
