//===-- serve/Service.h - One compile request, start to finish --*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one CompileJob start to finish — parse, warm fast path,
/// sanitize/lint hooks, single-kernel or pipeline search, report and
/// search-stats rendering — into strings instead of stdio. It is the only
/// compile path; every consumer runs this same code:
///
///   - gpucc in-process: single-file runs, every --batch lane, and the
///     --connect fallback (--validate and --time-report are post-steps
///     over the products a LocalCompile carries out), and
///   - the gpucd daemon's worker pool, one isolated Module /
///     DiagnosticsEngine per request over the shared two-tier cache.
///
/// That shared implementation is what makes the soak battery's central
/// assertion possible: a daemon response is byte-identical to a serial
/// in-process compile of the same job, by construction.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SERVE_SERVICE_H
#define GPUC_SERVE_SERVICE_H

#include "core/Compiler.h"
#include "serve/Protocol.h"

#include <atomic>

namespace gpuc {

class DiskCache;
class SimCache;

namespace serve {

/// In-process products of one compile, for gpucc's --validate and
/// --time-report post-steps: the parsed naive stages (owned by M) and the
/// search output — Out for a single kernel, Program for a pipeline.
struct LocalCompile {
  Module M;
  std::vector<KernelFunction *> Stages;
  CompileOutput Out;
  ProgramCompileOutput Program;
};

/// Shared state a request executes against. The caches are the warm
/// tiers every request shares (SimCache is lock-striped; DiskCache is
/// opened once per daemon); Cancel is the per-request timeout hook.
struct ServiceContext {
  SimCache *Mem = nullptr;
  DiskCache *Disk = nullptr;
  /// Cooperative cancellation for this request (null = never cancelled).
  const std::atomic<bool> *Cancel = nullptr;
  /// Search lanes for this request (daemon policy: requests parallelize
  /// across each other, so workers run each search serially by default).
  int Jobs = 1;
  /// When set, the compile also hands its products out here and skips the
  /// warm winner replay (a replay has no kernels to validate or time).
  /// Wiring only, like Cancel: the daemon never sets it.
  LocalCompile *Local = nullptr;
};

/// Maps a wire device name onto its DeviceSpec. \returns false for
/// unknown names (the daemon answers Unsupported; the client falls back).
bool deviceFromName(const std::string &Name, DeviceSpec &Out);

/// Translates the job's option subset into CompileOptions (cache wiring
/// and lane count come from \p Ctx). \returns false on an unknown device.
bool optionsFromJob(const CompileJob &J, const ServiceContext &Ctx,
                    CompileOptions &Out);

/// Runs \p J start to finish. Never throws; failures surface as the exit
/// code + stderr text gpucc would have produced. A cancelled run returns
/// code 1 with "search cancelled" in Err (the server maps it to a
/// Timeout error response).
CompileResult runCompileJob(const CompileJob &J, const ServiceContext &Ctx);

} // namespace serve
} // namespace gpuc

#endif // GPUC_SERVE_SERVICE_H
