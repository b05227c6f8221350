//===-- perfbench/harness/Trace.h - Spans for the traced run ----*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instrumentation, recorded entirely from the benchmark
/// side of the library's public seams (the program itself carries no
/// spans):
///
///   - parser / ast: Parser::parseProgram, compileCacheKey /
///     programCacheKey and printKernel are called by tracedCompileJob,
///     a step-for-step replica of serve::runCompileJob;
///   - core: a CompileOptions::HookFactory observer; the gap between two
///     consecutive stage announcements on one search task is the time of
///     the stage announced second;
///   - sim: a SimCacheBackend shim; a load miss followed by a store of the
///     same key on the same thread brackets one simulation;
///   - cache: the same shim, wrapped around the DiskCache when the request
///     has a disk tier, times the disk tier's loads and stores;
///   - analysis: the sanitizer factory is wrapped so its time is split out
///     of the stage it observes.
///
/// Every span carries layer, name, start, end, parent and request id; the
/// run writes them as Chrome trace-event JSON (Perfetto and
/// chrome://tracing open it offline).
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_PERFBENCH_TRACE_H
#define GPUC_PERFBENCH_TRACE_H

#include "cache/DiskCache.h"
#include "core/Compiler.h"
#include "serve/Service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gpuc {
namespace perfbench {

struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0 for a request root
  uint32_t Req = 0;    ///< request id shared by every span of one request
  uint32_t Tid = 0;    ///< small per-thread number
  std::string Layer;   ///< "request" for roots, else a module name
  std::string Name;
  double StartUs = 0, EndUs = 0;
};

/// Thread-safe span store; spans stay in memory until the run ends.
class Tracer {
public:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }
  uint32_t newId() { return NextId.fetch_add(1); }
  void add(Span S);

  std::vector<Span> spans() const;
  bool writeChromeJson(const std::string &Path) const;

private:
  std::chrono::steady_clock::time_point Epoch;
  std::atomic<uint32_t> NextId{1};
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// The request a thread is working for (set by the request thread and, on
/// search lanes, by the stage observer before any simulation runs there).
struct RequestScope {
  uint32_t Req = 0;
  uint32_t Parent = 0;
};
RequestScope &currentRequest();
uint32_t currentTid();

/// Records [start, destruction) as one span under the current request.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Layer, std::string Name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  Span S;
};

/// SimCacheBackend shim for requests without a disk tier: every load is a
/// miss, so each store closes one simulation bracket.
class TracingBackend : public SimCacheBackend {
public:
  explicit TracingBackend(Tracer &T) : T(T) {}
  bool load(uint64_t Key, PerfResult &Out) override;
  void store(uint64_t Key, const PerfResult &Result) override;

private:
  Tracer &T;
};

/// The disk tier with its SimCacheBackend traffic timed (the search wires
/// CompileOptions::Disk in as the SimCache backend, so the shim has to be
/// the DiskCache itself).
class TracingDiskCache : public DiskCache {
public:
  TracingDiskCache(std::string Dir, Tracer &T)
      : DiskCache(std::move(Dir)), T(T) {}
  bool load(uint64_t Key, PerfResult &Out) override;
  void store(uint64_t Key, const PerfResult &Result) override;

private:
  Tracer &T;
};

/// Counters the traced requests leave behind, summed over a run
/// (thread-safe: daemon_mixed traces from two client threads).
class LayerCounters {
public:
  void add(const std::string &Name, double V) {
    std::lock_guard<std::mutex> Lock(Mu);
    Sum[Name] += V;
  }
  void max(const std::string &Name, double V) {
    std::lock_guard<std::mutex> Lock(Mu);
    Sum[Name] = std::max(Sum[Name], V);
  }
  double get(const std::string &Name) const {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Sum.find(Name);
    return It == Sum.end() ? 0 : It->second;
  }

private:
  mutable std::mutex Mu;
  std::map<std::string, double> Sum;
};

/// What a traced compile hands back for the dataflow timing: every variant
/// kernel plus the modules that own them.
struct RetainedVariants {
  std::shared_ptr<Module> RequestModule;
  std::vector<CompileOutput> Outputs;
};

/// serve::runCompileJob, step for step, with spans around each layer call.
/// Supports the flag sets the workloads send (default pipeline flags,
/// JF_SearchStats and JF_Sanitize/JF_Lint/JF_LintStrict); the output is
/// checked byte-for-byte against the untraced reference like every other
/// response.
serve::CompileResult tracedCompileJob(const serve::CompileJob &J,
                                      const serve::ServiceContext &Ctx,
                                      Tracer &T, LayerCounters &C,
                                      RetainedVariants *Keep);

/// Per-request unattributed time: request-root wall minus the union of
/// its leaf spans (those no span names as parent), summed over roots.
/// \returns {uncovered, wall} ms.
std::pair<double, double> unattributedMs(const std::vector<Span> &Spans);

/// Summed span durations (ms) and counts by span name.
void spanTotals(const std::vector<Span> &Spans,
                std::map<std::string, double> &Ms,
                std::map<std::string, double> &Count);

/// Per-name self time (ms): each span's duration minus the union of its
/// direct children's intervals.
std::map<std::string, double> spanSelfMs(const std::vector<Span> &Spans);

} // namespace perfbench
} // namespace gpuc

#endif // GPUC_PERFBENCH_TRACE_H
