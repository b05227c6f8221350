//===-- perfbench/harness/Jobs.h - Requests and their reference -*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's inputs and the checks on its outputs.
///
///   - The paper jobs: the ten Table-1 kernels at the Figure-11 sizes on
///     both GPUs (naiveSource; baselines is used only for the inputs and
///     the CPU reference).
///   - daemon_mixed's request stream, a pure function of (seed, index).
///   - The Verifier: every response must be byte-identical to a serial
///     in-process compile of its job (serve::runCompileJob, fresh
///     SimCache, no disk tier, one lane), every distinct paper winner must
///     match cpuReference under Simulator::runFunctional, and every fresh
///     winner must match its naive kernel's functional output. Verdicts
///     are content-addressed by (harness binary, job) and kept in the
///     state directory, so the functional pass (~100 s at paper sizes)
///     runs once per build.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_PERFBENCH_JOBS_H
#define GPUC_PERFBENCH_JOBS_H

#include "baselines/NaiveKernels.h"
#include "serve/Protocol.h"

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace gpuc {
namespace perfbench {

struct PaperKernel {
  Algo A;
  long long N;
  const char *Device;
};

/// The 20 paper jobs: Table-1 kernels x {gtx280, gtx8800}.
const std::vector<PaperKernel> &paperKernels();

enum class ReqClass { Paper, Replay, Recompile, Fresh, Lint };
const char *reqClassName(ReqClass C);

struct Request {
  ReqClass Class = ReqClass::Paper;
  serve::CompileJob Job;
  int Paper = -1;           ///< index into paperKernels(); -1 for fresh
  unsigned GenSeed = 0;     ///< KernelGen seed of a fresh request
  bool Pipeline = false;    ///< fresh request is a multi-kernel pipeline
};

Request paperRequest(int Index, ReqClass Class, uint32_t ExtraFlags = 0);

/// The daemon_mixed stream. Requests come in blocks of ten: eight replays
/// of primed jobs (default flags, warm fast path), one recompile (a primed
/// job with JF_SearchStats, full search against the warm SimCache) and one
/// fresh KernelGen kernel or pipeline (templates in a fixed rotation); the
/// seed orders each block, orders the replays and draws the fresh kernels. Recompiles walk the 20 paper
/// jobs in a fixed order on every seed: they are the expensive class, and
/// a seed-dependent subset of them would move requests_per_s by more than
/// the metric's bound. Thread-safe; requests are numbered in the order
/// next() hands them out, so the sequence is fixed for a seed.
class MixedStream {
public:
  explicit MixedStream(uint64_t Seed) : Seed(Seed) {}
  /// \returns the next request and its index.
  Request next(uint64_t &Index);

private:
  Request make(uint64_t I);

  uint64_t Seed;
  std::mutex Mu;
  uint64_t NextIndex = 0;
  uint64_t KernelDraws = 0, PipelineDraws = 0, GenAttempts = 0;
  std::set<uint64_t> FreshSeen; ///< structure hashes already sent
};

/// Reference data of one job (see file comment).
struct Reference {
  serve::CompileResult Result;
  double WinnerMs = 0;     ///< modelled time of the winner (0 if none)
  bool Functional = true;  ///< winner matched its functional reference
  std::string Why;         ///< first functional mismatch
};

class Verifier {
public:
  /// \p StateDir holds the verdict store; \p Binary is the running
  /// executable, whose bytes key every verdict.
  Verifier(std::string StateDir, const std::string &Binary);

  /// The reference of \p R, computed and stored on first use. A job with
  /// the default flags also gets the functional check of its winner.
  Reference reference(const Request &R);

  /// Compares \p Got with the reference of \p R: exit code and stdout
  /// byte for byte, stderr too except for the wall-clock lines of the
  /// JF_SearchStats block. \returns false with \p Why on a mismatch.
  bool matches(const Request &R, const serve::CompileResult &Got,
               std::string &Why);

private:
  Reference compute(const Request &R);
  std::string pathFor(const Request &R) const;

  std::string Dir;
  uint64_t BinaryId = 0;
};

/// Stderr without the search-stats block's timing lines ("wall ...",
/// "lane-summed ...") and cache-traffic line, which differ run to run.
std::string stableErr(const std::string &Err);

} // namespace perfbench
} // namespace gpuc

#endif // GPUC_PERFBENCH_JOBS_H
