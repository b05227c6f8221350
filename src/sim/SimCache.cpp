//===-- sim/SimCache.cpp - Performance-run memoization --------------------===//

#include "sim/SimCache.h"

#include "ast/Hash.h"

using namespace gpuc;

uint64_t gpuc::hashDevice(const DeviceSpec &Dev) {
  uint64_t H = 0x6a09e667f3bcc908ull;
  H = hashString(H, Dev.Name);
  H = hashCombine(H, static_cast<uint64_t>(Dev.NumSMs));
  H = hashCombine(H, static_cast<uint64_t>(Dev.SPsPerSM));
  H = hashBytes(H, &Dev.CoreClockGHz, sizeof(double));
  H = hashCombine(H, static_cast<uint64_t>(Dev.RegFileBytesPerSM));
  H = hashCombine(H, static_cast<uint64_t>(Dev.SharedBytesPerSM));
  H = hashCombine(H, static_cast<uint64_t>(Dev.MaxThreadsPerSM));
  H = hashCombine(H, static_cast<uint64_t>(Dev.MaxBlocksPerSM));
  H = hashCombine(H, static_cast<uint64_t>(Dev.MaxThreadsPerBlock));
  H = hashCombine(H, static_cast<uint64_t>(Dev.WarpSize));
  H = hashCombine(H, static_cast<uint64_t>(Dev.HalfWarp));
  H = hashCombine(H, static_cast<uint64_t>(Dev.LatencyHideThreads));
  H = hashCombine(H, static_cast<uint64_t>(Dev.NumPartitions));
  H = hashCombine(H, static_cast<uint64_t>(Dev.PartitionBytes));
  H = hashCombine(H, static_cast<uint64_t>(Dev.CoalesceSegBytes));
  H = hashCombine(H, static_cast<uint64_t>(Dev.MinTransactionBytes));
  H = hashCombine(H, Dev.RelaxedCoalescing ? 1 : 0);
  H = hashCombine(H, Dev.PreferWideVectors ? 1 : 0);
  H = hashBytes(H, &Dev.BWFloatGBs, sizeof(double));
  H = hashBytes(H, &Dev.BWFloat2GBs, sizeof(double));
  H = hashBytes(H, &Dev.BWFloat4GBs, sizeof(double));
  H = hashCombine(H, static_cast<uint64_t>(Dev.SharedBanks));
  H = hashBytes(H, &Dev.LaunchOverheadUs, sizeof(double));
  H = hashBytes(H, &Dev.GlobalLatencyCycles, sizeof(double));
  return H;
}

uint64_t gpuc::hashPerfOptions(const PerfOptions &Options) {
  uint64_t H = 0xbb67ae8584caa73bull;
  H = hashCombine(H, static_cast<uint64_t>(Options.SampleClusters));
  H = hashCombine(H, static_cast<uint64_t>(Options.BlocksPerCluster));
  H = hashCombine(H, static_cast<uint64_t>(Options.LoopSampleThreshold));
  H = hashCombine(H, static_cast<uint64_t>(Options.LoopSampleCount));
  H = hashCombine(H, static_cast<uint64_t>(Options.WorkPerBlockRef));
  H = hashCombine(H, static_cast<uint64_t>(Options.MinBlocksPerCluster));
  H = hashCombine(H, Options.TrackSites ? 1 : 0);
  return H;
}

uint64_t gpuc::simCacheKey(const KernelFunction &K, const DeviceSpec &Dev,
                           const PerfOptions &Options) {
  uint64_t H = hashKernel(K);
  H = hashCombine(H, hashDevice(Dev));
  H = hashCombine(H, hashPerfOptions(Options));
  return H;
}

void SimCache::insert(uint64_t Key, const PerfResult &Result) {
  Stripe &S = stripeFor(Key);
  {
    std::lock_guard<std::mutex> L(S.Mu);
    S.Entries.emplace(Key, Result);
  }
  if (SimCacheBackend *B = Backend.load())
    B->store(Key, Result);
}

PerfResult SimCache::run(uint64_t Key,
                         const std::function<PerfResult()> &Compute) {
  Stripe &S = stripeFor(Key);
  {
    std::unique_lock<std::mutex> L(S.Mu);
    bool Waited = false;
    for (;;) {
      auto It = S.Entries.find(Key);
      if (It != S.Entries.end()) {
        Hits.fetch_add(1);
        return It->second;
      }
      if (!S.Pending.count(Key))
        break;
      if (!Waited)
        Waits.fetch_add(1);
      Waited = true;
      S.PendingDone.wait(L);
    }
    S.Pending.insert(Key);
  }
  // This call owns the key until it returns (or throws): every way out
  // releases it and wakes the lanes waiting on it.
  struct Claim {
    Stripe &S;
    uint64_t Key;
    ~Claim() {
      {
        std::lock_guard<std::mutex> L(S.Mu);
        S.Pending.erase(Key);
      }
      S.PendingDone.notify_all();
    }
  } Owned{S, Key};

  // The backend is read outside the lock: its loads do file I/O.
  PerfResult R;
  if (SimCacheBackend *B = Backend.load(); B && B->load(Key, R)) {
    DiskHits.fetch_add(1);
    // Promote into memory without writing back to the tier the result
    // just came from.
    std::lock_guard<std::mutex> L(S.Mu);
    S.Entries.emplace(Key, R);
    return R;
  }
  Misses.fetch_add(1);
  R = Compute();
  if (R.Valid)
    insert(Key, R);
  return R;
}

size_t SimCache::size() const {
  size_t N = 0;
  for (const Stripe &S : Stripes) {
    std::lock_guard<std::mutex> L(S.Mu);
    N += S.Entries.size();
  }
  return N;
}

void SimCache::clear() {
  for (Stripe &S : Stripes) {
    std::lock_guard<std::mutex> L(S.Mu);
    S.Entries.clear();
  }
  Hits.store(0);
  Misses.store(0);
  DiskHits.store(0);
  Waits.store(0);
}
