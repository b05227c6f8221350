//===-- tests/CacheTest.cpp - persistent cache durability -----------------===//
//
// The disk cache must survive hostility: truncated, bit-flipped,
// wrong-version, zero-length and foreign entries each fall back to a
// recompute-and-quarantine miss — never a crash, never a poisoned
// result. On the happy path it must round-trip performance runs and
// search winners bit-exactly across DiskCache instances (i.e. across
// processes), and the two-tier SimCache must promote backend hits into
// memory without re-writing them.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "baselines/NaiveKernels.h"
#include "cache/DiskCache.h"
#include "cache/Serialize.h"
#include "core/Compiler.h"
#include "sim/SimCache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>

using namespace gpuc;
namespace fs = std::filesystem;

namespace {

/// A PerfResult with every serialized field populated.
PerfResult samplePerf() {
  PerfResult R;
  R.Valid = true;
  R.TimeMs = 3.25;
  R.Stats.GlobalLoadHalfWarps = 128;
  R.Stats.Transactions = 64;
  R.Stats.UsefulBytes = 1 << 20;
  R.Stats.PartitionBytes = {1024.0, 2048.0, 512.0};
  R.Occ.RegsPerThread = 14;
  R.Occ.SharedBytesPerBlock = 2176;
  R.Occ.BlocksPerSM = 4;
  R.Occ.ActiveThreadsPerSM = 1024;
  R.Occ.LimitedBy = "shared";
  R.Timing.CampingFactor = 1.5;
  R.Timing.MemoryMs = 2.0;
  SiteTraffic T;
  T.IsStore = true;
  T.Transactions = 99;
  T.BytesMoved = 12345;
  R.Sites.emplace_back("a[idy][idx]", T);
  return R;
}

CachedCompile sampleText() {
  CachedCompile C;
  C.KernelText = "__global__ void k() {\n  // body\n}\n";
  C.BlockMergeN = 4;
  C.ThreadMergeM = 2;
  C.TimeMs = 0.75;
  return C;
}

/// RAII temp cache directory.
struct TempDir {
  std::string Path = DiskCache::makeTempDir("gpuc-cache-test");
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
};

/// Overwrites the file at \p Path with \p Bytes.
void writeRaw(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

std::string readRaw(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

size_t countFilesUnder(const std::string &Dir) {
  size_t N = 0;
  for (const auto &E : fs::recursive_directory_iterator(Dir))
    if (E.is_regular_file())
      ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization round-trips
//===----------------------------------------------------------------------===//

TEST(Serialize, PerfResultRoundTrip) {
  PerfResult R = samplePerf();
  ByteWriter W;
  encodePerfResult(W, R);
  ByteReader Rd(W.buffer());
  PerfResult Out;
  ASSERT_TRUE(decodePerfResult(Rd, Out));
  EXPECT_TRUE(Out.Valid);
  EXPECT_DOUBLE_EQ(Out.TimeMs, R.TimeMs);
  EXPECT_DOUBLE_EQ(Out.Stats.GlobalLoadHalfWarps,
                   R.Stats.GlobalLoadHalfWarps);
  EXPECT_EQ(Out.Stats.PartitionBytes, R.Stats.PartitionBytes);
  EXPECT_EQ(Out.Occ.RegsPerThread, R.Occ.RegsPerThread);
  EXPECT_EQ(Out.Occ.SharedBytesPerBlock, R.Occ.SharedBytesPerBlock);
  // The limiter name decodes onto a stable static string.
  EXPECT_STREQ(Out.Occ.LimitedBy, "shared");
  EXPECT_DOUBLE_EQ(Out.Timing.CampingFactor, R.Timing.CampingFactor);
  ASSERT_EQ(Out.Sites.size(), 1u);
  EXPECT_EQ(Out.Sites[0].first, "a[idy][idx]");
  EXPECT_TRUE(Out.Sites[0].second.IsStore);
  EXPECT_DOUBLE_EQ(Out.Sites[0].second.Transactions, 99);
  // The proxy to the AST access is deliberately not persisted.
  EXPECT_EQ(Out.Sites[0].second.Site, nullptr);
}

TEST(Serialize, DecodedSitesAreInReportOrder) {
  // An entry stored with tied rows out of sortSites order (as builds
  // without the tie-break wrote them) loads in report order.
  PerfResult R = samplePerf();
  SiteTraffic T;
  T.Transactions = 4;
  T.BytesMoved = 256;
  R.Sites = {{"load  b[idx]", T}, {"load  a[idx]", T}};
  ByteWriter W;
  encodePerfResult(W, R);
  ByteReader Rd(W.buffer());
  PerfResult Out;
  ASSERT_TRUE(decodePerfResult(Rd, Out));
  ASSERT_EQ(Out.Sites.size(), 2u);
  EXPECT_EQ(Out.Sites[0].first, "load  a[idx]");
  EXPECT_EQ(Out.Sites[1].first, "load  b[idx]");
}

TEST(Serialize, CachedCompileRoundTrip) {
  CachedCompile C = sampleText();
  ByteWriter W;
  encodeCachedCompile(W, C);
  ByteReader Rd(W.buffer());
  CachedCompile Out;
  ASSERT_TRUE(decodeCachedCompile(Rd, Out));
  EXPECT_EQ(Out.KernelText, C.KernelText);
  EXPECT_EQ(Out.BlockMergeN, 4);
  EXPECT_EQ(Out.ThreadMergeM, 2);
  EXPECT_DOUBLE_EQ(Out.TimeMs, 0.75);
}

TEST(Serialize, EveryTruncationFailsCleanly) {
  // Decoding any strict prefix of a valid payload must fail without
  // crashing — the sticky-fail reader turns every short read into zeros.
  ByteWriter W;
  encodePerfResult(W, samplePerf());
  const std::string &Full = W.buffer();
  for (size_t Len = 0; Len < Full.size(); ++Len) {
    ByteReader Rd(Full.data(), Len);
    PerfResult Out;
    EXPECT_FALSE(decodePerfResult(Rd, Out)) << "prefix length " << Len;
  }
}

TEST(Serialize, TrailingGarbageIsRejected) {
  ByteWriter W;
  encodeCachedCompile(W, sampleText());
  std::string Padded = W.buffer() + "x";
  ByteReader Rd(Padded);
  CachedCompile Out;
  EXPECT_FALSE(decodeCachedCompile(Rd, Out));
}

TEST(Serialize, HugeLengthPrefixIsRejected) {
  // A corrupt 4 GiB string length must not attempt a 4 GiB allocation.
  ByteWriter W;
  W.u32(0xffffffffu);
  ByteReader Rd(W.buffer());
  PerfResult Out;
  EXPECT_FALSE(decodePerfResult(Rd, Out));
}

//===----------------------------------------------------------------------===//
// DiskCache happy path
//===----------------------------------------------------------------------===//

TEST(DiskCacheTest, RoundTripAcrossInstances) {
  TempDir Tmp;
  constexpr uint64_t Key = 0x1234abcd5678ef00ull;
  {
    DiskCache A(Tmp.Path);
    ASSERT_TRUE(A.valid());
    PerfResult Miss;
    EXPECT_FALSE(A.load(Key, Miss));
    A.store(Key, samplePerf());
    A.storeText(Key, sampleText());
    EXPECT_EQ(A.stats().Writes, 2u);
    EXPECT_EQ(A.stats().WriteErrors, 0u);
  }
  // A second instance — another process, as far as the cache knows.
  DiskCache B(Tmp.Path);
  PerfResult R;
  ASSERT_TRUE(B.load(Key, R));
  EXPECT_DOUBLE_EQ(R.TimeMs, samplePerf().TimeMs);
  CachedCompile C;
  ASSERT_TRUE(B.loadText(Key, C));
  EXPECT_EQ(C.KernelText, sampleText().KernelText);
  EXPECT_EQ(B.stats().SimHits, 1u);
  EXPECT_EQ(B.stats().TextHits, 1u);
  EXPECT_EQ(B.stats().Corrupt, 0u);
  EXPECT_DOUBLE_EQ(B.stats().hitRate(), 1.0);
}

TEST(DiskCacheTest, PerfAndTextEntriesDoNotAlias) {
  TempDir Tmp;
  DiskCache C(Tmp.Path);
  constexpr uint64_t Key = 77;
  C.store(Key, samplePerf());
  EXPECT_NE(C.entryPath(Key, DiskCache::Kind::Perf),
            C.entryPath(Key, DiskCache::Kind::Text));
  CachedCompile T;
  EXPECT_FALSE(C.loadText(Key, T));
}

TEST(DiskCacheTest, TmpDirLeftEmptyAfterStores) {
  TempDir Tmp;
  DiskCache C(Tmp.Path);
  for (uint64_t K = 0; K < 8; ++K)
    C.store(K, samplePerf());
  size_t InFlight = 0;
  for (const auto &E : fs::directory_iterator(Tmp.Path + "/tmp"))
    (void)E, ++InFlight;
  EXPECT_EQ(InFlight, 0u) << "stores leaked temp files";
}

TEST(DiskCacheTest, InvalidDirectoryDegradesToNoOp) {
  TempDir Tmp;
  // A path under a regular file can never become a directory.
  std::string FilePath = Tmp.Path + "/plainfile";
  writeRaw(FilePath, "not a directory");
  DiskCache C(FilePath + "/cache");
  EXPECT_FALSE(C.valid());
  PerfResult R;
  EXPECT_FALSE(C.load(1, R));
  C.store(1, samplePerf());
  EXPECT_FALSE(C.load(1, R));
}

//===----------------------------------------------------------------------===//
// Corruption: every damage class is a quarantine + miss, then recovers
//===----------------------------------------------------------------------===//

namespace {

/// Applies \p Damage to Key's perf entry, then asserts: damaged load is a
/// counted, quarantined miss; a re-store recovers; the follow-up load
/// round-trips. Returns the stats after the damaged load.
DiskCacheStats checkDamageRecovers(
    const std::string &Dir, const std::function<void(const std::string &)> &Damage) {
  constexpr uint64_t Key = 0xfeedbeefull;
  DiskCache C(Dir);
  C.store(Key, samplePerf());
  std::string Path = C.entryPath(Key, DiskCache::Kind::Perf);
  EXPECT_TRUE(fs::exists(Path));
  Damage(Path);

  PerfResult R;
  EXPECT_FALSE(C.load(Key, R)) << "damaged entry served as a hit";
  DiskCacheStats AfterLoad = C.stats();
  EXPECT_FALSE(fs::exists(Path)) << "damaged entry left in place";

  // The caller recomputes and stores again; the cache must be healthy.
  C.store(Key, samplePerf());
  PerfResult Again;
  EXPECT_TRUE(C.load(Key, Again));
  EXPECT_DOUBLE_EQ(Again.TimeMs, samplePerf().TimeMs);
  return AfterLoad;
}

} // namespace

TEST(DiskCacheCorruption, TruncatedEntry) {
  TempDir Tmp;
  DiskCacheStats S = checkDamageRecovers(Tmp.Path, [](const std::string &P) {
    std::string Bytes = readRaw(P);
    writeRaw(P, Bytes.substr(0, Bytes.size() / 2));
  });
  EXPECT_EQ(S.Corrupt, 1u);
  EXPECT_EQ(S.Quarantined, 1u);
}

TEST(DiskCacheCorruption, TruncatedInsideHeader) {
  TempDir Tmp;
  DiskCacheStats S = checkDamageRecovers(Tmp.Path, [](const std::string &P) {
    writeRaw(P, readRaw(P).substr(0, 5));
  });
  EXPECT_EQ(S.Corrupt, 1u);
}

TEST(DiskCacheCorruption, BitFlippedPayload) {
  TempDir Tmp;
  DiskCacheStats S = checkDamageRecovers(Tmp.Path, [](const std::string &P) {
    std::string Bytes = readRaw(P);
    Bytes[Bytes.size() - 3] ^= 0x40; // deep in the payload
    writeRaw(P, Bytes);
  });
  EXPECT_EQ(S.Corrupt, 1u) << "checksum did not catch a payload bit flip";
}

TEST(DiskCacheCorruption, WrongSchemaVersion) {
  TempDir Tmp;
  DiskCacheStats S = checkDamageRecovers(Tmp.Path, [](const std::string &P) {
    std::string Bytes = readRaw(P);
    Bytes[4] = static_cast<char>(DiskCache::SchemaVersion + 1); // version u32
    writeRaw(P, Bytes);
  });
  EXPECT_EQ(S.Corrupt, 1u);
}

TEST(DiskCacheCorruption, ZeroLengthEntry) {
  TempDir Tmp;
  DiskCacheStats S = checkDamageRecovers(
      Tmp.Path, [](const std::string &P) { writeRaw(P, ""); });
  EXPECT_EQ(S.Corrupt, 1u);
}

TEST(DiskCacheCorruption, ForeignFileAtEntryPath) {
  TempDir Tmp;
  DiskCacheStats S = checkDamageRecovers(Tmp.Path, [](const std::string &P) {
    writeRaw(P, "#!/bin/sh\necho not a cache entry\n");
  });
  EXPECT_EQ(S.Corrupt, 1u);
}

TEST(DiskCacheCorruption, KindConfusionIsCaught) {
  // A text entry's bytes copied over a perf entry must not decode.
  TempDir Tmp;
  DiskCache C(Tmp.Path);
  constexpr uint64_t Key = 42;
  C.store(Key, samplePerf());
  C.storeText(Key, sampleText());
  std::string TextBytes = readRaw(C.entryPath(Key, DiskCache::Kind::Text));
  writeRaw(C.entryPath(Key, DiskCache::Kind::Perf), TextBytes);
  PerfResult R;
  EXPECT_FALSE(C.load(Key, R));
  EXPECT_EQ(C.stats().Corrupt, 1u);
}

TEST(DiskCacheCorruption, QuarantineAccumulatesWithoutCollisions) {
  // Re-corrupting the same key repeatedly must keep quarantining (unique
  // quarantine names), never wedge the entry.
  TempDir Tmp;
  DiskCache C(Tmp.Path);
  constexpr uint64_t Key = 7;
  for (int Round = 0; Round < 3; ++Round) {
    C.store(Key, samplePerf());
    writeRaw(C.entryPath(Key, DiskCache::Kind::Perf), "garbage");
    PerfResult R;
    EXPECT_FALSE(C.load(Key, R));
  }
  EXPECT_EQ(C.stats().Quarantined, 3u);
  EXPECT_EQ(countFilesUnder(Tmp.Path + "/quarantine"), 3u);
}

TEST(DiskCacheCorruption, CorruptTextEntryFallsBackToSearch) {
  TempDir Tmp;
  DiskCache C(Tmp.Path);
  constexpr uint64_t Key = 9;
  C.storeText(Key, sampleText());
  std::string Path = C.entryPath(Key, DiskCache::Kind::Text);
  std::string Bytes = readRaw(Path);
  Bytes[Bytes.size() / 2] ^= 1;
  writeRaw(Path, Bytes);
  CachedCompile Out;
  EXPECT_FALSE(C.loadText(Key, Out));
  EXPECT_EQ(C.stats().Corrupt, 1u);
  EXPECT_EQ(C.stats().TextMisses, 1u);
}

//===----------------------------------------------------------------------===//
// Two-tier SimCache
//===----------------------------------------------------------------------===//

namespace {

/// A SimCache::run body for keys a tier must already hold.
PerfResult mustNotRecompute() {
  ADD_FAILURE() << "the cache recomputed a stored key";
  return PerfResult();
}

} // namespace

TEST(TwoTierSimCache, BackendHitIsPromotedIntoMemory) {
  TempDir Tmp;
  DiskCache Disk(Tmp.Path);
  Disk.store(11, samplePerf());

  SimCache Mem;
  Mem.setBackend(&Disk);
  ASSERT_TRUE(Mem.run(11, mustNotRecompute).Valid);
  EXPECT_EQ(Mem.hits(), 0u);
  EXPECT_EQ(Mem.diskHits(), 1u);
  EXPECT_EQ(Mem.misses(), 0u);
  // Promotion does not write the entry back to disk...
  EXPECT_EQ(Disk.stats().Writes, 1u);
  // ...and the second lookup is served from memory.
  ASSERT_TRUE(Mem.run(11, mustNotRecompute).Valid);
  EXPECT_EQ(Mem.hits(), 1u);
  EXPECT_EQ(Disk.stats().SimHits, 1u);
}

TEST(TwoTierSimCache, InsertWritesThroughAndMissCountsBothTiers) {
  TempDir Tmp;
  DiskCache Disk(Tmp.Path);
  SimCache Mem;
  Mem.setBackend(&Disk);
  // A failed run is a miss in both tiers and records nothing.
  EXPECT_FALSE(Mem.run(5, [] { return PerfResult(); }).Valid);
  EXPECT_EQ(Mem.misses(), 1u);
  EXPECT_EQ(Disk.stats().SimMisses, 1u);
  Mem.insert(5, samplePerf());
  EXPECT_EQ(Disk.stats().Writes, 1u);
  // A fresh memory tier over the same disk sees the write-through.
  SimCache Fresh;
  Fresh.setBackend(&Disk);
  ASSERT_TRUE(Fresh.run(5, mustNotRecompute).Valid);
  EXPECT_EQ(Fresh.diskHits(), 1u);
}

TEST(TwoTierSimCache, ClearKeepsTheBackend) {
  TempDir Tmp;
  DiskCache Disk(Tmp.Path);
  SimCache Mem;
  Mem.setBackend(&Disk);
  Mem.insert(3, samplePerf());
  Mem.clear();
  EXPECT_EQ(Mem.size(), 0u);
  EXPECT_TRUE(Mem.run(3, mustNotRecompute).Valid)
      << "clear() wiped the persistent tier";
  EXPECT_EQ(Mem.diskHits(), 1u);
}

//===----------------------------------------------------------------------===//
// Compile keys and end-to-end transparency under damage
//===----------------------------------------------------------------------===//

TEST(CompileCacheKey, SensitiveToOptionsInsensitiveToWiring) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MV, 128, D);
  ASSERT_NE(Naive, nullptr) << D.str();

  CompileOptions Base;
  uint64_t K0 = compileCacheKey(*Naive, Base);

  CompileOptions Wiring = Base;
  Wiring.Jobs = 8;
  SimCache Mem;
  Wiring.Cache = &Mem;
  EXPECT_EQ(compileCacheKey(*Naive, Wiring), K0)
      << "lane count / cache wiring must not change the key";

  CompileOptions OtherDevice = Base;
  OtherDevice.Device = DeviceSpec::gtx8800();
  EXPECT_NE(compileCacheKey(*Naive, OtherDevice), K0);

  CompileOptions NoPrefetch = Base;
  NoPrefetch.Prefetch = false;
  EXPECT_NE(compileCacheKey(*Naive, NoPrefetch), K0);

  CompileOptions Exhaustive = Base;
  Exhaustive.ExhaustiveSearch = true;
  EXPECT_NE(compileCacheKey(*Naive, Exhaustive), K0);
}

TEST(DiskCacheEndToEnd, CorruptedWarmCacheStillCompilesIdentically) {
  // Cold compile, then corrupt EVERY cache file, then warm compile: the
  // result must match the cold one bit-for-bit (recomputed), with every
  // damaged entry quarantined, and a third run repopulates cleanly.
  TempDir Tmp;
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MV, 256, D);
  ASSERT_NE(Naive, nullptr) << D.str();
  GpuCompiler GC(M, D);

  auto compileWith = [&](DiskCache *Disk) {
    CompileOptions Opt;
    Opt.Jobs = 1;
    SimCache Mem;
    Opt.Cache = &Mem;
    Opt.Disk = Disk;
    if (Disk)
      Mem.setBackend(Disk);
    return GC.compile(*Naive, Opt);
  };

  DiskCache Cold(Tmp.Path);
  CompileOutput ColdOut = compileWith(&Cold);
  ASSERT_NE(ColdOut.Best, nullptr);
  std::string ColdText = printKernel(*ColdOut.Best);

  for (const auto &E : fs::recursive_directory_iterator(Tmp.Path))
    if (E.is_regular_file())
      writeRaw(E.path().string(), "corruption sweep");

  DiskCache Warm(Tmp.Path);
  CompileOutput WarmOut = compileWith(&Warm);
  ASSERT_NE(WarmOut.Best, nullptr);
  EXPECT_EQ(printKernel(*WarmOut.Best), ColdText);
  EXPECT_EQ(WarmOut.BestVariant.BlockMergeN, ColdOut.BestVariant.BlockMergeN);
  EXPECT_EQ(WarmOut.BestVariant.ThreadMergeM, ColdOut.BestVariant.ThreadMergeM);
  EXPECT_EQ(WarmOut.BestVariant.Perf.TimeMs, ColdOut.BestVariant.Perf.TimeMs);
  EXPECT_GT(Warm.stats().Corrupt, 0u);
  EXPECT_EQ(Warm.stats().hits(), 0u);

  DiskCache Healthy(Tmp.Path);
  CompileOutput ThirdOut = compileWith(&Healthy);
  ASSERT_NE(ThirdOut.Best, nullptr);
  EXPECT_EQ(printKernel(*ThirdOut.Best), ColdText);
  EXPECT_EQ(Healthy.stats().Corrupt, 0u);
  EXPECT_GT(Healthy.stats().hits(), 0u);
}
