//===-- cache/DiskCache.cpp - Persistent content-addressed cache ----------===//

#include "cache/DiskCache.h"

#include "ast/Hash.h"
#include "support/StringUtils.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <unistd.h>

namespace fs = std::filesystem;
using namespace gpuc;

namespace {

constexpr uint32_t EntryMagic = 0x43555047; // "GPUC", little-endian
constexpr uint64_t ChecksumSeed = 0xcbf29ce484222325ull;

uint64_t payloadChecksum(const std::string &Payload) {
  return hashBytes(ChecksumSeed, Payload.data(), Payload.size());
}

/// Reads a whole file; returns false when it does not exist or cannot be
/// read (the caller treats that as a plain miss, not corruption).
bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::string Data((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  if (In.bad())
    return false;
  Out = std::move(Data);
  return true;
}

std::atomic<uint64_t> OpenCounter{0};
/// Uniquifies tmp/ and quarantine/ names across every handle in the
/// process (the pid separates processes).
std::atomic<uint64_t> NextTmpId{0};

} // namespace

DiskCache::DiskCache(std::string Directory) : Dir(std::move(Directory)) {
  OpenCounter.fetch_add(1);
  std::error_code EC;
  fs::create_directories(fs::path(Dir) / "tmp", EC);
  Valid = !EC && fs::is_directory(Dir, EC) && !EC;
}

uint64_t DiskCache::openCount() { return OpenCounter.load(); }

std::string DiskCache::entryPath(uint64_t Key, Kind K) const {
  // Content address: the semantic key folded with the schema version, so
  // entries from other schema generations live at disjoint paths.
  uint64_t FileKey = hashCombine(Key, SchemaVersion);
  const char *Ext = K == Kind::Perf ? "sim" : "txt";
  return (fs::path(Dir) /
          strFormat("%02x", static_cast<unsigned>(FileKey >> 56)) /
          strFormat("%016llx.%s", static_cast<unsigned long long>(FileKey),
                    Ext))
      .string();
}

std::string DiskCache::tmpPath(uint64_t Key) const {
  return (fs::path(Dir) / "tmp" /
          strFormat("%d.%llu.%016llx", static_cast<int>(::getpid()),
                    static_cast<unsigned long long>(NextTmpId.fetch_add(1)),
                    static_cast<unsigned long long>(Key)))
      .string();
}

void DiskCache::quarantine(const std::string &Path) {
  std::error_code EC;
  fs::path QDir = fs::path(Dir) / "quarantine";
  fs::create_directories(QDir, EC);
  fs::path Target =
      QDir / strFormat("%s.%llu", fs::path(Path).filename().c_str(),
                       static_cast<unsigned long long>(
                           NextTmpId.fetch_add(1)));
  fs::rename(Path, Target, EC);
  if (EC) {
    // Another process may have quarantined it first; removing is an
    // acceptable fallback — the entry must not be rescanned forever.
    fs::remove(Path, EC);
    return;
  }
  Quarantined.fetch_add(1);
}

bool DiskCache::loadEntry(uint64_t Key, Kind K, std::string &Payload) {
  if (!Valid)
    return false;
  std::string Path = entryPath(Key, K);
  std::string Raw;
  if (!readFile(Path, Raw))
    return false; // absent: plain miss
  ByteReader R(Raw);
  uint32_t Magic = R.u32();
  uint32_t Version = R.u32();
  uint32_t RawKind = R.u32();
  uint64_t Size = R.u64();
  uint64_t Checksum = R.u64();
  bool Ok = !R.failed() && Magic == EntryMagic && Version == SchemaVersion &&
            RawKind == static_cast<uint32_t>(K) &&
            Size == Raw.size() - 28 && Size > 0;
  if (Ok) {
    Payload = Raw.substr(28);
    Ok = payloadChecksum(Payload) == Checksum;
  }
  if (!Ok) {
    // Zero-length, truncated, bit-flipped, foreign-version or foreign-file
    // entry: quarantine it and fall back to recomputation.
    Corrupt.fetch_add(1);
    quarantine(Path);
    return false;
  }
  return true;
}

void DiskCache::storeEntry(uint64_t Key, Kind K, const std::string &Payload) {
  if (!Valid)
    return;
  ByteWriter W;
  W.u32(EntryMagic);
  W.u32(SchemaVersion);
  W.u32(static_cast<uint32_t>(K));
  W.u64(Payload.size());
  W.u64(payloadChecksum(Payload));

  std::string Final = entryPath(Key, K);
  std::error_code EC;
  fs::create_directories(fs::path(Final).parent_path(), EC);
  std::string Tmp = tmpPath(Key);
  {
    std::ofstream OutF(Tmp, std::ios::binary | std::ios::trunc);
    OutF.write(W.buffer().data(),
               static_cast<std::streamsize>(W.buffer().size()));
    OutF.write(Payload.data(), static_cast<std::streamsize>(Payload.size()));
    OutF.flush();
    if (!OutF) {
      WriteErrors.fetch_add(1);
      fs::remove(Tmp, EC);
      return;
    }
  }
  // Atomic publish: a reader sees the old entry, no entry, or the complete
  // new entry — never a partial write. Concurrent writers of one key both
  // publish identical bytes; the last rename wins harmlessly.
  fs::rename(Tmp, Final, EC);
  if (EC) {
    WriteErrors.fetch_add(1);
    fs::remove(Tmp, EC);
    return;
  }
  Writes.fetch_add(1);
}

bool DiskCache::load(uint64_t Key, PerfResult &Out) {
  std::string Payload;
  if (!loadEntry(Key, Kind::Perf, Payload)) {
    SimMisses.fetch_add(1);
    return false;
  }
  ByteReader R(Payload);
  if (!decodePerfResult(R, Out)) {
    Corrupt.fetch_add(1);
    quarantine(entryPath(Key, Kind::Perf));
    SimMisses.fetch_add(1);
    return false;
  }
  SimHits.fetch_add(1);
  return true;
}

void DiskCache::store(uint64_t Key, const PerfResult &Result) {
  ByteWriter W;
  encodePerfResult(W, Result);
  storeEntry(Key, Kind::Perf, W.buffer());
}

bool DiskCache::loadText(uint64_t Key, CachedCompile &Out) {
  std::string Payload;
  if (!loadEntry(Key, Kind::Text, Payload)) {
    TextMisses.fetch_add(1);
    return false;
  }
  ByteReader R(Payload);
  if (!decodeCachedCompile(R, Out)) {
    Corrupt.fetch_add(1);
    quarantine(entryPath(Key, Kind::Text));
    TextMisses.fetch_add(1);
    return false;
  }
  TextHits.fetch_add(1);
  return true;
}

void DiskCache::storeText(uint64_t Key, const CachedCompile &Entry) {
  ByteWriter W;
  encodeCachedCompile(W, Entry);
  storeEntry(Key, Kind::Text, W.buffer());
}

DiskCacheStats DiskCache::stats() const {
  DiskCacheStats S;
  S.SimHits = SimHits.load();
  S.SimMisses = SimMisses.load();
  S.TextHits = TextHits.load();
  S.TextMisses = TextMisses.load();
  S.Writes = Writes.load();
  S.WriteErrors = WriteErrors.load();
  S.Corrupt = Corrupt.load();
  S.Quarantined = Quarantined.load();
  return S;
}

std::string DiskCache::makeTempDir(const std::string &Prefix) {
  static std::atomic<uint64_t> Counter{0};
  for (int Attempt = 0; Attempt < 64; ++Attempt) {
    auto Ticks = std::chrono::steady_clock::now().time_since_epoch().count();
    fs::path P =
        fs::temp_directory_path() /
        strFormat("%s-%d-%llu-%llu", Prefix.c_str(),
                  static_cast<int>(::getpid()),
                  static_cast<unsigned long long>(Ticks),
                  static_cast<unsigned long long>(Counter.fetch_add(1)));
    std::error_code EC;
    if (!fs::exists(P, EC) && fs::create_directories(P, EC) && !EC)
      return P.string();
  }
  return (fs::temp_directory_path() / (Prefix + "-fallback")).string();
}
