//===-- cache/Serialize.cpp - Versioned binary (de)serialization ----------===//

#include "cache/Serialize.h"

#include <cstring>
#include <mutex>
#include <set>

using namespace gpuc;

// Decoded vector/string lengths are capped well above anything the
// simulator produces; a corrupt length field fails cleanly instead of
// attempting a huge allocation.
static constexpr uint64_t MaxDecodedElems = 1ull << 22;

void ByteWriter::u32(uint32_t V) {
  for (int I = 0; I < 4; ++I)
    u8(static_cast<uint8_t>(V >> (8 * I)));
}

void ByteWriter::u64(uint64_t V) {
  for (int I = 0; I < 8; ++I)
    u8(static_cast<uint8_t>(V >> (8 * I)));
}

void ByteWriter::f64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

void ByteWriter::str(const std::string &S) {
  u64(S.size());
  Buf.append(S);
}

bool ByteReader::take(size_t N, const uint8_t *&Out) {
  if (Fail || static_cast<size_t>(End - P) < N) {
    Fail = true;
    return false;
  }
  Out = P;
  P += N;
  return true;
}

uint8_t ByteReader::u8() {
  const uint8_t *B;
  return take(1, B) ? B[0] : 0;
}

uint32_t ByteReader::u32() {
  const uint8_t *B;
  if (!take(4, B))
    return 0;
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(B[I]) << (8 * I);
  return V;
}

uint64_t ByteReader::u64() {
  const uint8_t *B;
  if (!take(8, B))
    return 0;
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(B[I]) << (8 * I);
  return V;
}

double ByteReader::f64() {
  uint64_t Bits = u64();
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return Fail ? 0.0 : V;
}

std::string ByteReader::str() {
  uint64_t N = u64();
  if (N > MaxDecodedElems) {
    Fail = true;
    return "";
  }
  const uint8_t *B;
  if (!take(static_cast<size_t>(N), B))
    return "";
  return std::string(reinterpret_cast<const char *>(B),
                     static_cast<size_t>(N));
}

const char *gpuc::internLimiterName(const std::string &Name) {
  // The limiter names computeOccupancy assigns (sim/Occupancy.cpp).
  static const char *Known[] = {"blocks",    "threads", "shared",
                                "registers", "grid",    "infeasible"};
  for (const char *K : Known)
    if (Name == K)
      return K;
  // Foreign name (newer schema, hand-edited entry): intern for the
  // process lifetime so the pointer stays valid.
  static std::mutex Mu;
  static std::set<std::string> Interned;
  std::lock_guard<std::mutex> L(Mu);
  return Interned.insert(Name).first->c_str();
}

namespace {

void encodeStats(ByteWriter &W, const SimStats &S) {
  W.f64(S.DynOps);
  W.f64(S.Flops);
  W.f64(S.GlobalLoadHalfWarps);
  W.f64(S.GlobalStoreHalfWarps);
  W.f64(S.CoalescedHalfWarps);
  W.f64(S.UncoalescedHalfWarps);
  W.f64(S.Transactions);
  W.f64(S.BytesMovedFloat);
  W.f64(S.BytesMovedFloat2);
  W.f64(S.BytesMovedFloat4);
  W.f64(S.UsefulBytes);
  W.f64(S.SharedAccessHalfWarps);
  W.f64(S.SharedBankExtraCycles);
  W.f64(S.BlockSyncs);
  W.f64(S.GlobalSyncs);
  W.u64(S.PartitionBytes.size());
  for (double B : S.PartitionBytes)
    W.f64(B);
}

bool decodeStats(ByteReader &R, SimStats &S) {
  S.DynOps = R.f64();
  S.Flops = R.f64();
  S.GlobalLoadHalfWarps = R.f64();
  S.GlobalStoreHalfWarps = R.f64();
  S.CoalescedHalfWarps = R.f64();
  S.UncoalescedHalfWarps = R.f64();
  S.Transactions = R.f64();
  S.BytesMovedFloat = R.f64();
  S.BytesMovedFloat2 = R.f64();
  S.BytesMovedFloat4 = R.f64();
  S.UsefulBytes = R.f64();
  S.SharedAccessHalfWarps = R.f64();
  S.SharedBankExtraCycles = R.f64();
  S.BlockSyncs = R.f64();
  S.GlobalSyncs = R.f64();
  uint64_t N = R.u64();
  if (N > MaxDecodedElems)
    return false;
  S.PartitionBytes.clear();
  S.PartitionBytes.reserve(static_cast<size_t>(N));
  for (uint64_t I = 0; I < N && !R.failed(); ++I)
    S.PartitionBytes.push_back(R.f64());
  return !R.failed();
}

void encodeOccupancy(ByteWriter &W, const Occupancy &O) {
  W.u32(static_cast<uint32_t>(O.RegsPerThread));
  W.i64(O.SharedBytesPerBlock);
  W.u32(static_cast<uint32_t>(O.BlocksPerSM));
  W.u32(static_cast<uint32_t>(O.ActiveThreadsPerSM));
  W.str(O.LimitedBy ? O.LimitedBy : "");
  W.u8(O.Infeasible ? 1 : 0);
}

bool decodeOccupancy(ByteReader &R, Occupancy &O) {
  O.RegsPerThread = static_cast<int>(R.u32());
  O.SharedBytesPerBlock = R.i64();
  O.BlocksPerSM = static_cast<int>(R.u32());
  O.ActiveThreadsPerSM = static_cast<int>(R.u32());
  O.LimitedBy = internLimiterName(R.str());
  O.Infeasible = R.u8() != 0;
  return !R.failed();
}

void encodeTiming(ByteWriter &W, const TimingBreakdown &T) {
  W.f64(T.ComputeMs);
  W.f64(T.MemoryMs);
  W.f64(T.SyncMs);
  W.f64(T.LaunchMs);
  W.f64(T.CampingFactor);
  W.f64(T.OverlapFraction);
  W.f64(T.TotalMs);
}

bool decodeTiming(ByteReader &R, TimingBreakdown &T) {
  T.ComputeMs = R.f64();
  T.MemoryMs = R.f64();
  T.SyncMs = R.f64();
  T.LaunchMs = R.f64();
  T.CampingFactor = R.f64();
  T.OverlapFraction = R.f64();
  T.TotalMs = R.f64();
  return !R.failed();
}

} // namespace

void gpuc::encodePerfResult(ByteWriter &W, const PerfResult &R) {
  W.u8(R.Valid ? 1 : 0);
  encodeStats(W, R.Stats);
  encodeOccupancy(W, R.Occ);
  encodeTiming(W, R.Timing);
  W.f64(R.TimeMs);
  W.u64(R.Sites.size());
  for (const auto &[Label, T] : R.Sites) {
    W.str(Label);
    W.u8(T.IsStore ? 1 : 0);
    W.f64(T.HalfWarps);
    W.f64(T.CoalescedHalfWarps);
    W.f64(T.Transactions);
    W.f64(T.BytesMoved);
  }
}

bool gpuc::decodePerfResult(ByteReader &R, PerfResult &Out) {
  Out = PerfResult();
  Out.Valid = R.u8() != 0;
  if (!decodeStats(R, Out.Stats) || !decodeOccupancy(R, Out.Occ) ||
      !decodeTiming(R, Out.Timing))
    return false;
  Out.TimeMs = R.f64();
  uint64_t N = R.u64();
  if (N > MaxDecodedElems)
    return false;
  Out.Sites.reserve(static_cast<size_t>(N));
  for (uint64_t I = 0; I < N && !R.failed(); ++I) {
    std::string Label = R.str();
    SiteTraffic T;
    // The site pointer identifies a live AST node in the producing
    // process; it is meaningless across processes and stays null.
    T.IsStore = R.u8() != 0;
    T.HalfWarps = R.f64();
    T.CoalescedHalfWarps = R.f64();
    T.Transactions = R.f64();
    T.BytesMoved = R.f64();
    Out.Sites.emplace_back(std::move(Label), T);
  }
  // Entries written before sortSites broke ties deterministically carry
  // tied rows in allocation order; re-sorting makes a loaded result print
  // exactly like a fresh run.
  sortSites(Out.Sites);
  return R.atCleanEnd();
}

void gpuc::encodeCachedCompile(ByteWriter &W, const CachedCompile &E) {
  W.str(E.KernelText);
  W.u32(static_cast<uint32_t>(E.BlockMergeN));
  W.u32(static_cast<uint32_t>(E.ThreadMergeM));
  W.f64(E.TimeMs);
}

bool gpuc::decodeCachedCompile(ByteReader &R, CachedCompile &Out) {
  Out = CachedCompile();
  Out.KernelText = R.str();
  Out.BlockMergeN = static_cast<int>(R.u32());
  Out.ThreadMergeM = static_cast<int>(R.u32());
  Out.TimeMs = R.f64();
  return R.atCleanEnd();
}
