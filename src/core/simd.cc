#include "src/core/simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PMI_SIMD_X86 1
#include <immintrin.h>
#endif

namespace pmi {
namespace {

constexpr float kFltMax = std::numeric_limits<float>::max();

// ---------------------------------------------------------------------------
// Ambiguity resolution -- shared by every level.
//
// The mask kernels decide each row through the two-sided f32 test:
// certified inside the narrow radius, dead outside the wide one.  The
// sliver in between (a one-in-millions event on real distance data; the
// hand-built boundary tests are what exercise it) is settled here
// against the double column, after which keep[] holds the exact
// double-predicate decision for every row.  The main loops stay
// branch-free and only raise a flag; this rare second pass re-derives
// certification scalar-wise, which matches the vector lanes exactly
// because both evaluate the same IEEE float expressions.
// ---------------------------------------------------------------------------

size_t ResolveAmbiguous(const ExactSlot& s, size_t count, uint8_t* keep) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    if (keep[i]) {
      const float x = s.colf[i];
      const float d = std::fabs(x - s.qf);
      if (!(d <= s.rn && std::fabs(x) < kFltMax)) {
        keep[i] = std::fabs(s.cold[i] - s.qd) <= s.rd;
      }
      n += keep[i];
    }
  }
  return n;
}

size_t ResolveAmbiguousGather(const ExactSlotGather& s, size_t count,
                              uint8_t* keep) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    if (keep[i]) {
      const float x = s.colf[i];
      const float d = std::fabs(x - s.qf_pool[s.idx[i]]);
      if (!(d <= s.rn && std::fabs(x) < kFltMax)) {
        keep[i] = std::fabs(s.cold[i] - s.qd_pool[s.idx[i]]) <= s.rd;
      }
      n += keep[i];
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Scalar kernels.  Without hand-written lanes the two-sided f32 trick
// buys nothing -- three predicates per row cost more than one double
// compare -- so the scalar level works the double columns directly: the
// exact predicate in one branch-free compare per cell, the same cascade
// shape (and cost) as the pre-SIMD engine.  The f32 columns are the
// vector levels' fast path only.  Results are identical by definition:
// every level's mask equals the double predicate row for row.
// ---------------------------------------------------------------------------

size_t MaskSweepScalar(const ExactSlot& s, size_t count, uint8_t* keep) {
  const double* __restrict col = s.cold;
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t k = std::fabs(col[i] - s.qd) <= s.rd;
    keep[i] = k;
    n += k;
  }
  return n;
}

size_t MaskSweepGatherScalar(const ExactSlotGather& s, size_t count,
                             uint8_t* keep) {
  const double* __restrict col = s.cold;
  const uint32_t* __restrict idx = s.idx;
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t k = std::fabs(col[i] - s.qd_pool[idx[i]]) <= s.rd;
    keep[i] = k;
    n += k;
  }
  return n;
}

size_t MaskAndScalar(const ExactSlot& s, size_t count, uint8_t* keep) {
  const double* __restrict col = s.cold;
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t k =
        keep[i] & static_cast<uint8_t>(std::fabs(col[i] - s.qd) <= s.rd);
    keep[i] = k;
    n += k;
  }
  return n;
}

size_t MaskAndGatherScalar(const ExactSlotGather& s, size_t count,
                           uint8_t* keep) {
  const double* __restrict col = s.cold;
  const uint32_t* __restrict idx = s.idx;
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t k =
        keep[i] &
        static_cast<uint8_t>(std::fabs(col[i] - s.qd_pool[idx[i]]) <= s.rd);
    keep[i] = k;
    n += k;
  }
  return n;
}

size_t CompactScalar(const uint8_t* __restrict keep, size_t count,
                     uint32_t* __restrict surv) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    surv[n] = static_cast<uint32_t>(i);
    n += keep[i];
  }
  return n;
}

size_t RefineF64Scalar(const double* __restrict col, double q, double r,
                       uint32_t* __restrict surv, size_t n) {
  size_t m = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t i = surv[j];
    surv[m] = i;
    m += std::fabs(col[i] - q) <= r;
  }
  return m;
}

size_t RefineF64GatherScalar(const double* __restrict col,
                             const uint32_t* __restrict idx,
                             const double* __restrict q_of_pivot, double r,
                             uint32_t* __restrict surv, size_t n) {
  size_t m = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t i = surv[j];
    surv[m] = i;
    m += std::fabs(col[i] - q_of_pivot[idx[i]]) <= r;
  }
  return m;
}

// Scalar multi-query sweeps: without vector registers there is nothing
// to share per load (the block's double column is L1-resident either
// way), so the multi form is simply the single-query sweep per tile
// query -- same predicate, same masks, minimal code.
void MaskSweepMultiScalar(const ExactSlot* slots, size_t nq, size_t count,
                          uint8_t* keep, size_t keep_stride, size_t* counts) {
  for (size_t qi = 0; qi < nq; ++qi) {
    counts[qi] = MaskSweepScalar(slots[qi], count, keep + qi * keep_stride);
  }
}

void MaskSweepGatherMultiScalar(const ExactSlotGather* slots, size_t nq,
                                size_t count, uint8_t* keep,
                                size_t keep_stride, size_t* counts) {
  for (size_t qi = 0; qi < nq; ++qi) {
    counts[qi] =
        MaskSweepGatherScalar(slots[qi], count, keep + qi * keep_stride);
  }
}

#if PMI_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2: 8 float lanes.  Compare -> 8-bit movemask -> byte-table
// expansion into 0/1 mask bytes (one uint64 store per 8 rows); the AND
// form is a plain word AND.  Since each mask byte is 0 or 1, popcount of
// the packed word counts surviving rows directly.  Ambiguity (wide pass
// without a narrow certificate) just accumulates into a flag word; the
// shared scalar resolver runs afterward in the ~never case it is set.
// ---------------------------------------------------------------------------

struct ByteExpandTable {
  alignas(64) uint64_t v[256];
};

const ByteExpandTable kByteExpand = [] {
  ByteExpandTable t{};
  for (int m = 0; m < 256; ++m) {
    uint64_t packed = 0;
    for (int b = 0; b < 8; ++b) {
      if (m & (1 << b)) packed |= uint64_t(1) << (8 * b);
    }
    t.v[m] = packed;
  }
  return t;
}();

__attribute__((target("avx2,fma"))) inline __m256 Abs256(__m256 v) {
  return _mm256_and_ps(v,
                       _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
}

// Wide/narrow lane masks for 8 contiguous cells starting at col + i.
__attribute__((target("avx2,fma"))) inline void Masks8(
    __m256 x, __m256 vq, __m256 vrw, __m256 vrn, __m256 vmax, unsigned* mw,
    unsigned* mc) {
  const __m256 d = Abs256(_mm256_sub_ps(x, vq));
  *mw = static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_cmp_ps(d, vrw, _CMP_LE_OQ)));
  const __m256 cert = _mm256_and_ps(
      _mm256_cmp_ps(d, vrn, _CMP_LE_OQ),
      _mm256_cmp_ps(Abs256(x), vmax, _CMP_LT_OQ));
  *mc = static_cast<unsigned>(_mm256_movemask_ps(cert));
}

__attribute__((target("avx2,fma"))) size_t MaskSweepAvx2(const ExactSlot& s,
                                                         size_t count,
                                                         uint8_t* keep) {
  const __m256 vq = _mm256_set1_ps(s.qf);
  const __m256 vrw = _mm256_set1_ps(s.rw);
  const __m256 vrn = _mm256_set1_ps(s.rn);
  const __m256 vmax = _mm256_set1_ps(kFltMax);
  size_t n = 0;
  unsigned amb = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    unsigned mw, mc;
    Masks8(_mm256_loadu_ps(s.colf + i), vq, vrw, vrn, vmax, &mw, &mc);
    const uint64_t bytes = kByteExpand.v[mw];
    std::memcpy(keep + i, &bytes, 8);
    n += static_cast<size_t>(__builtin_popcount(mw));
    amb |= mw & ~mc;
  }
  for (; i < count; ++i) {
    const float x = s.colf[i];
    const float d = std::fabs(x - s.qf);
    const uint8_t kw = d <= s.rw;
    const uint8_t kc = (d <= s.rn) & (std::fabs(x) < kFltMax);
    keep[i] = kw;
    n += kw;
    amb |= kw & (kc ^ 1);
  }
  if (amb != 0) n = ResolveAmbiguous(s, count, keep);
  return n;
}

__attribute__((target("avx2,fma"))) size_t MaskSweepGatherAvx2(
    const ExactSlotGather& s, size_t count, uint8_t* keep) {
  const __m256 vrw = _mm256_set1_ps(s.rw);
  const __m256 vrn = _mm256_set1_ps(s.rn);
  const __m256 vmax = _mm256_set1_ps(kFltMax);
  size_t n = 0;
  unsigned amb = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s.idx + i));
    const __m256 vq = _mm256_i32gather_ps(s.qf_pool, vidx, 4);
    unsigned mw, mc;
    Masks8(_mm256_loadu_ps(s.colf + i), vq, vrw, vrn, vmax, &mw, &mc);
    const uint64_t bytes = kByteExpand.v[mw];
    std::memcpy(keep + i, &bytes, 8);
    n += static_cast<size_t>(__builtin_popcount(mw));
    amb |= mw & ~mc;
  }
  for (; i < count; ++i) {
    const float x = s.colf[i];
    const float d = std::fabs(x - s.qf_pool[s.idx[i]]);
    const uint8_t kw = d <= s.rw;
    const uint8_t kc = (d <= s.rn) & (std::fabs(x) < kFltMax);
    keep[i] = kw;
    n += kw;
    amb |= kw & (kc ^ 1);
  }
  if (amb != 0) n = ResolveAmbiguousGather(s, count, keep);
  return n;
}

__attribute__((target("avx2,fma"))) size_t MaskAndAvx2(const ExactSlot& s,
                                                       size_t count,
                                                       uint8_t* keep) {
  const __m256 vq = _mm256_set1_ps(s.qf);
  const __m256 vrw = _mm256_set1_ps(s.rw);
  const __m256 vrn = _mm256_set1_ps(s.rn);
  const __m256 vmax = _mm256_set1_ps(kFltMax);
  size_t n = 0;
  unsigned amb = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    unsigned mw, mc;
    Masks8(_mm256_loadu_ps(s.colf + i), vq, vrw, vrn, vmax, &mw, &mc);
    uint64_t cur;
    std::memcpy(&cur, keep + i, 8);
    cur &= kByteExpand.v[mw];
    std::memcpy(keep + i, &cur, 8);
    n += static_cast<size_t>(__builtin_popcountll(cur));
    // Over-approximate: flag any wide-but-uncertified lane, alive or
    // not.  The resolver only rewrites live rows, so a dead-row flag
    // costs one rare extra pass and never changes the result.
    amb |= mw & ~mc;
  }
  for (; i < count; ++i) {
    const float x = s.colf[i];
    const float d = std::fabs(x - s.qf);
    const uint8_t kw = keep[i] & static_cast<uint8_t>(d <= s.rw);
    const uint8_t kc = (d <= s.rn) & (std::fabs(x) < kFltMax);
    keep[i] = kw;
    n += kw;
    amb |= kw & (kc ^ 1);
  }
  if (amb != 0) n = ResolveAmbiguous(s, count, keep);
  return n;
}

__attribute__((target("avx2,fma"))) size_t MaskAndGatherAvx2(
    const ExactSlotGather& s, size_t count, uint8_t* keep) {
  const __m256 vrw = _mm256_set1_ps(s.rw);
  const __m256 vrn = _mm256_set1_ps(s.rn);
  const __m256 vmax = _mm256_set1_ps(kFltMax);
  size_t n = 0;
  unsigned amb = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s.idx + i));
    const __m256 vq = _mm256_i32gather_ps(s.qf_pool, vidx, 4);
    unsigned mw, mc;
    Masks8(_mm256_loadu_ps(s.colf + i), vq, vrw, vrn, vmax, &mw, &mc);
    uint64_t cur;
    std::memcpy(&cur, keep + i, 8);
    cur &= kByteExpand.v[mw];
    std::memcpy(keep + i, &cur, 8);
    n += static_cast<size_t>(__builtin_popcountll(cur));
    amb |= mw & ~mc;  // over-approximation, see MaskAndAvx2
  }
  for (; i < count; ++i) {
    const float x = s.colf[i];
    const float d = std::fabs(x - s.qf_pool[s.idx[i]]);
    const uint8_t kw = keep[i] & static_cast<uint8_t>(d <= s.rw);
    const uint8_t kc = (d <= s.rn) & (std::fabs(x) < kFltMax);
    keep[i] = kw;
    n += kw;
    amb |= kw & (kc ^ 1);
  }
  if (amb != 0) n = ResolveAmbiguousGather(s, count, keep);
  return n;
}

// Multi-query sweep: one slab load per 8 rows serves every query of a
// register-resident group -- the register-level form of the block-major
// amortization.  The group size G is a compile-time constant chosen so
// the 3 broadcast registers per query (query value, wide radius, narrow
// radius) all stay in ymm registers across the row loop; a dynamic
// query count would spill them to the stack and the reloads would cost
// more than the shared column load saves.  Groups walk the same
// L1-resident slab, so re-streaming it tile/G times is nearly free.
// Mask bytes and counts per query match MaskSweepAvx2 exactly (same
// lane expressions, same resolver).
template <size_t G>
__attribute__((target("avx2,fma"))) void MaskSweepMultiAvx2Group(
    const ExactSlot* slots, size_t count, uint8_t* keep, size_t keep_stride,
    size_t* counts) {
  __m256 vq[G], vrw[G], vrn[G];
  unsigned amb[G];
  size_t cnt[G];
  for (size_t j = 0; j < G; ++j) {
    vq[j] = _mm256_set1_ps(slots[j].qf);
    vrw[j] = _mm256_set1_ps(slots[j].rw);
    vrn[j] = _mm256_set1_ps(slots[j].rn);
    amb[j] = 0;
    cnt[j] = 0;
  }
  const __m256 vmax = _mm256_set1_ps(kFltMax);
  const float* colf = slots[0].colf;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256 x = _mm256_loadu_ps(colf + i);
    for (size_t j = 0; j < G; ++j) {
      unsigned mw, mc;
      Masks8(x, vq[j], vrw[j], vrn[j], vmax, &mw, &mc);
      const uint64_t bytes = kByteExpand.v[mw];
      std::memcpy(keep + j * keep_stride + i, &bytes, 8);
      cnt[j] += static_cast<size_t>(__builtin_popcount(mw));
      amb[j] |= mw & ~mc;
    }
  }
  for (; i < count; ++i) {
    const float x = colf[i];
    for (size_t j = 0; j < G; ++j) {
      const float d = std::fabs(x - slots[j].qf);
      const uint8_t kw = d <= slots[j].rw;
      const uint8_t kc = (d <= slots[j].rn) & (std::fabs(x) < kFltMax);
      keep[j * keep_stride + i] = kw;
      cnt[j] += kw;
      amb[j] |= kw & (kc ^ 1);
    }
  }
  for (size_t j = 0; j < G; ++j) {
    counts[j] = amb[j] != 0
                    ? ResolveAmbiguous(slots[j], count, keep + j * keep_stride)
                    : cnt[j];
  }
}

void MaskSweepMultiAvx2(const ExactSlot* slots, size_t nq, size_t count,
                        uint8_t* keep, size_t keep_stride, size_t* counts) {
  size_t t = 0;
  for (; t + 4 <= nq; t += 4) {
    MaskSweepMultiAvx2Group<4>(slots + t, count, keep + t * keep_stride,
                               keep_stride, counts + t);
  }
  for (; t < nq; ++t) {
    counts[t] = MaskSweepAvx2(slots[t], count, keep + t * keep_stride);
  }
}

// Per-row-pivot multi sweep: the cell and pool-index loads are shared
// across the group; only the per-query pool gather differs.
template <size_t G>
__attribute__((target("avx2,fma"))) void MaskSweepGatherMultiAvx2Group(
    const ExactSlotGather* slots, size_t count, uint8_t* keep,
    size_t keep_stride, size_t* counts) {
  __m256 vrw[G], vrn[G];
  unsigned amb[G];
  size_t cnt[G];
  for (size_t j = 0; j < G; ++j) {
    vrw[j] = _mm256_set1_ps(slots[j].rw);
    vrn[j] = _mm256_set1_ps(slots[j].rn);
    amb[j] = 0;
    cnt[j] = 0;
  }
  const __m256 vmax = _mm256_set1_ps(kFltMax);
  const float* colf = slots[0].colf;
  const uint32_t* idx = slots[0].idx;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256 x = _mm256_loadu_ps(colf + i);
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    for (size_t j = 0; j < G; ++j) {
      const __m256 vq = _mm256_i32gather_ps(slots[j].qf_pool, vidx, 4);
      unsigned mw, mc;
      Masks8(x, vq, vrw[j], vrn[j], vmax, &mw, &mc);
      const uint64_t bytes = kByteExpand.v[mw];
      std::memcpy(keep + j * keep_stride + i, &bytes, 8);
      cnt[j] += static_cast<size_t>(__builtin_popcount(mw));
      amb[j] |= mw & ~mc;
    }
  }
  for (; i < count; ++i) {
    const float x = colf[i];
    for (size_t j = 0; j < G; ++j) {
      const float d = std::fabs(x - slots[j].qf_pool[idx[i]]);
      const uint8_t kw = d <= slots[j].rw;
      const uint8_t kc = (d <= slots[j].rn) & (std::fabs(x) < kFltMax);
      keep[j * keep_stride + i] = kw;
      cnt[j] += kw;
      amb[j] |= kw & (kc ^ 1);
    }
  }
  for (size_t j = 0; j < G; ++j) {
    counts[j] = amb[j] != 0 ? ResolveAmbiguousGather(slots[j], count,
                                                     keep + j * keep_stride)
                            : cnt[j];
  }
}

void MaskSweepGatherMultiAvx2(const ExactSlotGather* slots, size_t nq,
                              size_t count, uint8_t* keep,
                              size_t keep_stride, size_t* counts) {
  size_t t = 0;
  for (; t + 4 <= nq; t += 4) {
    MaskSweepGatherMultiAvx2Group<4>(slots + t, count, keep + t * keep_stride,
                                     keep_stride, counts + t);
  }
  for (; t < nq; ++t) {
    counts[t] = MaskSweepGatherAvx2(slots[t], count, keep + t * keep_stride);
  }
}

// ---------------------------------------------------------------------------
// AVX2 compress-store emulation.  AVX2 has no compress instruction, so
// compaction and the refine kernels previously fell back to scalar; a
// 256-entry shuffle LUT closes most of that gap: each 8-bit survivor
// mask maps to the packed lane ids of its set bits, which
// vpermd (permutevar8x32) applies to left-pack 8 dword indices in two
// instructions.  Stores always write a full 8-lane register and advance
// by popcount, exactly like the AVX-512 compress-stores -- callers
// already guarantee kSurvWriteSlack lanes of slack past the survivor
// count.
// ---------------------------------------------------------------------------

struct CompressLutTable {
  alignas(64) uint64_t v[256];
};

const CompressLutTable kCompressLut = [] {
  CompressLutTable t{};
  for (int m = 0; m < 256; ++m) {
    uint64_t packed = 0;
    int pos = 0;
    for (int b = 0; b < 8; ++b) {
      if (m & (1 << b)) packed |= uint64_t(b) << (8 * pos++);
    }
    t.v[m] = packed;
  }
  return t;
}();

// Left-packs the 8 dwords of `ids` selected by mask `m` (LSB = lane 0)
// to the front of the returned register.
__attribute__((target("avx2"))) inline __m256i Compress8(__m256i ids,
                                                         unsigned m) {
  const __m256i perm =
      _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(int64_t(kCompressLut.v[m])));
  return _mm256_permutevar8x32_epi32(ids, perm);
}

__attribute__((target("avx2"))) size_t CompactAvx2(const uint8_t* keep,
                                                   size_t count,
                                                   uint32_t* surv) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m128i zero = _mm_setzero_si128();
  size_t n = 0, i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keep + i));
    const unsigned m16 = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpgt_epi8(b, zero)));
    const unsigned lo = m16 & 0xff, hi = m16 >> 8;
    if (lo != 0) {
      const __m256i ids =
          _mm256_add_epi32(iota, _mm256_set1_epi32(static_cast<int>(i)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(surv + n),
                          Compress8(ids, lo));
      n += static_cast<size_t>(__builtin_popcount(lo));
    }
    if (hi != 0) {
      const __m256i ids =
          _mm256_add_epi32(iota, _mm256_set1_epi32(static_cast<int>(i + 8)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(surv + n),
                          Compress8(ids, hi));
      n += static_cast<size_t>(__builtin_popcount(hi));
    }
  }
  for (; i < count; ++i) {
    surv[n] = static_cast<uint32_t>(i);
    n += keep[i];
  }
  return n;
}

__attribute__((target("avx2"))) inline __m256d AbsPd(__m256d v) {
  return _mm256_and_pd(
      v, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL)));
}

// Full-mask gathers with a zeroed source register: identical lanes to
// the plain gather intrinsics, without the undefined source operand
// that trips -Wmaybe-uninitialized.
__attribute__((target("avx2"))) inline __m256d GatherPd(const double* base,
                                                        __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

__attribute__((target("avx2"))) inline __m256i GatherEpi32(
    const uint32_t* base, __m256i idx) {
  return _mm256_mask_i32gather_epi32(_mm256_setzero_si256(),
                                     reinterpret_cast<const int*>(base), idx,
                                     _mm256_set1_epi32(-1), 4);
}

// In-place survivor refinement against a double column: two 4-double
// gathers per 8 survivors, one LUT compress per verdict byte.  The
// write cursor never passes the read cursor (m <= j), and each store's
// source lanes were loaded before the store, so in-place narrowing is
// safe exactly as in the AVX-512 kernels.
__attribute__((target("avx2"))) size_t RefineF64Avx2(const double* col,
                                                     double q, double r,
                                                     uint32_t* surv,
                                                     size_t n) {
  const __m256d vq = _mm256_set1_pd(q);
  const __m256d vr = _mm256_set1_pd(r);
  size_t m = 0, j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i sv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(surv + j));
    const __m128i sv_lo = _mm256_castsi256_si128(sv);
    const __m128i sv_hi = _mm256_extracti128_si256(sv, 1);
    const __m256d v0 = GatherPd(col, sv_lo);
    const __m256d v1 = GatherPd(col, sv_hi);
    const unsigned k0 = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(AbsPd(_mm256_sub_pd(v0, vq)), vr, _CMP_LE_OQ)));
    const unsigned k1 = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(AbsPd(_mm256_sub_pd(v1, vq)), vr, _CMP_LE_OQ)));
    const unsigned k = k0 | (k1 << 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(surv + m),
                        Compress8(sv, k));
    m += static_cast<size_t>(__builtin_popcount(k));
  }
  for (; j < n; ++j) {
    const uint32_t i = surv[j];
    surv[m] = i;
    m += std::fabs(col[i] - q) <= r;
  }
  return m;
}

__attribute__((target("avx2"))) size_t RefineF64GatherAvx2(
    const double* col, const uint32_t* idx, const double* q_of_pivot,
    double r, uint32_t* surv, size_t n) {
  const __m256d vr = _mm256_set1_pd(r);
  size_t m = 0, j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i sv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(surv + j));
    const __m128i sv_lo = _mm256_castsi256_si128(sv);
    const __m128i sv_hi = _mm256_extracti128_si256(sv, 1);
    const __m256i vidx = GatherEpi32(idx, sv);
    const __m128i vidx_lo = _mm256_castsi256_si128(vidx);
    const __m128i vidx_hi = _mm256_extracti128_si256(vidx, 1);
    const __m256d q0 = GatherPd(q_of_pivot, vidx_lo);
    const __m256d q1 = GatherPd(q_of_pivot, vidx_hi);
    const __m256d v0 = GatherPd(col, sv_lo);
    const __m256d v1 = GatherPd(col, sv_hi);
    const unsigned k0 = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(AbsPd(_mm256_sub_pd(v0, q0)), vr, _CMP_LE_OQ)));
    const unsigned k1 = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(AbsPd(_mm256_sub_pd(v1, q1)), vr, _CMP_LE_OQ)));
    const unsigned k = k0 | (k1 << 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(surv + m),
                        Compress8(sv, k));
    m += static_cast<size_t>(__builtin_popcount(k));
  }
  for (; j < n; ++j) {
    const uint32_t i = surv[j];
    surv[m] = i;
    m += std::fabs(col[i] - q_of_pivot[idx[i]]) <= r;
  }
  return m;
}

// ---------------------------------------------------------------------------
// AVX-512: 16 float lanes, native mask compares and compress-stores.
// Mask bytes come from maskz_set1_epi8; compaction turns 16 mask bytes
// into a __mmask16 and compress-stores the iota+base indices in one
// instruction.  In the refine kernels the write cursor never passes the
// read cursor, so in-place narrowing is safe.
// ---------------------------------------------------------------------------

#define PMI_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

PMI_AVX512_TARGET size_t MaskSweepAvx512(const ExactSlot& s, size_t count,
                                         uint8_t* keep) {
  const __m512 vq = _mm512_set1_ps(s.qf);
  const __m512 vrw = _mm512_set1_ps(s.rw);
  const __m512 vrn = _mm512_set1_ps(s.rn);
  const __m512 vmax = _mm512_set1_ps(kFltMax);
  size_t n = 0;
  __mmask16 amb = 0;
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512 x = _mm512_loadu_ps(s.colf + i);
    const __m512 d = _mm512_abs_ps(_mm512_sub_ps(x, vq));
    const __mmask16 mw = _mm512_cmp_ps_mask(d, vrw, _CMP_LE_OQ);
    const __mmask16 mc =
        _mm512_cmp_ps_mask(d, vrn, _CMP_LE_OQ) &
        _mm512_cmp_ps_mask(_mm512_abs_ps(x), vmax, _CMP_LT_OQ);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(keep + i),
                     _mm_maskz_set1_epi8(mw, 1));
    n += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mw)));
    amb |= mw & ~mc;
  }
  unsigned tail_amb = 0;
  for (; i < count; ++i) {
    const float x = s.colf[i];
    const float d = std::fabs(x - s.qf);
    const uint8_t kw = d <= s.rw;
    const uint8_t kc = (d <= s.rn) & (std::fabs(x) < kFltMax);
    keep[i] = kw;
    n += kw;
    tail_amb |= kw & (kc ^ 1);
  }
  if (amb != 0 || tail_amb != 0) n = ResolveAmbiguous(s, count, keep);
  return n;
}

PMI_AVX512_TARGET size_t MaskSweepGatherAvx512(const ExactSlotGather& s,
                                               size_t count, uint8_t* keep) {
  const __m512 vrw = _mm512_set1_ps(s.rw);
  const __m512 vrn = _mm512_set1_ps(s.rn);
  const __m512 vmax = _mm512_set1_ps(kFltMax);
  size_t n = 0;
  __mmask16 amb = 0;
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i vidx = _mm512_loadu_si512(s.idx + i);
    const __m512 vq = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xffff,
                                               vidx, s.qf_pool, 4);
    const __m512 x = _mm512_loadu_ps(s.colf + i);
    const __m512 d = _mm512_abs_ps(_mm512_sub_ps(x, vq));
    const __mmask16 mw = _mm512_cmp_ps_mask(d, vrw, _CMP_LE_OQ);
    const __mmask16 mc =
        _mm512_cmp_ps_mask(d, vrn, _CMP_LE_OQ) &
        _mm512_cmp_ps_mask(_mm512_abs_ps(x), vmax, _CMP_LT_OQ);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(keep + i),
                     _mm_maskz_set1_epi8(mw, 1));
    n += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mw)));
    amb |= mw & ~mc;
  }
  unsigned tail_amb = 0;
  for (; i < count; ++i) {
    const float x = s.colf[i];
    const float d = std::fabs(x - s.qf_pool[s.idx[i]]);
    const uint8_t kw = d <= s.rw;
    const uint8_t kc = (d <= s.rn) & (std::fabs(x) < kFltMax);
    keep[i] = kw;
    n += kw;
    tail_amb |= kw & (kc ^ 1);
  }
  if (amb != 0 || tail_amb != 0) n = ResolveAmbiguousGather(s, count, keep);
  return n;
}

PMI_AVX512_TARGET size_t MaskAndAvx512(const ExactSlot& s, size_t count,
                                       uint8_t* keep) {
  const __m512 vq = _mm512_set1_ps(s.qf);
  const __m512 vrw = _mm512_set1_ps(s.rw);
  const __m512 vrn = _mm512_set1_ps(s.rn);
  const __m512 vmax = _mm512_set1_ps(kFltMax);
  size_t n = 0;
  __mmask16 amb = 0;
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512 x = _mm512_loadu_ps(s.colf + i);
    const __m512 d = _mm512_abs_ps(_mm512_sub_ps(x, vq));
    const __mmask16 mw = _mm512_cmp_ps_mask(d, vrw, _CMP_LE_OQ);
    const __mmask16 mc =
        _mm512_cmp_ps_mask(d, vrn, _CMP_LE_OQ) &
        _mm512_cmp_ps_mask(_mm512_abs_ps(x), vmax, _CMP_LT_OQ);
    const __m128i cur =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keep + i));
    const __m128i res = _mm_maskz_mov_epi8(mw, cur);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(keep + i), res);
    const __mmask16 alive = _mm_test_epi8_mask(res, res);
    n += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(alive)));
    amb |= alive & ~mc;
  }
  unsigned tail_amb = 0;
  for (; i < count; ++i) {
    const float x = s.colf[i];
    const float d = std::fabs(x - s.qf);
    const uint8_t kw = keep[i] & static_cast<uint8_t>(d <= s.rw);
    const uint8_t kc = (d <= s.rn) & (std::fabs(x) < kFltMax);
    keep[i] = kw;
    n += kw;
    tail_amb |= kw & (kc ^ 1);
  }
  if (amb != 0 || tail_amb != 0) n = ResolveAmbiguous(s, count, keep);
  return n;
}

PMI_AVX512_TARGET size_t MaskAndGatherAvx512(const ExactSlotGather& s,
                                             size_t count, uint8_t* keep) {
  const __m512 vrw = _mm512_set1_ps(s.rw);
  const __m512 vrn = _mm512_set1_ps(s.rn);
  const __m512 vmax = _mm512_set1_ps(kFltMax);
  size_t n = 0;
  __mmask16 amb = 0;
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i vidx = _mm512_loadu_si512(s.idx + i);
    const __m512 vq = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xffff,
                                               vidx, s.qf_pool, 4);
    const __m512 x = _mm512_loadu_ps(s.colf + i);
    const __m512 d = _mm512_abs_ps(_mm512_sub_ps(x, vq));
    const __mmask16 mw = _mm512_cmp_ps_mask(d, vrw, _CMP_LE_OQ);
    const __mmask16 mc =
        _mm512_cmp_ps_mask(d, vrn, _CMP_LE_OQ) &
        _mm512_cmp_ps_mask(_mm512_abs_ps(x), vmax, _CMP_LT_OQ);
    const __m128i cur =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keep + i));
    const __m128i res = _mm_maskz_mov_epi8(mw, cur);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(keep + i), res);
    const __mmask16 alive = _mm_test_epi8_mask(res, res);
    n += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(alive)));
    amb |= alive & ~mc;
  }
  unsigned tail_amb = 0;
  for (; i < count; ++i) {
    const float x = s.colf[i];
    const float d = std::fabs(x - s.qf_pool[s.idx[i]]);
    const uint8_t kw = keep[i] & static_cast<uint8_t>(d <= s.rw);
    const uint8_t kc = (d <= s.rn) & (std::fabs(x) < kFltMax);
    keep[i] = kw;
    n += kw;
    tail_amb |= kw & (kc ^ 1);
  }
  if (amb != 0 || tail_amb != 0) n = ResolveAmbiguousGather(s, count, keep);
  return n;
}

PMI_AVX512_TARGET size_t CompactAvx512(const uint8_t* keep, size_t count,
                                       uint32_t* surv) {
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  size_t n = 0, i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keep + i));
    const __mmask16 m = _mm_test_epi8_mask(b, b);
    const __m512i ids =
        _mm512_add_epi32(iota, _mm512_set1_epi32(static_cast<int>(i)));
    _mm512_mask_compressstoreu_epi32(surv + n, m, ids);
    n += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(m)));
  }
  for (; i < count; ++i) {
    surv[n] = static_cast<uint32_t>(i);
    n += keep[i];
  }
  return n;
}

PMI_AVX512_TARGET size_t RefineF64Avx512(const double* col, double q,
                                         double r, uint32_t* surv, size_t n) {
  const __m512d vq = _mm512_set1_pd(q);
  const __m512d vr = _mm512_set1_pd(r);
  size_t m = 0, j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i sv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(surv + j));
    const __m512d v = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xff, sv,
                                               col, 8);
    const __mmask8 k = _mm512_cmp_pd_mask(
        _mm512_abs_pd(_mm512_sub_pd(v, vq)), vr, _CMP_LE_OQ);
    _mm256_mask_compressstoreu_epi32(surv + m, k, sv);
    m += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(k)));
  }
  for (; j < n; ++j) {
    const uint32_t i = surv[j];
    surv[m] = i;
    m += std::fabs(col[i] - q) <= r;
  }
  return m;
}

PMI_AVX512_TARGET size_t RefineF64GatherAvx512(const double* col,
                                               const uint32_t* idx,
                                               const double* q_of_pivot,
                                               double r, uint32_t* surv,
                                               size_t n) {
  const __m512d vr = _mm512_set1_pd(r);
  size_t m = 0, j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i sv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(surv + j));
    const __m256i vidx = _mm256_mmask_i32gather_epi32(
        _mm256_setzero_si256(), 0xff, sv, idx, 4);
    const __m512d vq = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xff,
                                                vidx, q_of_pivot, 8);
    const __m512d v = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xff, sv,
                                               col, 8);
    const __mmask8 k = _mm512_cmp_pd_mask(
        _mm512_abs_pd(_mm512_sub_pd(v, vq)), vr, _CMP_LE_OQ);
    _mm256_mask_compressstoreu_epi32(surv + m, k, sv);
    m += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(k)));
  }
  for (; j < n; ++j) {
    const uint32_t i = surv[j];
    surv[m] = i;
    m += std::fabs(col[i] - q_of_pivot[idx[i]]) <= r;
  }
  return m;
}

// Multi-query sweeps: one 16-lane slab load per row chunk shared by a
// register-resident group of 8 queries (3 zmm broadcasts per query,
// well under the 32-register file); per-query masks/counts equal
// MaskSweepAvx512's.  See the AVX2 group kernels for why G is a
// compile-time constant.
template <size_t G>
PMI_AVX512_TARGET void MaskSweepMultiAvx512Group(const ExactSlot* slots,
                                                 size_t count, uint8_t* keep,
                                                 size_t keep_stride,
                                                 size_t* counts) {
  __m512 vq[G], vrw[G], vrn[G];
  unsigned amb[G];
  size_t cnt[G];
  for (size_t j = 0; j < G; ++j) {
    vq[j] = _mm512_set1_ps(slots[j].qf);
    vrw[j] = _mm512_set1_ps(slots[j].rw);
    vrn[j] = _mm512_set1_ps(slots[j].rn);
    amb[j] = 0;
    cnt[j] = 0;
  }
  const __m512 vmax = _mm512_set1_ps(kFltMax);
  const float* colf = slots[0].colf;
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512 x = _mm512_loadu_ps(colf + i);
    const __m512 xabs = _mm512_abs_ps(x);
    for (size_t j = 0; j < G; ++j) {
      const __m512 d = _mm512_abs_ps(_mm512_sub_ps(x, vq[j]));
      const __mmask16 mw = _mm512_cmp_ps_mask(d, vrw[j], _CMP_LE_OQ);
      const __mmask16 mc = _mm512_cmp_ps_mask(d, vrn[j], _CMP_LE_OQ) &
                           _mm512_cmp_ps_mask(xabs, vmax, _CMP_LT_OQ);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(keep + j * keep_stride + i),
                       _mm_maskz_set1_epi8(mw, 1));
      cnt[j] +=
          static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mw)));
      amb[j] |= mw & ~mc;
    }
  }
  for (; i < count; ++i) {
    const float x = colf[i];
    for (size_t j = 0; j < G; ++j) {
      const float d = std::fabs(x - slots[j].qf);
      const uint8_t kw = d <= slots[j].rw;
      const uint8_t kc = (d <= slots[j].rn) & (std::fabs(x) < kFltMax);
      keep[j * keep_stride + i] = kw;
      cnt[j] += kw;
      amb[j] |= kw & (kc ^ 1);
    }
  }
  for (size_t j = 0; j < G; ++j) {
    counts[j] = amb[j] != 0
                    ? ResolveAmbiguous(slots[j], count, keep + j * keep_stride)
                    : cnt[j];
  }
}

void MaskSweepMultiAvx512(const ExactSlot* slots, size_t nq, size_t count,
                          uint8_t* keep, size_t keep_stride, size_t* counts) {
  size_t t = 0;
  for (; t + 8 <= nq; t += 8) {
    MaskSweepMultiAvx512Group<8>(slots + t, count, keep + t * keep_stride,
                                 keep_stride, counts + t);
  }
  if (nq - t >= 4) {
    MaskSweepMultiAvx512Group<4>(slots + t, count, keep + t * keep_stride,
                                 keep_stride, counts + t);
    t += 4;
  }
  for (; t < nq; ++t) {
    counts[t] = MaskSweepAvx512(slots[t], count, keep + t * keep_stride);
  }
}

template <size_t G>
PMI_AVX512_TARGET void MaskSweepGatherMultiAvx512Group(
    const ExactSlotGather* slots, size_t count, uint8_t* keep,
    size_t keep_stride, size_t* counts) {
  __m512 vrw[G], vrn[G];
  unsigned amb[G];
  size_t cnt[G];
  for (size_t j = 0; j < G; ++j) {
    vrw[j] = _mm512_set1_ps(slots[j].rw);
    vrn[j] = _mm512_set1_ps(slots[j].rn);
    amb[j] = 0;
    cnt[j] = 0;
  }
  const __m512 vmax = _mm512_set1_ps(kFltMax);
  const float* colf = slots[0].colf;
  const uint32_t* idx = slots[0].idx;
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512 x = _mm512_loadu_ps(colf + i);
    const __m512 xabs = _mm512_abs_ps(x);
    const __m512i vidx = _mm512_loadu_si512(idx + i);
    for (size_t j = 0; j < G; ++j) {
      const __m512 vq = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xffff,
                                                 vidx, slots[j].qf_pool, 4);
      const __m512 d = _mm512_abs_ps(_mm512_sub_ps(x, vq));
      const __mmask16 mw = _mm512_cmp_ps_mask(d, vrw[j], _CMP_LE_OQ);
      const __mmask16 mc = _mm512_cmp_ps_mask(d, vrn[j], _CMP_LE_OQ) &
                           _mm512_cmp_ps_mask(xabs, vmax, _CMP_LT_OQ);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(keep + j * keep_stride + i),
                       _mm_maskz_set1_epi8(mw, 1));
      cnt[j] +=
          static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mw)));
      amb[j] |= mw & ~mc;
    }
  }
  for (; i < count; ++i) {
    const float x = colf[i];
    for (size_t j = 0; j < G; ++j) {
      const float d = std::fabs(x - slots[j].qf_pool[idx[i]]);
      const uint8_t kw = d <= slots[j].rw;
      const uint8_t kc = (d <= slots[j].rn) & (std::fabs(x) < kFltMax);
      keep[j * keep_stride + i] = kw;
      cnt[j] += kw;
      amb[j] |= kw & (kc ^ 1);
    }
  }
  for (size_t j = 0; j < G; ++j) {
    counts[j] = amb[j] != 0 ? ResolveAmbiguousGather(slots[j], count,
                                                     keep + j * keep_stride)
                            : cnt[j];
  }
}

void MaskSweepGatherMultiAvx512(const ExactSlotGather* slots, size_t nq,
                                size_t count, uint8_t* keep,
                                size_t keep_stride, size_t* counts) {
  size_t t = 0;
  for (; t + 8 <= nq; t += 8) {
    MaskSweepGatherMultiAvx512Group<8>(slots + t, count,
                                       keep + t * keep_stride, keep_stride,
                                       counts + t);
  }
  if (nq - t >= 4) {
    MaskSweepGatherMultiAvx512Group<4>(slots + t, count,
                                       keep + t * keep_stride, keep_stride,
                                       counts + t);
    t += 4;
  }
  for (; t < nq; ++t) {
    counts[t] =
        MaskSweepGatherAvx512(slots[t], count, keep + t * keep_stride);
  }
}

#undef PMI_AVX512_TARGET

bool CpuSupportsAvx512() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}

#endif  // PMI_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch resolution.
// ---------------------------------------------------------------------------

SimdLevel DetectBestLevel() {
#if PMI_SIMD_X86
  if (CpuSupportsAvx512()) return SimdLevel::kAvx512;
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
#else
  return SimdLevel::kScalar;
#endif
}

SimdOps MakeOps(SimdLevel level) {
  SimdOps ops;
  ops.level = SimdLevel::kScalar;
  ops.dense_divisor = 0;
  ops.mask_sweep_multi = MaskSweepMultiScalar;
  ops.mask_sweep_gather_multi = MaskSweepGatherMultiScalar;
  ops.mask_and = MaskAndScalar;
  ops.mask_and_gather = MaskAndGatherScalar;
  ops.compact = CompactScalar;
  ops.refine_f64 = RefineF64Scalar;
  ops.refine_f64_gather = RefineF64GatherScalar;
  switch (level) {
    case SimdLevel::kScalar:
      break;
#if PMI_SIMD_X86
    case SimdLevel::kAvx2:
      ops.level = SimdLevel::kAvx2;
      ops.dense_divisor = 8;
      ops.mask_sweep_multi = MaskSweepMultiAvx2;
      ops.mask_sweep_gather_multi = MaskSweepGatherMultiAvx2;
      ops.mask_and = MaskAndAvx2;
      ops.mask_and_gather = MaskAndGatherAvx2;
      // Compress-store emulation via the 256-entry shuffle LUT.
      ops.compact = CompactAvx2;
      ops.refine_f64 = RefineF64Avx2;
      ops.refine_f64_gather = RefineF64GatherAvx2;
      break;
    case SimdLevel::kAvx512:
      ops.level = SimdLevel::kAvx512;
      ops.dense_divisor = 8;
      ops.mask_sweep_multi = MaskSweepMultiAvx512;
      ops.mask_sweep_gather_multi = MaskSweepGatherMultiAvx512;
      ops.mask_and = MaskAndAvx512;
      ops.mask_and_gather = MaskAndGatherAvx512;
      ops.compact = CompactAvx512;
      ops.refine_f64 = RefineF64Avx512;
      ops.refine_f64_gather = RefineF64GatherAvx512;
      break;
#endif
    default:
      break;  // level compiled out: scalar fallback
  }
  return ops;
}

SimdOps ResolveOps() {
  SimdLevel level = DetectBestLevel();
  const char* env = std::getenv("PMI_SIMD");
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "auto") != 0) {
    SimdLevel requested;
    if (std::strcmp(env, "scalar") == 0) {
      requested = SimdLevel::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = SimdLevel::kAvx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      requested = SimdLevel::kAvx512;
    } else {
      std::fprintf(stderr,
                   "pmi: PMI_SIMD=\"%s\" is not scalar|avx2|avx512|auto; "
                   "using %s\n",
                   env, SimdLevelName(level));
      requested = level;
    }
    if (SimdLevelSupported(requested)) {
      level = requested;
    } else {
      std::fprintf(stderr,
                   "pmi: PMI_SIMD=%s not supported on this CPU/build; "
                   "using %s\n",
                   env, SimdLevelName(level));
    }
  }
  return MakeOps(level);
}

// Written only by ReinitSimdDispatch (startup / single-threaded test
// setup); read-only on the scan hot path.
SimdOps g_ops = MakeOps(SimdLevel::kScalar);

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SimdLevelSupported(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
#if PMI_SIMD_X86
    case SimdLevel::kAvx2:
      return __builtin_cpu_supports("avx2");
    case SimdLevel::kAvx512:
      return CpuSupportsAvx512();
#endif
    default:
      return false;
  }
}

const SimdOps& SimdDispatch() {
  // Magic-static once-init: the first caller resolves the level; the
  // race-free publication is the C++ guarantee on static local init.
  static const bool resolved = [] {
    ReinitSimdDispatch();
    return true;
  }();
  (void)resolved;
  return g_ops;
}

SimdLevel SimdLevelInUse() { return SimdDispatch().level; }

void ReinitSimdDispatch() { g_ops = ResolveOps(); }

}  // namespace pmi
