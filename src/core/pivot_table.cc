#include "src/core/pivot_table.h"

#include <cmath>
#include <type_traits>

namespace pmi {

// Scan-side query preparation.  The f32 casts are made once per scan;
// the two-sided (wide/narrow) radii depend on the (possibly shrinking)
// radius, so UpdateFilterRadius refreshes them at block entry and
// short-circuits when the radius has not moved -- the common case, since
// a kNN heap tightens only when a closer neighbor is found.

void PivotTable::PrepareFilterQuery(const double* phi_q,
                                    FilterQuery* fq) const {
  fq->ops = &SimdDispatch();
  fq->indirect = false;
  // NaN compares unequal to every radius, so the first UpdateFilterRadius
  // after a (re-)prepare always recomputes rw/rn -- a reused FilterQuery
  // (the batch tiling loop) must never keep radii derived from the
  // previous occupant's query values.
  fq->r_cached = std::numeric_limits<double>::quiet_NaN();
  fq->qd = phi_q;
  fq->qf.resize(width_);
  fq->rw.resize(width_);
  fq->rn.resize(width_);
  for (uint32_t p = 0; p < width_; ++p) fq->qf[p] = FilterValue(phi_q[p]);
}

void PivotTable::PrepareFilterQueryIndirect(const double* d_qp,
                                            uint32_t pool_size,
                                            FilterQuery* fq) const {
  fq->ops = &SimdDispatch();
  fq->indirect = true;
  fq->r_cached = std::numeric_limits<double>::quiet_NaN();  // see above
  fq->qd = d_qp;
  fq->qf.resize(pool_size);
  fq->rw.resize(1);
  fq->rn.resize(1);
  fq->qmax_abs = 0;
  for (uint32_t p = 0; p < pool_size; ++p) {
    fq->qf[p] = FilterValue(d_qp[p]);
    fq->qmax_abs = std::max(fq->qmax_abs, std::fabs(d_qp[p]));
  }
}

void PivotTable::UpdateFilterRadius(double r, FilterQuery* fq) {
  if (r == fq->r_cached) return;
  fq->r_cached = r;
  if (fq->indirect) {
    // One radius pair covers every row: the per-row query value is
    // bounded by the largest pool distance.
    if (!fq->rw.empty()) {
      fq->rw[0] = ConservativeFilterRadius(fq->qmax_abs, r);
      fq->rn[0] = CertificateFilterRadius(fq->qmax_abs, r);
    }
    return;
  }
  for (size_t p = 0; p < fq->rw.size(); ++p) {
    const double qa = std::fabs(fq->qd[p]);
    fq->rw[p] = ConservativeFilterRadius(qa, r);
    fq->rn[p] = CertificateFilterRadius(qa, r);
  }
}

namespace {

// Dense/sparse strategy switch: while enough of the block survives
// (per-level dense_divisor), narrowing by contiguous lane-parallel f32
// mask-ANDs beats walking the survivor list (which pays a gather per
// survivor); below that the short list is cheaper to refine directly
// against the double columns -- a sparse access pulls a whole cache
// line either way, so f32 saves nothing there.  The threshold only
// picks the evaluation strategy: both paths make the exact
// double-predicate decision per row, so the output is identical either
// way.
inline bool DenseEnough(unsigned divisor, size_t n, size_t count) {
  return divisor != 0 && n * divisor >= count;
}

}  // namespace

size_t PivotTable::ContinueCascade(const FilterQuery& fq, size_t base,
                                   size_t count, size_t n, uint8_t* keep,
                                   uint32_t* surv) const {
  if (n == 0) return 0;
  const SimdOps& ops = *fq.ops;
  const TableBlock& blk = *blocks_[base / kScanBlock];
  ExactSlot s{};
  s.rd = fq.r_cached;
  uint32_t p = 1;
  for (; p < width_ && DenseEnough(ops.dense_divisor, n, count); ++p) {
    s.colf = ColF(blk, p);
    s.cold = ColD(blk, p);
    s.qf = fq.qf[p];
    s.rw = fq.rw[p];
    s.rn = fq.rn[p];
    s.qd = fq.qd[p];
    n = ops.mask_and(s, count, keep);
    if (n == 0) return 0;
  }
  n = ops.compact(keep, count, surv);
  for (; p < width_ && n > 0; ++p) {
    n = ops.refine_f64(ColD(blk, p), fq.qd[p], fq.r_cached, surv, n);
  }
  return n;
}

size_t PivotTable::ContinueCascadeIndirect(const FilterQuery& fq,
                                           size_t base, size_t count,
                                           size_t n, uint8_t* keep,
                                           uint32_t* surv) const {
  if (n == 0) return 0;
  const SimdOps& ops = *fq.ops;
  const TableBlock& blk = *blocks_[base / kScanBlock];
  ExactSlotGather s{};
  s.qf_pool = fq.qf.data();
  s.qd_pool = fq.qd;
  s.rw = fq.rw[0];
  s.rn = fq.rn[0];
  s.rd = fq.r_cached;
  uint32_t p = 1;
  for (; p < width_ && DenseEnough(ops.dense_divisor, n, count); ++p) {
    s.colf = ColF(blk, p);
    s.cold = ColD(blk, p);
    s.idx = ColI(blk, p);
    n = ops.mask_and_gather(s, count, keep);
    if (n == 0) return 0;
  }
  n = ops.compact(keep, count, surv);
  for (; p < width_ && n > 0; ++p) {
    n = ops.refine_f64_gather(ColD(blk, p), ColI(blk, p), fq.qd,
                              fq.r_cached, surv, n);
  }
  return n;
}

template <bool kIndirect>
void PivotTable::FilterBlockMulti(const FilterQuery* fqs, size_t nq,
                                  size_t base, size_t count, uint8_t* keep,
                                  uint32_t* surv, size_t* counts) const {
  const size_t sstride = kScanBlock + kSurvWriteSlack;
  if (width_ == 0) {  // no pivots: nothing prunes, for any query
    for (size_t qi = 0; qi < nq; ++qi) {
      uint32_t* sq = surv + qi * sstride;
      for (size_t i = 0; i < count; ++i) sq[i] = static_cast<uint32_t>(i);
      counts[qi] = count;
    }
    return;
  }
  const SimdOps& ops = *fqs[0].ops;
  const TableBlock& blk = *blocks_[base / kScanBlock];
  // Stage 0: the pivot-0 sweep for every query, one kMultiQueryTile
  // group at a time -- the slab-load amortization the block-major
  // engine exists for.
  using Slot = std::conditional_t<kIndirect, ExactSlotGather, ExactSlot>;
  Slot slots[kMultiQueryTile];
  for (size_t t = 0; t < nq; t += kMultiQueryTile) {
    const size_t m = std::min(kMultiQueryTile, nq - t);
    for (size_t j = 0; j < m; ++j) {
      const FilterQuery& fq = fqs[t + j];
      Slot& s = slots[j];
      s.colf = ColF(blk, 0);
      s.cold = ColD(blk, 0);
      s.rw = fq.rw[0];
      s.rn = fq.rn[0];
      s.rd = fq.r_cached;
      if constexpr (kIndirect) {
        s.idx = ColI(blk, 0);
        s.qf_pool = fq.qf.data();
        s.qd_pool = fq.qd;
      } else {
        s.qf = fq.qf[0];
        s.qd = fq.qd[0];
      }
    }
    uint8_t* k = keep + t * size_t(kScanBlock);
    if constexpr (kIndirect) {
      ops.mask_sweep_gather_multi(slots, m, count, k, kScanBlock, counts + t);
    } else {
      ops.mask_sweep_multi(slots, m, count, k, kScanBlock, counts + t);
    }
  }
  // Per-query continuation of the cascade, over column slabs the stage-0
  // pass just made block-resident.
  for (size_t qi = 0; qi < nq; ++qi) {
    uint8_t* k = keep + qi * size_t(kScanBlock);
    uint32_t* sq = surv + qi * sstride;
    counts[qi] = kIndirect
                     ? ContinueCascadeIndirect(fqs[qi], base, count,
                                               counts[qi], k, sq)
                     : ContinueCascade(fqs[qi], base, count, counts[qi], k,
                                       sq);
  }
}

template void PivotTable::FilterBlockMulti<false>(const FilterQuery*, size_t,
                                                  size_t, size_t, uint8_t*,
                                                  uint32_t*, size_t*) const;
template void PivotTable::FilterBlockMulti<true>(const FilterQuery*, size_t,
                                                 size_t, size_t, uint8_t*,
                                                 uint32_t*, size_t*) const;

}  // namespace pmi
