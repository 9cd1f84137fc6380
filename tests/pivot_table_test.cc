// Equivalence tests for the columnar PivotTable: its one scan engine
// (ScanBlockMajor[Indirect], a single query being a scan of one) must
// make byte-for-byte the same pruning decisions -- and the same
// verify(row) calls, in the same order -- as the naive row-major Lemma-1
// loop it replaced (PrunedByPivots over an |P|-strided row), for both
// the shared-pivot and the per-row-pivot (EPT) layouts, across
// block-boundary row counts, radii, shrinking radii, swap-removals, and
// SIMD dispatch levels.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/filtering.h"
#include "src/core/knn_heap.h"
#include "src/core/pivot_table.h"
#include "src/core/rng.h"
#include "src/core/simd.h"

namespace pmi {
namespace {

// Reference model: the pre-columnar row-major table and its Lemma-1
// loop.  radius() is re-read at every row and verify(row) runs for each
// row it does not prune -- the call sequence the engine must reproduce.
struct RowMajorTable {
  uint32_t l = 0;
  std::vector<double> dist;   // rows x l
  std::vector<uint32_t> idx;  // rows x l (per-row-pivot only)

  size_t rows() const { return l == 0 ? 0 : dist.size() / l; }

  template <typename RadiusFn, typename VerifyFn>
  void Lemma1Loop(const std::vector<double>& phi_q, RadiusFn&& radius,
                  VerifyFn&& verify) const {
    for (size_t i = 0; i < rows(); ++i) {
      if (!PrunedByPivots(&dist[i * l], phi_q.data(), l, radius())) {
        verify(i);
      }
    }
  }

  template <typename RadiusFn, typename VerifyFn>
  void Lemma1LoopIndirect(const std::vector<double>& d_qp, RadiusFn&& radius,
                          VerifyFn&& verify) const {
    for (size_t i = 0; i < rows(); ++i) {
      const double r = radius();
      bool pruned = false;
      for (uint32_t j = 0; j < l && !pruned; ++j) {
        pruned = std::fabs(dist[i * l + j] - d_qp[idx[i * l + j]]) > r;
      }
      if (!pruned) verify(i);
    }
  }

  std::vector<uint32_t> Scan(const std::vector<double>& phi_q,
                             double r) const {
    std::vector<uint32_t> out;
    Lemma1Loop(phi_q, [&] { return r; },
               [&](size_t i) { out.push_back(static_cast<uint32_t>(i)); });
    return out;
  }

  std::vector<uint32_t> ScanIndirect(const std::vector<double>& d_qp,
                                     double r) const {
    std::vector<uint32_t> out;
    Lemma1LoopIndirect(
        d_qp, [&] { return r; },
        [&](size_t i) { out.push_back(static_cast<uint32_t>(i)); });
    return out;
  }
};

// The engine's fixed-radius answer for one query: the rows verify() sees.
std::vector<uint32_t> ScanOne(const PivotTable& t, const double* phi_q,
                              double r) {
  std::vector<uint32_t> out;
  t.ScanBlockMajor(
      1, [&](size_t) { return phi_q; }, [&](size_t) { return r; },
      [&](size_t, size_t row) { out.push_back(static_cast<uint32_t>(row)); },
      [](size_t, size_t) {});
  return out;
}

std::vector<uint32_t> ScanOneIndirect(const PivotTable& t,
                                      const std::vector<double>& d_qp,
                                      double r) {
  std::vector<uint32_t> out;
  t.ScanBlockMajorIndirect(
      1, static_cast<uint32_t>(d_qp.size()),
      [&](size_t) { return d_qp.data(); }, [&](size_t) { return r; },
      [&](size_t, size_t row) { out.push_back(static_cast<uint32_t>(row)); },
      [](size_t, size_t) {});
  return out;
}

struct Tables {
  RowMajorTable ref;
  PivotTable columnar;
};

Tables MakeShared(size_t rows, uint32_t l, uint64_t seed) {
  Tables t;
  t.ref.l = l;
  t.columnar.Reset(l);
  Rng rng(seed);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<double> row(l);
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t p = 0; p < l; ++p) row[p] = u(rng);
    t.ref.dist.insert(t.ref.dist.end(), row.begin(), row.end());
    t.columnar.AppendRow(row.data());
  }
  return t;
}

Tables MakeIndirect(size_t rows, uint32_t l, uint32_t pool, uint64_t seed) {
  Tables t;
  t.ref.l = l;
  t.columnar.Reset(l, /*per_row_pivots=*/true);
  Rng rng(seed);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<double> rd(l);
  std::vector<uint32_t> ri(l);
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t j = 0; j < l; ++j) {
      rd[j] = u(rng);
      ri[j] = rng() % pool;
    }
    t.ref.dist.insert(t.ref.dist.end(), rd.begin(), rd.end());
    t.ref.idx.insert(t.ref.idx.end(), ri.begin(), ri.end());
    t.columnar.AppendRow(rd.data(), ri.data());
  }
  return t;
}

// Row counts probing the 256-row block machinery: empty, single, partial
// block, exact block, one over, multiple blocks with ragged tail.
const size_t kRowCounts[] = {0, 1, 100, 255, 256, 257, 1000, 2048};

TEST(PivotTableTest, SharedScanMatchesRowMajorReference) {
  for (size_t rows : kRowCounts) {
    for (uint32_t l : {1u, 3u, 5u, 8u}) {
      Tables t = MakeShared(rows, l, 42 + rows + l);
      Rng rng(7);
      std::uniform_real_distribution<double> u(0.0, 100.0);
      for (double r : {0.0, 3.0, 10.0, 40.0, 80.0, 120.0}) {
        std::vector<double> phi_q(l);
        for (auto& x : phi_q) x = u(rng);
        EXPECT_EQ(ScanOne(t.columnar, phi_q.data(), r), t.ref.Scan(phi_q, r))
            << "rows=" << rows << " l=" << l << " r=" << r;
      }
    }
  }
}

TEST(PivotTableTest, IndirectScanMatchesRowMajorReference) {
  const uint32_t kPool = 24;
  for (size_t rows : kRowCounts) {
    for (uint32_t l : {1u, 4u}) {
      Tables t = MakeIndirect(rows, l, kPool, 99 + rows + l);
      Rng rng(13);
      std::uniform_real_distribution<double> u(0.0, 100.0);
      for (double r : {0.0, 5.0, 25.0, 75.0}) {
        std::vector<double> d_qp(kPool);
        for (auto& x : d_qp) x = u(rng);
        EXPECT_EQ(ScanOneIndirect(t.columnar, d_qp, r),
                  t.ref.ScanIndirect(d_qp, r))
            << "rows=" << rows << " l=" << l << " r=" << r;
      }
    }
  }
}

// Runs fn() once per SIMD dispatch level this machine supports, then
// restores the PMI_SIMD value the process inherited (the CI scalar leg
// pins it for the whole run).
template <typename Fn>
void ForEachSimdLevel(Fn&& fn) {
  const char* inherited = getenv("PMI_SIMD");
  const std::string saved = inherited != nullptr ? inherited : "";
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!SimdLevelSupported(level)) continue;
    ASSERT_EQ(setenv("PMI_SIMD", SimdLevelName(level), 1), 0);
    ReinitSimdDispatch();
    SCOPED_TRACE(SimdLevelName(level));
    fn();
  }
  if (inherited != nullptr) {
    setenv("PMI_SIMD", saved.c_str(), 1);
  } else {
    unsetenv("PMI_SIMD");
  }
  ReinitSimdDispatch();
}

// A stand-in object distance for row i: its Lemma-1 lower bound plus a
// deterministic per-row excess, so a KnnHeap over it tightens the way a
// real MkNNQ heap does (often several times inside one block).
double PseudoDistance(const RowMajorTable& ref, size_t i,
                      const std::vector<double>& q, bool indirect) {
  double lb = 0;
  for (uint32_t j = 0; j < ref.l; ++j) {
    const double qv = indirect ? q[ref.idx[i * ref.l + j]] : q[j];
    lb = std::max(lb, std::fabs(ref.dist[i * ref.l + j] - qv));
  }
  return lb + double((i * 2654435761u) % 1000) / 100.0;
}

// One block-major scan over the queries `q` against the row-major
// reference, query by query: the verify(row) sequences must be equal.
// The radius is constant (fixed_r[qi]) or, when fixed_r is null, each
// query's own kNN heap radius (heap size ks[qi]), which shrinks inside
// blocks as verify() pushes.  Adds the engine's cascade survivors (its
// prefetch calls) and verify calls to the two counters.
void ExpectVerifyCallsMatchReference(const Tables& t,
                                     const std::vector<std::vector<double>>& q,
                                     const std::vector<size_t>& ks,
                                     const double* fixed_r,
                                     size_t* filter_survivors,
                                     size_t* verify_calls) {
  const bool indirect = t.columnar.per_row_pivots();
  const size_t nq = q.size();
  std::vector<KnnHeap> heaps;
  for (size_t qi = 0; qi < nq; ++qi) heaps.emplace_back(ks[qi]);
  std::vector<std::vector<uint32_t>> got(nq);
  auto radius = [&](size_t qi) {
    return fixed_r != nullptr ? fixed_r[qi] : heaps[qi].radius();
  };
  auto verify = [&](size_t qi, size_t row) {
    got[qi].push_back(static_cast<uint32_t>(row));
    heaps[qi].Push(static_cast<ObjectId>(row),
                   PseudoDistance(t.ref, row, q[qi], indirect));
  };
  auto prefetch = [&](size_t, size_t) { ++*filter_survivors; };
  if (indirect) {
    t.columnar.ScanBlockMajorIndirect(
        nq, static_cast<uint32_t>(q[0].size()),
        [&](size_t qi) { return q[qi].data(); }, radius, verify, prefetch);
  } else {
    t.columnar.ScanBlockMajor(
        nq, [&](size_t qi) { return q[qi].data(); }, radius, verify,
        prefetch);
  }
  for (size_t qi = 0; qi < nq; ++qi) {
    KnnHeap heap(ks[qi]);
    std::vector<uint32_t> want;
    auto ref_radius = [&] {
      return fixed_r != nullptr ? fixed_r[qi] : heap.radius();
    };
    auto ref_verify = [&](size_t row) {
      want.push_back(static_cast<uint32_t>(row));
      heap.Push(static_cast<ObjectId>(row),
                PseudoDistance(t.ref, row, q[qi], indirect));
    };
    if (indirect) {
      t.ref.Lemma1LoopIndirect(q[qi], ref_radius, ref_verify);
    } else {
      t.ref.Lemma1Loop(q[qi], ref_radius, ref_verify);
    }
    EXPECT_EQ(got[qi], want) << "query " << qi;
    *verify_calls += got[qi].size();
  }
}

std::vector<std::vector<double>> RandomQueries(size_t nq, size_t width,
                                               uint64_t seed) {
  Rng rng(seed);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<std::vector<double>> q(nq, std::vector<double>(width));
  for (auto& v : q) {
    for (auto& x : v) x = u(rng);
  }
  return q;
}

// At a constant radius every cascade survivor is verified: the skipped
// re-check is exact, and the calls equal the reference loop's.
TEST(PivotTableTest, VerifyCallsMatchReferenceAtConstantRadius) {
  const Tables tables[] = {MakeShared(1500, 4, 5),
                           MakeIndirect(1300, 3, 24, 6)};
  for (const Tables& t : tables) {
    const size_t width = t.columnar.per_row_pivots() ? 24 : 4;
    for (size_t nq : {1u, 7u}) {
      const auto q = RandomQueries(nq, width, 40 + nq);
      for (double r : {1.0, 15.0, 60.0}) {
        const std::vector<double> radii(nq, r);
        const std::vector<size_t> ks(nq, 1);
        ForEachSimdLevel([&] {
          size_t survivors = 0, verified = 0;
          ExpectVerifyCallsMatchReference(t, q, ks, radii.data(), &survivors,
                                          &verified);
          EXPECT_EQ(survivors, verified) << "nq=" << nq << " r=" << r;
        });
      }
    }
  }
}

// The MkNNQ pattern: each query's heap radius starts at +inf and
// tightens as verify() pushes, inside blocks as well as between them.
// The engine must re-check the remaining survivors of a block at the
// moved radius and so make exactly the reference's verify calls -- the
// survivors it drops (filter survivors > verify calls) show the radius
// did move inside a block.
TEST(PivotTableTest, VerifyCallsMatchReferenceWithShrinkingRadius) {
  const Tables tables[] = {MakeShared(3000, 3, 17),
                           MakeIndirect(2100, 4, 24, 18)};
  for (const Tables& t : tables) {
    const size_t width = t.columnar.per_row_pivots() ? 24 : 3;
    for (size_t nq : {1u, 5u, 17u}) {
      const auto q = RandomQueries(nq, width, 90 + nq);
      std::vector<size_t> ks(nq);
      for (size_t qi = 0; qi < nq; ++qi) ks[qi] = size_t{1} + 4 * (qi % 4);
      ForEachSimdLevel([&] {
        size_t survivors = 0, verified = 0;
        ExpectVerifyCallsMatchReference(t, q, ks, nullptr, &survivors,
                                        &verified);
        EXPECT_GT(survivors, verified) << "nq=" << nq;
      });
    }
  }
}

TEST(PivotTableTest, RemoveRowSwapMovesLastRow) {
  Tables t = MakeIndirect(10, 2, 8, 3);
  const double last_d0 = t.columnar.distance(9, 0);
  const double last_d1 = t.columnar.distance(9, 1);
  const uint32_t last_i0 = t.columnar.pivot_index(9, 0);
  const uint32_t last_i1 = t.columnar.pivot_index(9, 1);
  t.columnar.RemoveRowSwap(4);
  ASSERT_EQ(t.columnar.rows(), 9u);
  EXPECT_EQ(t.columnar.distance(4, 0), last_d0);
  EXPECT_EQ(t.columnar.distance(4, 1), last_d1);
  EXPECT_EQ(t.columnar.pivot_index(4, 0), last_i0);
  EXPECT_EQ(t.columnar.pivot_index(4, 1), last_i1);
  // Removing the final row needs no swap and must not read freed memory.
  t.columnar.RemoveRowSwap(8);
  EXPECT_EQ(t.columnar.rows(), 8u);
}

TEST(PivotTableTest, RemovalKeepsScansConsistent) {
  Tables t = MakeShared(600, 3, 11);
  Rng rng(1);
  // Mirror removals in the reference (same swap-with-last order).
  auto remove_both = [&](size_t row) {
    const size_t last = t.ref.rows() - 1;
    for (uint32_t p = 0; p < 3; ++p) {
      t.ref.dist[row * 3 + p] = t.ref.dist[last * 3 + p];
    }
    t.ref.dist.resize(last * 3);
    t.columnar.RemoveRowSwap(row);
  };
  for (int i = 0; i < 300; ++i) remove_both(rng() % t.columnar.rows());
  std::vector<double> phi_q = {10, 90, 50};
  for (double r : {5.0, 30.0, 70.0}) {
    EXPECT_EQ(ScanOne(t.columnar, phi_q.data(), r), t.ref.Scan(phi_q, r))
        << "r=" << r;
  }
}

TEST(PivotTableTest, InfiniteAndNegativeRadii) {
  Tables t = MakeShared(400, 2, 23);
  std::vector<double> phi_q = {1, 2};
  // Nothing prunes at r = inf.
  EXPECT_EQ(ScanOne(t.columnar, phi_q.data(),
                    std::numeric_limits<double>::infinity())
                .size(),
            400u);
  // KnnHeap::radius() is -inf for k = 0: everything must prune.
  EXPECT_TRUE(ScanOne(t.columnar, phi_q.data(),
                      -std::numeric_limits<double>::infinity())
                  .empty());
}

TEST(PivotTableTest, ZeroWidthTableNeverPrunes) {
  PivotTable table;
  table.Reset(0);
  for (int i = 0; i < 300; ++i) table.AppendRow(nullptr);
  EXPECT_EQ(ScanOne(table, nullptr, 1.0).size(), 300u);
}

TEST(PivotTableTest, MemoryAccounting) {
  // Each cell carries its double plus the derived f32 filter mirror
  // (plus the pool-index column in per-row-pivot mode).
  Tables shared = MakeShared(100, 4, 2);
  EXPECT_EQ(shared.columnar.memory_bytes(),
            100u * 4 * (sizeof(double) + sizeof(float)));
  Tables indirect = MakeIndirect(100, 4, 8, 2);
  EXPECT_EQ(indirect.columnar.memory_bytes(),
            100u * 4 * (sizeof(double) + sizeof(float) + sizeof(uint32_t)));
}

// Every mutator must keep the derived f32 filter columns cell-coherent
// with the double columns: fcol[row] == FilterValue(col[row]) always.
void ExpectFilterCoherent(const PivotTable& t) {
  for (uint32_t p = 0; p < t.width(); ++p) {
    for (size_t row = 0; row < t.rows(); ++row) {
      EXPECT_EQ(t.filter_value(row, p), FilterValue(t.distance(row, p)))
          << "slot=" << p << " row=" << row;
    }
  }
}

TEST(PivotTableTest, FilterColumnsStayCoherentUnderMutation) {
  PivotTable t;
  t.Reset(3);
  // ResizeRows + SetRow (the parallel-build path).
  t.ResizeRows(600);
  Rng rng(5);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<double> row(3);
  for (size_t i = 0; i < 600; ++i) {
    for (auto& x : row) x = u(rng);
    t.SetRow(i, row.data());
  }
  ExpectFilterCoherent(t);
  // AppendRow, including values past the float range and denormals.
  const double specials[][3] = {{1e300, -1e300, 5e-324},
                               {1e-40, 3.4028235e38, 0.0}};
  for (const auto& s : specials) t.AppendRow(s);
  ExpectFilterCoherent(t);
  // SetCell (the snapshot-load path).
  t.SetCell(3, 1, 7e205);
  t.SetCell(0, 0, 1e-320);
  ExpectFilterCoherent(t);
  // RemoveRowSwap keeps the moved row's mirror.
  for (int i = 0; i < 250; ++i) t.RemoveRowSwap(rng() % t.rows());
  ExpectFilterCoherent(t);
  // Shrinking ResizeRows resets to zeroed coherent state.
  t.ResizeRows(10);
  ExpectFilterCoherent(t);

  // Per-row-pivot layout through the same mutations.
  PivotTable ti;
  ti.Reset(2, /*per_row_pivots=*/true);
  double rd[2];
  uint32_t ri[2];
  for (size_t i = 0; i < 300; ++i) {
    rd[0] = u(rng);
    rd[1] = i % 7 == 0 ? 1e39 : u(rng);
    ri[0] = rng() % 8;
    ri[1] = rng() % 8;
    ti.AppendRow(rd, ri);
  }
  ExpectFilterCoherent(ti);
  for (int i = 0; i < 120; ++i) ti.RemoveRowSwap(rng() % ti.rows());
  ExpectFilterCoherent(ti);
}

}  // namespace
}  // namespace pmi
