// Numeric factorization: both executors against the dense reference and
// each other, plus the memory-model arithmetic of §3.4.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "gpusim/device.hpp"
#include "matrix/generators.hpp"
#include "numeric/column_kernel.hpp"
#include "numeric/numeric.hpp"
#include "scheduling/levelize.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/symbolic.hpp"

namespace e2elu::numeric {
namespace {

struct Prepared {
  Csr a;
  FactorMatrix fm;
  scheduling::LevelSchedule schedule;
};

Prepared prepare(Csr a) {
  Prepared p;
  const Csr filled = symbolic::symbolic_reference(a).filled;
  p.fm = FactorMatrix::build(filled, a);
  p.schedule = scheduling::levelize_sequential(
      scheduling::build_dependency_graph(filled));
  p.a = std::move(a);
  return p;
}

// Max |L*U - A| over all positions, evaluated densely (small n only).
double max_lu_error(const FactorMatrix& fm, const Csr& a) {
  Csr l, u;
  extract_lu(fm, l, u);
  const index_t n = a.n;
  const std::size_t un = static_cast<std::size_t>(n);
  std::vector<value_t> dl(un * un, 0), du(un * un, 0), da(un * un, 0);
  for (index_t i = 0; i < n; ++i) {
    for (offset_t k = l.row_ptr[i]; k < l.row_ptr[i + 1]; ++k)
      dl[un * i + l.col_idx[k]] = l.values[k];
    for (offset_t k = u.row_ptr[i]; k < u.row_ptr[i + 1]; ++k)
      du[un * i + u.col_idx[k]] = u.values[k];
    for (offset_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k)
      da[un * i + a.col_idx[k]] = a.values[k];
  }
  double err = 0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      value_t acc = 0;
      for (index_t k = 0; k < n; ++k) acc += dl[un * i + k] * du[un * k + j];
      err = std::max(err, std::abs(static_cast<double>(acc - da[un * i + j])));
    }
  }
  return err;
}

class NumericSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NumericSweep, ReferenceFactorizationReproducesA) {
  const auto [kind, seed] = GetParam();
  Csr a;
  switch (kind) {
    case 0: a = gen_grid2d(9, 9); break;
    case 1: a = gen_banded(90, 7, 5.0, 100 + seed); break;
    case 2: a = gen_circuit(90, 4.0, 2, 12, 200 + seed); break;
    default: a = gen_near_planar(90, 3.5, 4, 300 + seed); break;
  }
  Prepared p = prepare(a);
  factorize_reference(p.fm, p.schedule);
  EXPECT_LT(max_lu_error(p.fm, p.a), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NumericSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2)));

TEST(NumericReference, MatchesDenseLu) {
  const Csr a = gen_circuit(60, 4.0, 2, 10, 17);
  Prepared p = prepare(a);
  factorize_reference(p.fm, p.schedule);

  std::vector<value_t> dl, du;
  dense_lu_reference(a, dl, du);
  Csr l, u;
  extract_lu(p.fm, l, u);
  const std::size_t un = static_cast<std::size_t>(a.n);
  for (index_t i = 0; i < a.n; ++i) {
    for (offset_t k = l.row_ptr[i]; k < l.row_ptr[i + 1]; ++k) {
      EXPECT_NEAR(l.values[k], dl[un * i + l.col_idx[k]], 1e-9);
    }
    for (offset_t k = u.row_ptr[i]; k < u.row_ptr[i + 1]; ++k) {
      EXPECT_NEAR(u.values[k], du[un * i + u.col_idx[k]], 1e-9);
    }
  }
}

class ExecutorAgreement : public ::testing::TestWithParam<int> {};

Csr agreement_matrix(int kind) {
  switch (kind) {
    case 0: return gen_grid2d(14, 14);
    case 1: return gen_banded(250, 8, 5.0, 31);
    case 2: return gen_circuit(250, 4.0, 3, 16, 32);
    default: return gen_near_planar(250, 3.5, 5, 33);
  }
}

// Device bytes the executors' resident mirrors take (CSC structure and
// values, CSR pattern, position map) — everything beyond is the window.
std::size_t resident_bytes(const FactorMatrix& fm) {
  return (fm.csc.col_ptr.size() + fm.pattern.row_ptr.size()) *
             sizeof(offset_t) +
         static_cast<std::size_t>(fm.csc.nnz()) *
             (2 * sizeof(index_t) + sizeof(value_t) + sizeof(offset_t));
}

bool same_bits(const std::vector<value_t>& x, const std::vector<value_t>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(value_t)) == 0;
}

// On a serial pool the dense window and the sparse binary-search executor
// perform the same subtractions in the same order, so their factors must
// agree bit for bit — whatever the window width: 3 columns (every column
// with two or more sub-columns streams through the huge-column path),
// 24 columns (wide levels split into several batches) and unbounded.
TEST_P(ExecutorAgreement, DenseWindowAndSparseMatchReference) {
  const Csr a = agreement_matrix(GetParam());
  Prepared ref = prepare(a);
  factorize_reference(ref.fm, ref.schedule);

  ThreadPool serial(1);
  gpusim::Device dev_sparse(gpusim::DeviceSpec::v100_with_memory(1u << 30));
  dev_sparse.use_pool(serial);
  Prepared sparse = prepare(a);
  factorize_sparse_bsearch(dev_sparse, sparse.fm, sparse.schedule);
  for (std::size_t k = 0; k < ref.fm.csc.values.size(); ++k) {
    EXPECT_NEAR(sparse.fm.csc.values[k], ref.fm.csc.values[k], 1e-9)
        << "sparse k=" << k;
  }

  for (const index_t window : {3, 24, 0}) {
    SCOPED_TRACE(::testing::Message() << "window=" << window);
    const std::size_t mem =
        window == 0 ? std::size_t{1} << 30
                    : resident_bytes(ref.fm) +
                          static_cast<std::size_t>(window) *
                              static_cast<std::size_t>(a.n) * sizeof(value_t);
    gpusim::Device dev_dense(gpusim::DeviceSpec::v100_with_memory(mem));
    dev_dense.use_pool(serial);
    Prepared dense = prepare(a);
    const NumericStats ds =
        factorize_dense_window(dev_dense, dense.fm, dense.schedule);
    if (window != 0) {
      EXPECT_EQ(ds.window_columns, window);
      EXPECT_GT(ds.num_batches, 1);
    }
    EXPECT_TRUE(same_bits(dense.fm.csc.values, sparse.fm.csc.values));
  }

  // On the shared pool the atomic updates may land in any order: equal to
  // the reference within rounding. This run is also what lets TSan check
  // that the one-block-per-sub-column kernels own their targets.
  gpusim::Device dev_pooled(gpusim::DeviceSpec::v100_with_memory(
      resident_bytes(ref.fm) +
      24 * static_cast<std::size_t>(a.n) * sizeof(value_t)));
  Prepared pooled = prepare(a);
  factorize_dense_window(dev_pooled, pooled.fm, pooled.schedule);
  for (std::size_t k = 0; k < ref.fm.csc.values.size(); ++k) {
    EXPECT_NEAR(pooled.fm.csc.values[k], ref.fm.csc.values[k], 1e-9)
        << "pooled dense k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ExecutorAgreement,
                         ::testing::Values(0, 1, 2, 3));

// Fused clusters: the dense executor's one-launch cluster path against
// the sparse executor's, both under the same plan.
TEST(ExecutorAgreementFused, DenseWindowAndSparseMatchBitwise) {
  const Csr a = agreement_matrix(2);
  ThreadPool serial(1);
  NumericOptions opt;
  opt.fusion.enabled = true;

  gpusim::Device dev_sparse(gpusim::DeviceSpec::v100_with_memory(1u << 30));
  dev_sparse.use_pool(serial);
  Prepared sparse = prepare(a);
  const NumericStats ss =
      factorize_sparse_bsearch(dev_sparse, sparse.fm, sparse.schedule, opt);

  gpusim::Device dev_dense(gpusim::DeviceSpec::v100_with_memory(1u << 30));
  dev_dense.use_pool(serial);
  Prepared dense = prepare(a);
  const NumericStats ds =
      factorize_dense_window(dev_dense, dense.fm, dense.schedule, opt);
  EXPECT_GT(ds.fused_clusters, 0);
  EXPECT_EQ(ds.fused_clusters, ss.fused_clusters);
  EXPECT_TRUE(same_bits(dense.fm.csc.values, sparse.fm.csc.values));
}

TEST(BinarySearch, FindsEveryEntryAndCountsLogOps) {
  const Csr a = gen_banded(200, 6, 4.0, 77);
  Prepared p = prepare(a);
  for (index_t j = 0; j < a.n; ++j) {
    for (offset_t k = p.fm.csc.col_ptr[j]; k < p.fm.csc.col_ptr[j + 1]; ++k) {
      std::uint64_t ops = 0;
      EXPECT_EQ(detail::bsearch_position(p.fm.csc, j, p.fm.csc.row_idx[k], ops),
                k);
      const auto len = static_cast<std::uint64_t>(p.fm.csc.col_ptr[j + 1] -
                                                  p.fm.csc.col_ptr[j]);
      EXPECT_LE(ops, std::uint64_t{1} + std::bit_width(len));
    }
  }
}

TEST(MemoryModel, MaxParallelColumnsMatchesPaperArithmetic) {
  // Table 4 regime: V100-sized memory, huge n -> M below TB_max (160).
  const index_t n = 16'002'413;  // hugetrace-00020
  const std::size_t mem = 16ull << 30;
  EXPECT_EQ(max_parallel_dense_columns(mem, n),
            static_cast<index_t>(mem / (static_cast<std::size_t>(n) *
                                        sizeof(value_t))));
  EXPECT_LT(max_parallel_dense_columns(mem, n), 160);

  gpusim::DeviceSpec spec = gpusim::DeviceSpec::v100_with_memory(mem);
  EXPECT_TRUE(should_use_sparse_format(spec, n));
  EXPECT_FALSE(should_use_sparse_format(spec, 100'000));
}

TEST(Numeric, ZeroPivotIsReported) {
  Coo coo;
  coo.n = 2;
  coo.add(0, 0, 0.0);  // structurally present, numerically zero
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 1.0);
  Csr a = coo_to_csr(coo);
  Prepared p = prepare(a);
  EXPECT_THROW(factorize_reference(p.fm, p.schedule), Error);
}

}  // namespace
}  // namespace e2elu::numeric
