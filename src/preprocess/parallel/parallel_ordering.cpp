// Parallel approximate minimum degree (Chang/Buluc/Demmel-style): each
// round eliminates a distance-2 independent set of near-minimum-degree
// pivots simultaneously. Distance-2 independence makes the clique updates
// write-disjoint — a live vertex is adjacent to at most one winner, so
// exactly one block rebuilds its adjacency — and every cross-block
// reduction (min degree, live-entry count) is commutative, which is the
// whole determinism argument (DESIGN.md 6i).
//
// Round structure, one kernel per step:
//   amd.degree    degrees + seeded priorities + commutative min reduce
//   amd.select    candidates (deg <= (1+slack)*dmin) scan their distance-2
//                 neighborhood; smallest (deg, hash, id) priority wins
//   amd.eliminate one block per winner: fold the pivot's clique into each
//                 neighbor, then hash closed neighborhoods to detect
//                 indistinguishable vertices and merge them (supernodes)
//   amd.compress  every live vertex filters dead/merged entries from its
//                 own list (block-per-vertex, so writes stay disjoint)
//
// After the rounds, ord.fillgate counts the exact fill of the AMD result
// and of an RCM candidate (fill2 per-row reachability, block-parallel)
// and keeps the better ordering — the fill-quality gate of DESIGN.md 6i.

#include <algorithm>
#include <limits>
#include <vector>

#include "gpusim/device_buffer.hpp"
#include "preprocess/parallel/parallel_preprocess.hpp"
#include "preprocess/sym_graph.hpp"
#include "support/check.hpp"
#include "symbolic/fill2.hpp"
#include "symbolic/workspace.hpp"
#include "trace/trace.hpp"

namespace e2elu::preprocess {

namespace {

constexpr std::int64_t kVertsPerBlock = 256;

std::int64_t blocks_for(std::int64_t count) {
  return std::max<std::int64_t>(1, (count + kVertsPerBlock - 1) /
                                       kVertsPerBlock);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Permutation parallel_min_degree_ordering(gpusim::Device& dev, const Csr& a,
                                         const PreprocessOptions& opt,
                                         MinDegreeStats* stats) {
  TRACE_SPAN("preprocess.ordering", dev,
             {{"method", "parallel_amd"}, {"n", a.n}});
  const index_t n = a.n;
  if (n == 0) return {};

  const gpusim::DeviceStats base = dev.snapshot();
  const SymGraph g = symmetrize(a);

  // Device residency: the input graph plus the per-vertex round state.
  // The elimination graph's growth past the upload is bounded by the
  // densify_cap guard below, which bails to RCM before the arena would
  // need to outgrow the factor-sized budget.
  gpusim::DeviceBuffer<offset_t> dptr(dev, std::span<const offset_t>(g.ptr));
  gpusim::DeviceBuffer<index_t> dadj(
      dev, std::max<std::size_t>(std::size_t{1}, g.adj.size()));
  if (!g.adj.empty()) dadj.copy_from_host(std::span<const index_t>(g.adj));
  gpusim::DeviceBuffer<index_t> ddeg(dev, static_cast<std::size_t>(n));
  gpusim::DeviceBuffer<std::uint64_t> dhash(dev, static_cast<std::size_t>(n));
  gpusim::DeviceBuffer<std::uint8_t> dflags(dev, static_cast<std::size_t>(n));

  // Host mirrors of the (dynamic) elimination graph. Kernel bodies are
  // host lambdas in this simulator; the DeviceBuffers above model the
  // footprint and transfer cost of the same state.
  std::vector<std::vector<index_t>> adj(n);
  for (index_t v = 0; v < n; ++v) {
    adj[v].assign(g.adj.begin() + g.ptr[v], g.adj.begin() + g.ptr[v + 1]);
  }
  std::vector<std::vector<index_t>> members(n);
  std::vector<char> alive(n, 1);
  std::vector<char> winner(n, 0);
  std::vector<index_t> deg(n, 0);
  // Supernode weights: weight[v] = 1 + |members(v)|. Degrees are
  // weighted sums over quotient neighbors (AMD's external degree) — a
  // pivot next to five size-10 supernodes forms a 50-clique, not a
  // 5-clique, and selecting by the unweighted count wrecks fill on
  // supernode-rich graphs (~30% on the pre2 stand-in).
  std::vector<index_t> weight(n, 1);
  std::vector<std::uint64_t> hash(n, 0);

  const double avg_deg =
      static_cast<double>(g.adj.size()) / std::max<index_t>(n, 1);
  const double warp_eff = dev.spec().simt_efficiency(std::max(avg_deg, 1.0));
  const std::int64_t vert_blocks = blocks_for(n);

  std::size_t live = g.adj.size();
  std::size_t peak = live;
  const double cap =
      opt.densify_cap *
      static_cast<double>(std::max<std::size_t>(g.adj.size(), 64));

  Permutation order;
  order.reserve(n);
  std::vector<bool> ordered(n, false);
  index_t fallback_at = -1;
  index_t rounds = 0;
  index_t merged_total = 0;
  index_t alive_count = n;

  auto prio_less = [&](index_t x, index_t y) {
    if (deg[x] != deg[y]) return deg[x] < deg[y];
    if (hash[x] != hash[y]) return hash[x] < hash[y];
    return x < y;
  };

  while (alive_count > 0) {
    if (static_cast<double>(live) > cap) {
      fallback_at = static_cast<index_t>(order.size());
      break;
    }
    ++rounds;

    // --- amd.degree: degrees, round priorities, min-degree reduce ------
    std::vector<index_t> block_min(static_cast<std::size_t>(vert_blocks),
                                   std::numeric_limits<index_t>::max());
    dev.launch({.name = "amd.degree",
                .blocks = vert_blocks,
                .threads_per_block = static_cast<int>(kVertsPerBlock),
                .warp_efficiency = warp_eff},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 const index_t lo = static_cast<index_t>(b * kVertsPerBlock);
                 const index_t hi =
                     std::min<index_t>(n, lo + static_cast<index_t>(
                                                   kVertsPerBlock));
                 index_t local_min = std::numeric_limits<index_t>::max();
                 std::uint64_t scanned = 0;
                 for (index_t v = lo; v < hi; ++v) {
                   if (!alive[v]) continue;
                   index_t d = 0;
                   for (index_t u : adj[v]) d += weight[u];
                   scanned += adj[v].size();
                   deg[v] = d;
                   hash[v] = splitmix64(
                       opt.seed ^
                       (static_cast<std::uint64_t>(rounds) << 32) ^
                       static_cast<std::uint64_t>(v));
                   local_min = std::min(local_min, deg[v]);
                 }
                 block_min[static_cast<std::size_t>(b)] = local_min;
                 ctx.add_ops(scanned + static_cast<std::uint64_t>(hi - lo));
               });
    index_t dmin = std::numeric_limits<index_t>::max();
    for (index_t m : block_min) dmin = std::min(dmin, m);  // commutative
    const index_t thresh = static_cast<index_t>(
        (1.0 + opt.degree_slack) * static_cast<double>(dmin));
    auto is_candidate = [&](index_t v) { return alive[v] && deg[v] <= thresh; };

    // --- amd.select: distance-2 priority contest -----------------------
    dev.launch({.name = "amd.select",
                .blocks = vert_blocks,
                .threads_per_block = static_cast<int>(kVertsPerBlock),
                .warp_efficiency = warp_eff},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 const index_t lo = static_cast<index_t>(b * kVertsPerBlock);
                 const index_t hi =
                     std::min<index_t>(n, lo + static_cast<index_t>(
                                                   kVertsPerBlock));
                 std::uint64_t scanned = 0;
                 for (index_t v = lo; v < hi; ++v) {
                   winner[v] = 0;
                   if (!is_candidate(v)) continue;
                   bool win = true;
                   for (index_t u : adj[v]) {
                     ++scanned;
                     if (is_candidate(u) && prio_less(u, v)) {
                       win = false;
                       break;
                     }
                     for (index_t w : adj[u]) {
                       ++scanned;
                       if (w != v && is_candidate(w) && prio_less(w, v)) {
                         win = false;
                         break;
                       }
                     }
                     if (!win) break;
                   }
                   winner[v] = win ? 1 : 0;
                 }
                 ctx.add_ops(scanned + static_cast<std::uint64_t>(hi - lo));
               });

    // Winners in id order: deterministic because the winner flags are.
    std::vector<index_t> winners;
    for (index_t v = 0; v < n; ++v) {
      if (winner[v]) winners.push_back(v);
    }
    E2ELU_CHECK_MSG(!winners.empty(),
                    "parallel AMD round produced no winner — the global "
                    "minimum-priority candidate cannot lose");

    // Bounded multiple elimination: keep only the round_elim_fraction
    // smallest-priority winners. Mass-eliminating every locally minimal
    // candidate drifts from the serial oracle's fill (it re-picks the
    // global minimum after every single elimination); the bound
    // interpolates between serial quality (one winner) and maximal
    // round parallelism. Deterministic: priorities are total-ordered.
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               opt.round_elim_fraction * static_cast<double>(winners.size())));
    if (winners.size() > keep) {
      std::sort(winners.begin(), winners.end(), prio_less);
      winners.resize(keep);
      std::sort(winners.begin(), winners.end());
    }

    for (index_t v : winners) {
      order.push_back(v);
      ordered[v] = true;
      for (index_t m : members[v]) {
        order.push_back(m);
        ordered[m] = true;
      }
      alive[v] = 0;
      --alive_count;
    }

    // --- amd.eliminate: one block per winner ---------------------------
    // Distance-2 independence => each clique member u belongs to exactly
    // one winner's clique, so the rebuild of adj[u] (and any supernode
    // merge of u) is owned by exactly one block.
    std::vector<index_t> round_merged(winners.size(), 0);
    dev.launch(
        {.name = "amd.eliminate",
         .blocks = static_cast<std::int64_t>(winners.size()),
         .threads_per_block = static_cast<int>(kVertsPerBlock),
         .warp_efficiency = warp_eff},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          const index_t v = winners[static_cast<std::size_t>(b)];
          const std::vector<index_t> clique = adj[v];  // sorted, all live
          std::uint64_t work = 0;
          std::vector<index_t> merged_buf;
          for (index_t u : clique) {
            // adj[u] := (adj[u] \ {v}) ∪ (clique \ {u}), sorted merge.
            merged_buf.clear();
            merged_buf.reserve(adj[u].size() + clique.size());
            std::size_t x = 0, y = 0;
            const auto& au = adj[u];
            while (x < au.size() || y < clique.size()) {
              index_t cand;
              if (y == clique.size() ||
                  (x < au.size() && au[x] < clique[y])) {
                cand = au[x++];
              } else if (x == au.size() || clique[y] < au[x]) {
                cand = clique[y++];
              } else {
                cand = au[x];
                ++x;
                ++y;
              }
              if (cand != v && cand != u) merged_buf.push_back(cand);
            }
            work += au.size() + clique.size();
            adj[u] = merged_buf;
          }
          // Supernode detection: commutative closed-neighborhood hash,
          // then exact verification against the group's smallest id.
          std::vector<std::pair<std::uint64_t, index_t>> sig;
          sig.reserve(clique.size());
          for (index_t u : clique) {
            std::uint64_t h = splitmix64(static_cast<std::uint64_t>(u));
            for (index_t w : adj[u]) {
              h += splitmix64(static_cast<std::uint64_t>(w));
            }
            work += adj[u].size();
            sig.emplace_back(h, u);
          }
          std::sort(sig.begin(), sig.end());
          auto closed_equal = [&](index_t p, index_t q) {
            // N[p] == N[q] <=> p in adj[q], q in adj[p], and the lists
            // agree once each other's entry is skipped.
            const auto& ap = adj[p];
            const auto& aq = adj[q];
            if (ap.size() != aq.size()) return false;
            std::size_t i = 0, j = 0;
            bool saw_q = false, saw_p = false;
            while (i < ap.size() || j < aq.size()) {
              if (i < ap.size() && ap[i] == q) {
                saw_q = true;
                ++i;
                continue;
              }
              if (j < aq.size() && aq[j] == p) {
                saw_p = true;
                ++j;
                continue;
              }
              if (i == ap.size() || j == aq.size() || ap[i] != aq[j]) {
                return false;
              }
              ++i;
              ++j;
            }
            return saw_p && saw_q;
          };
          index_t merged_here = 0;
          for (std::size_t i = 0; i < sig.size();) {
            std::size_t j = i + 1;
            while (j < sig.size() && sig[j].first == sig[i].first) ++j;
            const index_t rep = sig[i].second;  // smallest id in the group
            for (std::size_t k = i + 1; k < j; ++k) {
              const index_t u = sig[k].second;
              work += adj[u].size();
              if (!alive[u] || !closed_equal(rep, u)) continue;
              members[rep].push_back(u);
              members[rep].insert(members[rep].end(), members[u].begin(),
                                  members[u].end());
              members[u].clear();
              weight[rep] += weight[u];  // rep and u owned by this block
              alive[u] = 0;
              adj[u].clear();
              ++merged_here;
            }
            i = j;
          }
          round_merged[static_cast<std::size_t>(b)] = merged_here;
          adj[v].clear();
          ctx.add_ops(work);
        });
    for (index_t m : round_merged) {
      merged_total += m;
      alive_count -= m;
    }

    // --- amd.compress: drop dead entries, count live adjacency ---------
    std::vector<std::size_t> block_live(static_cast<std::size_t>(vert_blocks),
                                        0);
    dev.launch({.name = "amd.compress",
                .blocks = vert_blocks,
                .threads_per_block = static_cast<int>(kVertsPerBlock),
                .warp_efficiency = warp_eff},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 const index_t lo = static_cast<index_t>(b * kVertsPerBlock);
                 const index_t hi =
                     std::min<index_t>(n, lo + static_cast<index_t>(
                                                   kVertsPerBlock));
                 std::uint64_t work = 0;
                 std::size_t kept = 0;
                 for (index_t v = lo; v < hi; ++v) {
                   if (!alive[v]) continue;
                   auto& av = adj[v];
                   work += av.size();
                   av.erase(std::remove_if(av.begin(), av.end(),
                                           [&](index_t w) {
                                             return !alive[w];
                                           }),
                            av.end());
                   kept += av.size();
                 }
                 block_live[static_cast<std::size_t>(b)] = kept;
                 ctx.add_ops(work + static_cast<std::uint64_t>(hi - lo));
               });
    live = 0;
    for (std::size_t k : block_live) live += k;  // commutative
    peak = std::max(peak, live);
  }

  if (fallback_at >= 0) {
    // Densification guard tripped: order everything not yet ordered
    // (live vertices plus pending supernode members) by RCM on the
    // original symmetrized graph — same fallback as the serial path.
    std::uint64_t tail_ops = 0;
    const Permutation tail = rcm_on_graph(g, n, ordered, tail_ops);
    dev.charge({.name = "amd.rcm_fallback",
                .blocks = vert_blocks,
                .threads_per_block = static_cast<int>(kVertsPerBlock),
                .warp_efficiency = warp_eff},
               tail_ops);
    order.insert(order.end(), tail.begin(), tail.end());
  }
  E2ELU_CHECK(static_cast<index_t>(order.size()) == n);

  // --- ord.fillgate: exact fill-quality gate over two candidates -------
  // The rounds trade the serial oracle's one-pivot-at-a-time re-pick for
  // parallelism, and on strongly banded patterns the randomized
  // tie-breaking costs 10-20% fill where the oracle's id-order sweep is
  // near-optimal. Rather than tune tie-breaking per pattern class, also
  // build the RCM candidate and keep whichever ordering's exact fill is
  // smaller (ties prefer AMD). Fill is counted with the fill2 per-row
  // reachability (independent rows), so the count runs block-parallel at
  // full occupancy instead of paying the rowmerge's sequential chain;
  // both counts are deterministic (commutative per-block sums), so the
  // pick is too.
  {
    std::uint64_t rcm_ops = 0;
    std::vector<bool> none(static_cast<std::size_t>(n), false);
    Permutation rcm = rcm_on_graph(g, n, none, rcm_ops);
    dev.charge({.name = "ord.rcm_candidate",
                .blocks = vert_blocks,
                .threads_per_block = static_cast<int>(kVertsPerBlock),
                .warp_efficiency = warp_eff},
               rcm_ops);

    const Permutation* cand[2] = {&order, &rcm};
    Csr permuted[2];
    for (int c = 0; c < 2; ++c) {
      Csr pattern = a;
      pattern.values.clear();
      permuted[c] = permute(pattern, *cand[c], *cand[c]);
    }
    std::vector<offset_t> block_fill(
        static_cast<std::size_t>(2 * vert_blocks), 0);
    dev.launch(
        {.name = "ord.fillgate",
         .blocks = 2 * vert_blocks,
         .threads_per_block = static_cast<int>(kVertsPerBlock),
         .warp_efficiency = warp_eff},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          const int c = static_cast<int>(b / vert_blocks);
          const std::int64_t chunk = b % vert_blocks;
          const index_t lo = static_cast<index_t>(chunk * kVertsPerBlock);
          const index_t hi =
              std::min<index_t>(n, lo + static_cast<index_t>(kVertsPerBlock));
          std::vector<index_t> slice(symbolic::PlainWorkspace::slots(n, n),
                                     -1);
          auto ws = symbolic::PlainWorkspace::from_slice({slice}, n);
          offset_t count = 0;
          std::uint64_t work = 0;
          for (index_t src = lo; src < hi; ++src) {
            const symbolic::RowStats st =
                symbolic::fill2_row(permuted[c], src, ws, [](index_t) {});
            E2ELU_CHECK(!st.overflow);
            count += st.fill_count;
            work += st.ops;
          }
          block_fill[static_cast<std::size_t>(b)] = count;
          ctx.add_ops(work + static_cast<std::uint64_t>(hi - lo));
        });
    offset_t fill[2] = {0, 0};
    for (std::int64_t b = 0; b < 2 * vert_blocks; ++b) {  // commutative
      fill[b / vert_blocks] += block_fill[static_cast<std::size_t>(b)];
    }
    if (fill[1] < fill[0]) order = std::move(rcm);
  }

  if (stats) {
    stats->peak_adjacency = peak;
    stats->rcm_fallback_at = fallback_at;
    stats->ops = dev.stats().kernel_ops - base.kernel_ops;
    stats->rounds = rounds;
    stats->supernodes_merged = merged_total;
  }
  return order;
}

}  // namespace e2elu::preprocess
