#include "src/graph/algorithms.h"

#include <algorithm>
#include <deque>
#include <utility>

namespace pereach {

std::vector<bool> ReachableFrom(const Graph& g, NodeId s) {
  std::vector<bool> seen(g.NumNodes(), false);
  std::deque<NodeId> queue;
  seen[s] = true;
  queue.push_back(s);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.OutNeighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  return seen;
}

bool Reaches(const Graph& g, NodeId s, NodeId t) {
  if (s == t) return true;
  std::vector<bool> seen(g.NumNodes(), false);
  std::deque<NodeId> queue;
  seen[s] = true;
  queue.push_back(s);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.OutNeighbors(u)) {
      if (v == t) return true;
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  return false;
}

namespace {

/// Level-order BFS from `root` along out-edges, or along in-edges when
/// `kReverse`, expanding no node at depth `max_dist` or beyond.
template <bool kReverse>
std::vector<uint32_t> BoundedBfs(const Graph& g, NodeId root,
                                 uint32_t max_dist) {
  std::vector<uint32_t> dist(g.NumNodes(), kInfDistance);
  std::vector<NodeId> queue = {root};
  dist[root] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    // The queue is level-ordered: every later entry is at least this deep.
    if (dist[u] >= max_dist) break;
    for (NodeId v : kReverse ? g.InNeighbors(u) : g.OutNeighbors(u)) {
      if (dist[v] == kInfDistance) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<uint32_t> BfsDistances(const Graph& g, NodeId s,
                                   uint32_t max_dist) {
  return BoundedBfs</*kReverse=*/false>(g, s, max_dist);
}

std::vector<uint32_t> BfsDistancesTo(const Graph& g, NodeId t,
                                     uint32_t max_dist) {
  return BoundedBfs</*kReverse=*/true>(g, t, max_dist);
}

uint32_t BfsDistance(const Graph& g, NodeId s, NodeId t) {
  if (s == t) return 0;
  std::vector<uint32_t> dist(g.NumNodes(), kInfDistance);
  std::deque<NodeId> queue;
  dist[s] = 0;
  queue.push_back(s);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.OutNeighbors(u)) {
      if (dist[v] == kInfDistance) {
        dist[v] = dist[u] + 1;
        if (v == t) return dist[v];
        queue.push_back(v);
      }
    }
  }
  return kInfDistance;
}

SccResult StronglyConnectedComponents(const Graph& g) {
  // Iterative Tarjan. Frames keep (node, next-edge-index) so the recursion
  // is simulated without stack-depth limits on path-shaped graphs.
  const size_t n = g.NumNodes();
  SccResult result;
  result.component_of.assign(n, 0);

  constexpr uint32_t kUnvisited = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;
  std::vector<std::pair<NodeId, size_t>> frames;
  uint32_t next_index = 0;
  uint32_t next_component = 0;

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.emplace_back(root, 0);
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      auto& [u, edge_i] = frames.back();
      auto out = g.OutNeighbors(u);
      if (edge_i < out.size()) {
        const NodeId v = out[edge_i++];
        if (index[v] == kUnvisited) {
          index[v] = lowlink[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
          frames.emplace_back(v, 0);
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
      } else {
        if (lowlink[u] == index[u]) {
          while (true) {
            const NodeId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            result.component_of[w] = next_component;
            if (w == u) break;
          }
          ++next_component;
        }
        const NodeId done = u;
        frames.pop_back();
        if (!frames.empty()) {
          const NodeId parent = frames.back().first;
          lowlink[parent] = std::min(lowlink[parent], lowlink[done]);
        }
      }
    }
  }
  result.num_components = next_component;
  return result;
}

Condensation Condense(const Graph& g) {
  Condensation c;
  c.scc = StronglyConnectedComponents(g);
  const size_t k = c.scc.num_components;

  // Count then fill deduplicated inter-component edges.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const uint32_t cu = c.scc.component_of[u];
    for (NodeId v : g.OutNeighbors(u)) {
      const uint32_t cv = c.scc.component_of[v];
      if (cu != cv) edges.emplace_back(cu, cv);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  c.offsets.assign(k + 1, 0);
  for (const auto& [u, v] : edges) ++c.offsets[u + 1];
  for (size_t i = 1; i <= k; ++i) c.offsets[i] += c.offsets[i - 1];
  c.targets.resize(edges.size());
  std::vector<size_t> cursor(c.offsets.begin(), c.offsets.end() - 1);
  for (const auto& [u, v] : edges) c.targets[cursor[u]++] = v;
  return c;
}

std::vector<Bitset> ReachableTargets(const Graph& g,
                                     const std::vector<NodeId>& targets) {
  const size_t n = g.NumNodes();
  const size_t num_targets = targets.size();
  Condensation cond = Condense(g);
  const size_t k = cond.scc.num_components;

  // Per-component reachable-target bitsets. Component ids are in reverse
  // topological order, so ascending id order visits successors first.
  std::vector<Bitset> comp_bits(k, Bitset(num_targets));
  for (size_t i = 0; i < num_targets; ++i) {
    comp_bits[cond.scc.component_of[targets[i]]].Set(i);
  }
  for (uint32_t c = 0; c < k; ++c) {
    for (size_t e = cond.offsets[c]; e < cond.offsets[c + 1]; ++e) {
      const uint32_t succ = cond.targets[e];
      PEREACH_CHECK_LT(succ, c);  // reverse topological order invariant
      comp_bits[c].UnionWith(comp_bits[succ]);
    }
  }

  std::vector<Bitset> out(n);
  for (NodeId v = 0; v < n; ++v) out[v] = comp_bits[cond.scc.component_of[v]];
  return out;
}

namespace {

// Shared engine of the ForEachReachableTarget* entry points: given the SCC
// condensation, propagate target bitsets block by block and emit per source
// (grouped == false) or per distinct source component (true).
std::vector<uint32_t> ReachableTargetSweep(
    const Condensation& cond, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits, bool grouped,
    const std::function<void(uint32_t, uint32_t)>& emit) {
  std::vector<uint32_t> group_of(sources.size(), 0);
  if (sources.empty() || targets.empty()) return group_of;
  PEREACH_CHECK_GE(block_bits, 64u);
  const size_t k = cond.scc.num_components;

  // Dense group ids in order of first appearance over `sources`.
  constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> group_of_comp(k, kNoGroup);
  std::vector<uint32_t> group_comp;  // group -> component
  for (uint32_t si = 0; si < sources.size(); ++si) {
    const uint32_t c = cond.scc.component_of[sources[si]];
    if (group_of_comp[c] == kNoGroup) {
      group_of_comp[c] = static_cast<uint32_t>(group_comp.size());
      group_comp.push_back(c);
    }
    group_of[si] = group_of_comp[c];
  }

  std::vector<Bitset> comp_bits(k, Bitset(block_bits));
  for (size_t base = 0; base < targets.size(); base += block_bits) {
    const size_t block = std::min(block_bits, targets.size() - base);
    for (Bitset& b : comp_bits) b.Clear();
    for (size_t i = 0; i < block; ++i) {
      comp_bits[cond.scc.component_of[targets[base + i]]].Set(i);
    }
    // Ascending component id == reverse topological order (successors first).
    for (uint32_t c = 0; c < k; ++c) {
      for (size_t e = cond.offsets[c]; e < cond.offsets[c + 1]; ++e) {
        comp_bits[c].UnionWith(comp_bits[cond.targets[e]]);
      }
    }
    if (grouped) {
      for (uint32_t gi = 0; gi < group_comp.size(); ++gi) {
        comp_bits[group_comp[gi]].ForEachSetBit([&](size_t i) {
          emit(gi, static_cast<uint32_t>(base + i));
        });
      }
    } else {
      for (uint32_t si = 0; si < sources.size(); ++si) {
        const Bitset& bits = comp_bits[cond.scc.component_of[sources[si]]];
        bits.ForEachSetBit([&](size_t i) {
          emit(si, static_cast<uint32_t>(base + i));
        });
      }
    }
  }
  return group_of;
}

}  // namespace

void ForEachReachableTarget(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit) {
  if (sources.empty() || targets.empty()) return;
  ReachableTargetSweep(Condense(g), sources, targets, block_bits,
                       /*grouped=*/false, emit);
}

void ForEachReachableTarget(
    const Condensation& cond, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit) {
  ReachableTargetSweep(cond, sources, targets, block_bits, /*grouped=*/false,
                       emit);
}

std::vector<uint32_t> ForEachReachableTargetGrouped(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit) {
  if (sources.empty() || targets.empty()) {
    return std::vector<uint32_t>(sources.size(), 0);
  }
  return ReachableTargetSweep(Condense(g), sources, targets, block_bits,
                              /*grouped=*/true, emit);
}

std::vector<uint32_t> ForEachReachableTargetGrouped(
    const Condensation& cond, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit) {
  return ReachableTargetSweep(cond, sources, targets, block_bits,
                              /*grouped=*/true, emit);
}

void ForEachBoundedDistance(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, uint32_t bound, size_t block_bits,
    const std::function<void(uint32_t, uint32_t, uint32_t)>& emit) {
  if (sources.empty() || targets.empty()) return;
  PEREACH_CHECK_GE(block_bits, 64u);
  const size_t n = g.NumNodes();

  constexpr uint32_t kNoSource = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> source_index(n, kNoSource);
  for (uint32_t si = 0; si < sources.size(); ++si) {
    source_index[sources[si]] = si;
  }

  // seen[v]: target bits already discovered at v; frontier[v]: bits first
  // discovered at the previous level. Buffers are reused across blocks by
  // clearing only the touched nodes.
  std::vector<Bitset> seen(n), frontier(n), next_frontier(n);
  const auto ensure = [&](std::vector<Bitset>& arr, NodeId v) -> Bitset& {
    if (arr[v].size() == 0) arr[v] = Bitset(block_bits);
    return arr[v];
  };

  std::vector<NodeId> touched;
  std::vector<uint32_t> dirty_stamp(n, 0);
  uint32_t stamp = 0;

  for (size_t base = 0; base < targets.size(); base += block_bits) {
    const size_t block = std::min(block_bits, targets.size() - base);
    touched.clear();

    std::vector<NodeId> active;
    for (size_t i = 0; i < block; ++i) {
      const NodeId w = targets[base + i];
      if (ensure(seen, w).Test(i)) continue;  // duplicate target in block
      seen[w].Set(i);
      ensure(frontier, w).Set(i);
      if (frontier[w].Count() == 1) active.push_back(w);
      touched.push_back(w);
      if (source_index[w] != kNoSource) {
        emit(source_index[w], static_cast<uint32_t>(base + i), 0);
      }
    }

    for (uint32_t level = 1; level <= bound && !active.empty(); ++level) {
      // Nodes with an out-edge into the frontier are the only candidates.
      ++stamp;
      std::vector<NodeId> dirty;
      for (NodeId x : active) {
        for (NodeId v : g.InNeighbors(x)) {
          if (dirty_stamp[v] != stamp) {
            dirty_stamp[v] = stamp;
            dirty.push_back(v);
          }
        }
      }
      std::vector<NodeId> next_active;
      for (NodeId v : dirty) {
        Bitset& nf = ensure(next_frontier, v);
        nf.Clear();
        bool any = false;
        for (NodeId x : g.OutNeighbors(v)) {
          if (frontier[x].size() != 0 && !frontier[x].None()) {
            any |= nf.UnionWith(frontier[x]);
          }
        }
        if (!any) continue;
        Bitset& sv = ensure(seen, v);
        // New bits = nf & ~seen; realized by testing each set bit.
        bool emitted_any = false;
        nf.ForEachSetBit([&](size_t i) {
          if (sv.Test(i)) {
            nf.Reset(i);
            return;
          }
          sv.Set(i);
          emitted_any = true;
          if (source_index[v] != kNoSource) {
            emit(source_index[v], static_cast<uint32_t>(base + i), level);
          }
        });
        if (emitted_any) {
          touched.push_back(v);
          next_active.push_back(v);
        }
      }
      // Swap next_frontier into frontier for the processed nodes; clear the
      // frontier of nodes that fell out of the active set.
      for (NodeId x : active) frontier[x].Clear();
      for (NodeId v : next_active) std::swap(frontier[v], next_frontier[v]);
      active = std::move(next_active);
    }
    for (NodeId x : active) frontier[x].Clear();
    for (NodeId v : touched) {
      if (seen[v].size() != 0) seen[v].Clear();
      if (frontier[v].size() != 0) frontier[v].Clear();
    }
  }
}

std::vector<Bitset> TransitiveClosure(const Graph& g) {
  const size_t n = g.NumNodes();
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  return ReachableTargets(g, all);
}

std::vector<std::vector<uint32_t>> AllPairsDistances(const Graph& g) {
  const size_t n = g.NumNodes();
  std::vector<std::vector<uint32_t>> d(
      n, std::vector<uint32_t>(n, kInfDistance));
  for (NodeId v = 0; v < n; ++v) {
    d[v][v] = 0;
    for (NodeId w : g.OutNeighbors(v)) d[v][w] = std::min(d[v][w], 1u);
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (d[i][k] == kInfDistance) continue;
      for (size_t j = 0; j < n; ++j) {
        if (d[k][j] == kInfDistance) continue;
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

std::vector<NodeId> TopologicalOrder(const Graph& g) {
  const size_t n = g.NumNodes();
  std::vector<size_t> in_degree(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.OutNeighbors(u)) ++in_degree[v];
  }
  std::deque<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (in_degree[v] == 0) ready.push_back(v);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId u = ready.front();
    ready.pop_front();
    order.push_back(u);
    for (NodeId v : g.OutNeighbors(u)) {
      if (--in_degree[v] == 0) ready.push_back(v);
    }
  }
  PEREACH_CHECK_EQ(order.size(), n);  // cyclic input is a caller bug
  return order;
}

}  // namespace pereach
