#include "src/core/incremental.h"

namespace pereach {

IncrementalReachIndex::IncrementalReachIndex(const Graph& graph,
                                             std::vector<SiteId> partition,
                                             size_t num_sites)
    : partition_(std::move(partition)), num_sites_(num_sites) {
  labels_ = graph.labels();
  edges_.reserve(graph.NumEdges());
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) edges_.emplace_back(u, v);
  }
  RebuildStructure();
}

void IncrementalReachIndex::RebuildStructure() {
  GraphBuilder b;
  b.AddNodes(labels_.size());
  for (NodeId v = 0; v < labels_.size(); ++v) b.SetLabel(v, labels_[v]);
  for (const auto& [u, v] : edges_) b.AddEdge(u, v);
  const Graph g = std::move(b).Build();
  fragmentation_ = Fragmentation::Build(g, partition_, num_sites_);
}

void IncrementalReachIndex::AddEdge(NodeId u, NodeId v) {
  const std::pair<NodeId, NodeId> edge(u, v);
  AddEdges(std::span<const std::pair<NodeId, NodeId>>(&edge, 1));
}

void IncrementalReachIndex::AddEdges(
    std::span<const std::pair<NodeId, NodeId>> edges) {
  if (edges.empty()) return;
  // Fragments an edge of this batch touches: u's fragment always (its
  // reachable sets may grow); v's when the edge crosses fragments (a new
  // cross edge makes v an in-node).
  std::vector<bool> touched(num_sites_, false);
  for (const auto& [u, v] : edges) {
    PEREACH_CHECK_LT(u, labels_.size());
    PEREACH_CHECK_LT(v, labels_.size());
    edges_.emplace_back(u, v);
    touched[partition_[u]] = true;
    if (partition_[u] != partition_[v]) touched[partition_[v]] = true;
  }
  for (SiteId site = 0; site < num_sites_; ++site) {
    if (touched[site] && update_listener_) update_listener_(site);
  }
  // One structural rebuild per batch — the writer path's dominant cost is
  // amortized over every edge of the update.
  RebuildStructure();
  ++epoch_;
}

}  // namespace pereach
