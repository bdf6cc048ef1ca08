#ifndef SURFER_PROPAGATION_ENGINE_INPUTS_H_
#define SURFER_PROPAGATION_ENGINE_INPUTS_H_

#include <vector>

#include "cluster/topology.h"
#include "common/status.h"
#include "propagation/config.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace surfer {

/// The input checks every propagation engine makes before it runs.
inline Status ValidateEngineInputs(const PartitionedGraph* graph,
                                   const ReplicatedPlacement* placement,
                                   const Topology* topology,
                                   const PropagationConfig& config) {
  if (graph == nullptr || placement == nullptr || topology == nullptr) {
    return Status::InvalidArgument("engine inputs must be non-null");
  }
  if (placement->num_partitions() != graph->num_partitions()) {
    return Status::InvalidArgument(
        "placement partition count does not match graph");
  }
  if (config.iterations < 1) {
    return Status::InvalidArgument("iterations must be >= 1");
  }
  for (PartitionId p = 0; p < placement->num_partitions(); ++p) {
    if (placement->primary(p) >= topology->num_machines()) {
      return Status::InvalidArgument("placement machine out of range");
    }
  }
  return Status::OK();
}

/// Every vertex's InitState, in encoded-ID order: the states each engine
/// starts a run from.
template <typename App>
std::vector<typename App::VertexState> InitialStates(
    const App& app, const PartitionedGraph& graph) {
  const Graph& g = graph.encoded_graph();
  std::vector<typename App::VertexState> states;
  states.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    states.push_back(app.InitState(v, g.OutNeighbors(v)));
  }
  return states;
}

}  // namespace surfer

#endif  // SURFER_PROPAGATION_ENGINE_INPUTS_H_
