#ifndef QBASIS_CIRCUIT_COUPLING_HPP
#define QBASIS_CIRCUIT_COUPLING_HPP

/**
 * @file
 * Device connectivity: undirected coupling graphs with edge ids,
 * adjacency, and all-pairs shortest-path distances (the routing
 * heuristic's cost function).
 */

#include <stdexcept>
#include <utility>
#include <vector>

namespace qbasis {

/** Undirected coupling graph of a device. */
class CouplingMap
{
  public:
    /** Build from an explicit edge list (validated, deduplicated). */
    CouplingMap(int num_qubits,
                std::vector<std::pair<int, int>> edge_list);

    /** rows x cols grid lattice (the paper's Fig. 7 topology). */
    static CouplingMap grid(int rows, int cols);

    /** Linear chain of n qubits. */
    static CouplingMap line(int n);

    /** Ring of n qubits. */
    static CouplingMap ring(int n);

    /**
     * IBM-style heavy-hexagon lattice built from `rows` x `cols`
     * hexagon cells (degree <= 3 everywhere). The paper's Section VI
     * notes that sparser connectivity like heavy-hex needs fewer
     * edge-coloring rounds for parallel calibration.
     */
    static CouplingMap heavyHex(int rows, int cols);

    /** Number of device qubits. */
    int numQubits() const { return num_qubits_; }

    /** Canonicalized edge list (lo < hi), indexed by edge id. */
    const std::vector<std::pair<int, int>> &edges() const
    {
        return edges_;
    }

    /** True when qubits a and b share an edge. */
    bool connected(int a, int b) const;

    /** Edge id for (a, b) in either order, or -1. */
    int edgeId(int a, int b) const;

    /** Neighbor list of a qubit. */
    const std::vector<int> &neighbors(int q) const
    {
        return adjacency_.at(q);
    }

    /** BFS hop distance between two qubits. */
    int distance(int a, int b) const
    {
        if (a < 0 || b < 0 || a >= num_qubits_ || b >= num_qubits_)
            throw std::out_of_range("CouplingMap::distance");
        return distanceAt(a, b);
    }

    /** distance() for qubits known to be in range (no check). */
    int distanceAt(int a, int b) const
    {
        return distance_[a * num_qubits_ + b];
    }

    /** edgeId() for qubits known to be in range (no check). */
    int edgeIdAt(int a, int b) const
    {
        return edge_id_[a * num_qubits_ + b];
    }

    /** True when the graph is connected. */
    bool isConnected() const;

  private:
    int num_qubits_;
    std::vector<std::pair<int, int>> edges_;
    std::vector<std::vector<int>> adjacency_;
    std::vector<int> edge_id_;   // dense lookup, row-major
    std::vector<int> distance_;  // BFS all-pairs, row-major
};

} // namespace qbasis

#endif // QBASIS_CIRCUIT_COUPLING_HPP
