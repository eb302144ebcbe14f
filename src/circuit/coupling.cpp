#include "circuit/coupling.hpp"

#include <algorithm>
#include <deque>

#include "util/logging.hpp"

namespace qbasis {

CouplingMap::CouplingMap(int num_qubits,
                         std::vector<std::pair<int, int>> edge_list)
    : num_qubits_(num_qubits)
{
    if (num_qubits <= 0)
        fatal("CouplingMap needs a positive qubit count");

    // Canonicalize, validate, deduplicate.
    for (auto &e : edge_list) {
        if (e.first == e.second)
            fatal("self-loop edge (%d, %d)", e.first, e.second);
        if (e.first < 0 || e.second < 0 || e.first >= num_qubits
            || e.second >= num_qubits)
            fatal("edge (%d, %d) out of range", e.first, e.second);
        if (e.first > e.second)
            std::swap(e.first, e.second);
    }
    std::sort(edge_list.begin(), edge_list.end());
    edge_list.erase(std::unique(edge_list.begin(), edge_list.end()),
                    edge_list.end());
    edges_ = std::move(edge_list);

    adjacency_.assign(num_qubits_, {});
    edge_id_.assign(num_qubits_ * num_qubits_, -1);
    for (size_t id = 0; id < edges_.size(); ++id) {
        const auto [a, b] = edges_[id];
        adjacency_[a].push_back(b);
        adjacency_[b].push_back(a);
        edge_id_[a * num_qubits_ + b] = static_cast<int>(id);
        edge_id_[b * num_qubits_ + a] = static_cast<int>(id);
    }

    // All-pairs BFS.
    distance_.assign(num_qubits_ * num_qubits_, 1 << 28);
    for (int src = 0; src < num_qubits_; ++src) {
        int *dist = &distance_[src * num_qubits_];
        dist[src] = 0;
        std::deque<int> queue{src};
        while (!queue.empty()) {
            const int u = queue.front();
            queue.pop_front();
            for (int v : adjacency_[u]) {
                if (dist[v] > dist[u] + 1) {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
    }
}

CouplingMap
CouplingMap::grid(int rows, int cols)
{
    std::vector<std::pair<int, int>> edges;
    auto idx = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                edges.emplace_back(idx(r, c), idx(r, c + 1));
            if (r + 1 < rows)
                edges.emplace_back(idx(r, c), idx(r + 1, c));
        }
    }
    return CouplingMap(rows * cols, std::move(edges));
}

CouplingMap
CouplingMap::line(int n)
{
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i + 1 < n; ++i)
        edges.emplace_back(i, i + 1);
    return CouplingMap(n, std::move(edges));
}

CouplingMap
CouplingMap::ring(int n)
{
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i + 1 < n; ++i)
        edges.emplace_back(i, i + 1);
    if (n > 2)
        edges.emplace_back(0, n - 1);
    return CouplingMap(n, std::move(edges));
}

CouplingMap
CouplingMap::heavyHex(int rows, int cols)
{
    if (rows < 1 || cols < 1)
        fatal("heavyHex needs positive cell counts");
    // Construction: (rows + 1) horizontal chains of 2*cols + 1
    // sites, joined by dedicated bridge qubits on alternating
    // columns (offset flips per row), giving the degree-<=3
    // heavy-hexagon pattern.
    const int row_len = 2 * cols + 1;
    const int n_row_qubits = (rows + 1) * row_len;
    auto rowQubit = [row_len](int r, int c) {
        return r * row_len + c;
    };
    std::vector<std::pair<int, int>> edges;
    for (int r = 0; r <= rows; ++r)
        for (int c = 0; c + 1 < row_len; ++c)
            edges.emplace_back(rowQubit(r, c), rowQubit(r, c + 1));

    int next = n_row_qubits;
    for (int r = 0; r < rows; ++r) {
        const int offset = (r % 2 == 0) ? 0 : 2;
        for (int c = offset; c < row_len; c += 4) {
            edges.emplace_back(rowQubit(r, c), next);
            edges.emplace_back(next, rowQubit(r + 1, c));
            ++next;
        }
    }
    return CouplingMap(next, std::move(edges));
}

bool
CouplingMap::connected(int a, int b) const
{
    return edgeId(a, b) >= 0;
}

int
CouplingMap::edgeId(int a, int b) const
{
    if (a < 0 || b < 0 || a >= num_qubits_ || b >= num_qubits_)
        return -1;
    return edgeIdAt(a, b);
}

bool
CouplingMap::isConnected() const
{
    for (int q = 0; q < num_qubits_; ++q)
        if (distance_[q] >= (1 << 28))
            return false;
    return true;
}

} // namespace qbasis
