#ifndef QBASIS_TESTS_LAYOUT_REFERENCE_HPP
#define QBASIS_TESTS_LAYOUT_REFERENCE_HPP

/**
 * @file
 * Reference SABRE layout and routing for the bit-identity tests:
 * the Gate-copying router (one GateDag and one RoutedCircuit per
 * pass) and the layout that runs it 18 times over a reversed Circuit
 * copy, exactly as the library computed them before both moved onto
 * one count-only-capable routing core. The library's layouts, swap
 * counts, final layouts, routed gates and source maps must match
 * these bit for bit.
 */

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "transpile/layout.hpp"
#include "transpile/routing.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qbasis {
namespace layout_reference {

/** Dependency DAG over gate indices, per-qubit chains. */
struct GateDag
{
    explicit GateDag(const Circuit &c)
        : num_preds(c.size(), 0), successors(c.size())
    {
        std::vector<int> last(c.numQubits(), -1);
        for (size_t i = 0; i < c.gates().size(); ++i) {
            for (int q : c.gates()[i].qubits) {
                if (last[q] >= 0) {
                    successors[last[q]].push_back(i);
                    ++num_preds[i];
                }
                last[q] = static_cast<int>(i);
            }
        }
    }

    std::vector<int> num_preds;
    std::vector<std::vector<size_t>> successors;
};

inline RoutedCircuit
referenceSabreRoute(const Circuit &logical, const CouplingMap &cm,
                    std::vector<int> initial_layout,
                    const SabreOptions &opts = {})
{
    const int nl = logical.numQubits();
    const int np = cm.numQubits();
    if (nl > np)
        fatal("circuit has %d qubits but device only %d", nl, np);
    if (initial_layout.size() != static_cast<size_t>(nl))
        fatal("initial layout size %zu != logical qubits %d",
              initial_layout.size(), nl);

    // layout[l] = physical wire of logical qubit l;
    // inverse[p] = logical qubit on physical wire p (-1 if none).
    std::vector<int> layout = std::move(initial_layout);
    std::vector<int> inverse(np, -1);
    for (int l = 0; l < nl; ++l) {
        const int p = layout[l];
        if (p < 0 || p >= np || inverse[p] >= 0)
            fatal("invalid initial layout (physical %d)", p);
        inverse[p] = l;
    }

    RoutedCircuit out;
    out.circuit = Circuit(np);
    out.initial_layout = layout;

    GateDag dag(logical);
    std::vector<size_t> front;
    for (size_t i = 0; i < logical.size(); ++i)
        if (dag.num_preds[i] == 0)
            front.push_back(i);

    std::vector<double> decay(np, 1.0);
    Rng rng(opts.seed);
    int swaps_since_reset = 0;

    auto executable = [&](size_t gi) {
        const Gate &g = logical.gates()[gi];
        if (!g.isTwoQubit())
            return true;
        return cm.connected(layout[g.qubits[0]], layout[g.qubits[1]]);
    };

    auto emit = [&](size_t gi) {
        Gate g = logical.gates()[gi];
        for (int &q : g.qubits)
            q = layout[q];
        out.circuit.append(std::move(g));
        out.sources.push_back(static_cast<int>(gi));
    };

    auto advance = [&](size_t gi, std::vector<size_t> &next_front) {
        for (size_t s : dag.successors[gi]) {
            if (--dag.num_preds[s] == 0)
                next_front.push_back(s);
        }
    };

    size_t executed = 0;
    const size_t total = logical.size();
    size_t stall_guard = 0;
    const size_t stall_limit = 10 * total + 1000;

    while (executed < total) {
        // Execute every ready gate.
        bool progressed = true;
        while (progressed) {
            progressed = false;
            std::vector<size_t> next_front;
            std::vector<size_t> still_blocked;
            for (size_t gi : front) {
                if (executable(gi)) {
                    emit(gi);
                    advance(gi, next_front);
                    ++executed;
                    progressed = true;
                } else {
                    still_blocked.push_back(gi);
                }
            }
            front = std::move(still_blocked);
            front.insert(front.end(), next_front.begin(),
                         next_front.end());
            if (progressed) {
                std::fill(decay.begin(), decay.end(), 1.0);
                swaps_since_reset = 0;
            }
        }
        if (executed >= total)
            break;

        if (++stall_guard > stall_limit)
            panic("sabreRoute made no progress (stall guard hit)");

        // All front gates are blocked 2Q gates: pick the best SWAP.
        // Candidate swaps touch a physical qubit of a blocked gate.
        std::vector<int> candidate_edges;
        for (size_t gi : front) {
            const Gate &g = logical.gates()[gi];
            if (!g.isTwoQubit())
                continue;
            for (int lq : g.qubits) {
                const int p = layout[lq];
                for (int nb : cm.neighbors(p))
                    candidate_edges.push_back(cm.edgeId(p, nb));
            }
        }
        std::sort(candidate_edges.begin(), candidate_edges.end());
        candidate_edges.erase(std::unique(candidate_edges.begin(),
                                          candidate_edges.end()),
                              candidate_edges.end());
        if (candidate_edges.empty())
            panic("sabreRoute: blocked without swap candidates");

        // Extended set: successors of the front (lookahead).
        std::vector<size_t> extended;
        {
            std::vector<size_t> frontier = front;
            std::vector<int> preds_copy; // shallow lookahead walk
            size_t cursor = 0;
            std::vector<size_t> walk = front;
            while (cursor < walk.size()
                   && extended.size()
                          < static_cast<size_t>(
                              opts.extended_set_size)) {
                const size_t gi = walk[cursor++];
                for (size_t s : dag.successors[gi]) {
                    if (logical.gates()[s].isTwoQubit())
                        extended.push_back(s);
                    walk.push_back(s);
                    if (extended.size()
                        >= static_cast<size_t>(
                            opts.extended_set_size))
                        break;
                }
            }
        }

        auto scoreWith = [&](int pa, int pb) {
            // Score the layout obtained by swapping wires pa, pb.
            std::swap(inverse[pa], inverse[pb]);
            if (inverse[pa] >= 0)
                layout[inverse[pa]] = pa;
            if (inverse[pb] >= 0)
                layout[inverse[pb]] = pb;

            double basic = 0.0;
            int front_2q = 0;
            for (size_t gi : front) {
                const Gate &g = logical.gates()[gi];
                if (!g.isTwoQubit())
                    continue;
                basic += cm.distance(layout[g.qubits[0]],
                                     layout[g.qubits[1]]);
                ++front_2q;
            }
            if (front_2q > 0)
                basic /= front_2q;
            double ext = 0.0;
            if (!extended.empty()) {
                for (size_t gi : extended) {
                    const Gate &g = logical.gates()[gi];
                    ext += cm.distance(layout[g.qubits[0]],
                                       layout[g.qubits[1]]);
                }
                ext /= static_cast<double>(extended.size());
            }

            // Undo.
            std::swap(inverse[pa], inverse[pb]);
            if (inverse[pa] >= 0)
                layout[inverse[pa]] = pa;
            if (inverse[pb] >= 0)
                layout[inverse[pb]] = pb;

            const double decay_factor =
                std::max(decay[pa], decay[pb]);
            return decay_factor
                   * (basic + opts.extended_weight * ext);
        };

        int best_edge = -1;
        double best_score = std::numeric_limits<double>::max();
        for (int eid : candidate_edges) {
            const auto [pa, pb] = cm.edges()[eid];
            const double score =
                scoreWith(pa, pb)
                + 1e-9 * static_cast<double>(rng.uniformInt(1000));
            if (score < best_score) {
                best_score = score;
                best_edge = eid;
            }
        }

        const auto [pa, pb] = cm.edges()[best_edge];
        out.circuit.swap(pa, pb);
        out.sources.push_back(-1);
        ++out.swaps_inserted;
        std::swap(inverse[pa], inverse[pb]);
        if (inverse[pa] >= 0)
            layout[inverse[pa]] = pa;
        if (inverse[pb] >= 0)
            layout[inverse[pb]] = pb;
        decay[pa] += opts.decay_increment;
        decay[pb] += opts.decay_increment;
        if (++swaps_since_reset >= opts.decay_reset_interval) {
            std::fill(decay.begin(), decay.end(), 1.0);
            swaps_since_reset = 0;
        }
    }

    out.final_layout = layout;
    return out;
}

inline Circuit
referenceReversedCircuit(const Circuit &c)
{
    Circuit r(c.numQubits());
    for (auto it = c.gates().rbegin(); it != c.gates().rend(); ++it)
        r.append(*it);
    return r;
}

inline std::vector<int>
referenceSabreLayout(const Circuit &logical, const CouplingMap &cm,
                     int iterations = 3, const SabreOptions &opts = {})
{
    const Circuit reversed = referenceReversedCircuit(logical);
    const int nl = logical.numQubits();

    std::vector<int> best_layout = trivialLayout(nl);
    size_t best_swaps = ~size_t{0};

    // Several starting placements (trivial + random), each refined
    // by forward/backward reverse-traversal passes; keep the initial
    // layout whose forward routing inserts the fewest SWAPs. This
    // mirrors Qiskit's multi-seed SABRE layout.
    Rng seed_rng(opts.seed ^ 0x1a707ull);
    const int trials = 3;
    for (int trial = 0; trial < trials; ++trial) {
        std::vector<int> layout;
        if (trial == 0) {
            layout = trivialLayout(nl);
        } else {
            std::vector<size_t> wires(cm.numQubits());
            for (size_t i = 0; i < wires.size(); ++i)
                wires[i] = i;
            seed_rng.shuffle(wires);
            layout.resize(nl);
            for (int l = 0; l < nl; ++l)
                layout[l] = static_cast<int>(wires[l]);
        }

        for (int iter = 0; iter < iterations; ++iter) {
            SabreOptions fwd_opts = opts;
            fwd_opts.seed = opts.seed + 16 * trial + 2 * iter;
            const RoutedCircuit fwd =
                referenceSabreRoute(logical, cm, layout, fwd_opts);
            if (fwd.swaps_inserted < best_swaps) {
                best_swaps = fwd.swaps_inserted;
                best_layout = layout;
            }
            // Reverse pass starts from where the forward pass
            // ended; its final layout is a refined placement.
            SabreOptions bwd_opts = opts;
            bwd_opts.seed = opts.seed + 16 * trial + 2 * iter + 1;
            const RoutedCircuit bwd =
                referenceSabreRoute(reversed, cm, fwd.final_layout,
                                    bwd_opts);
            layout = bwd.final_layout;
        }
    }
    return best_layout;
}

} // namespace layout_reference
} // namespace qbasis

#endif // QBASIS_TESTS_LAYOUT_REFERENCE_HPP
