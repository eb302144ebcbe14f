#include "transpile/routing.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "transpile/layout.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qbasis {

namespace {

/**
 * Dependency view of a circuit: per gate its qubits (q1 = -1 for 1Q
 * gates) and, in two slots, the next gate on each of its wires in
 * view order (-1 when none; a successor on both wires fills both).
 * `reversed` views the gates back to front.
 */
struct SabreDag
{
    SabreDag(const Circuit &c, bool reversed)
        : circuit(c), reversed(reversed), q0(c.size()), q1(c.size(), -1),
          num_preds(c.size(), 0), succ(2 * c.size(), -1)
    {
        std::vector<int> last(c.numQubits(), -1);
        for (size_t j = 0; j < size(); ++j) {
            const Gate &g = gate(static_cast<int>(j));
            q0[j] = g.qubits[0];
            if (g.isTwoQubit())
                q1[j] = g.qubits[1];
            for (const int q : {q0[j], q1[j]}) {
                if (q < 0)
                    continue;
                if (last[q] >= 0) {
                    int *slots = &succ[2 * last[q]];
                    slots[slots[0] >= 0] = static_cast<int>(j);
                    ++num_preds[j];
                }
                last[q] = static_cast<int>(j);
            }
        }
    }

    size_t size() const { return q0.size(); }

    /** Index in `circuit` of view position j. */
    int source(int j) const
    {
        return reversed ? static_cast<int>(size()) - 1 - j : j;
    }

    const Gate &gate(int j) const { return circuit.gates()[source(j)]; }

    const Circuit &circuit;
    bool reversed;
    std::vector<int> q0, q1, num_preds, succ;
};

/**
 * The one SABRE core: routes a SabreDag onto the device, keeping its
 * buffers across passes. With an output it emits the routed gates
 * (sabreRoute); without one it only counts SWAPs and moves the layout
 * (every sabreLayout pass).
 */
class SabreRouter
{
  public:
    explicit SabreRouter(const CouplingMap &cm) : cm_(cm) {}

    /** Route `dag` from `layout` (logical -> physical), leaving the
     *  final layout in it; returns the SWAP count. With `out`, also
     *  emits the routed gates and their sources. */
    size_t
    route(const SabreDag &dag, std::vector<int> &layout,
          const SabreOptions &opts, RoutedCircuit *out = nullptr)
    {
        const int nl = dag.circuit.numQubits();
        const int np = cm_.numQubits();
        if (nl > np)
            fatal("circuit has %d qubits but device only %d", nl, np);
        if (layout.size() != static_cast<size_t>(nl))
            fatal("initial layout size %zu != logical qubits %d",
                  layout.size(), nl);

        // layout[l] = physical wire of logical qubit l;
        // inverse[p] = logical qubit on physical wire p (-1 if none).
        inverse_.assign(np, -1);
        for (int l = 0; l < nl; ++l) {
            const int p = layout[l];
            if (p < 0 || p >= np || inverse_[p] >= 0)
                fatal("invalid initial layout (physical %d)", p);
            inverse_[p] = l;
        }
        auto swapWires = [&](int pa, int pb) {
            std::swap(inverse_[pa], inverse_[pb]);
            if (inverse_[pa] >= 0)
                layout[inverse_[pa]] = pa;
            if (inverse_[pb] >= 0)
                layout[inverse_[pb]] = pb;
        };

        preds_ = dag.num_preds;
        front_.clear();
        for (size_t i = 0; i < dag.size(); ++i)
            if (preds_[i] == 0)
                front_.push_back(static_cast<int>(i));

        decay_.assign(np, 1.0);
        Rng rng(opts.seed);
        int swaps_since_reset = 0;
        size_t swaps = 0;

        size_t executed = 0;
        const size_t total = dag.size();
        size_t stall_guard = 0;
        const size_t stall_limit = 10 * total + 1000;
        const size_t ext_limit =
            static_cast<size_t>(opts.extended_set_size);

        while (executed < total) {
            // Execute every ready gate.
            bool progressed = true;
            while (progressed) {
                progressed = false;
                next_.clear();
                blocked_.clear();
                for (const int gi : front_) {
                    if (dag.q1[gi] >= 0
                        && cm_.edgeIdAt(layout[dag.q0[gi]],
                                        layout[dag.q1[gi]]) < 0) {
                        blocked_.push_back(gi);
                        continue;
                    }
                    if (out != nullptr) {
                        Gate g = dag.gate(gi);
                        for (int &q : g.qubits)
                            q = layout[q];
                        out->circuit.append(std::move(g));
                        out->sources.push_back(dag.source(gi));
                    }
                    for (const int s :
                         {dag.succ[2 * gi], dag.succ[2 * gi + 1]})
                        if (s >= 0 && --preds_[s] == 0)
                            next_.push_back(s);
                    ++executed;
                    progressed = true;
                }
                front_.swap(blocked_);
                front_.insert(front_.end(), next_.begin(), next_.end());
                if (progressed) {
                    std::fill(decay_.begin(), decay_.end(), 1.0);
                    swaps_since_reset = 0;
                }
            }
            if (executed >= total)
                break;

            if (++stall_guard > stall_limit)
                panic("sabreRoute made no progress (stall guard hit)");

            // All front gates are blocked 2Q gates: pick the best
            // SWAP. Candidate swaps touch a physical qubit of a
            // blocked gate; pairs_ collects the front's qubit pairs.
            cand_.clear();
            pairs_.clear();
            for (const int gi : front_) {
                for (const int lq : {dag.q0[gi], dag.q1[gi]}) {
                    const int p = layout[lq];
                    for (const int nb : cm_.neighbors(p))
                        cand_.push_back(cm_.edgeIdAt(p, nb));
                    pairs_.push_back(lq);
                }
            }
            std::sort(cand_.begin(), cand_.end());
            cand_.erase(std::unique(cand_.begin(), cand_.end()),
                        cand_.end());
            if (cand_.empty())
                panic("sabreRoute: blocked without swap candidates");

            // Extended set (lookahead): walk successors breadth-first
            // from the front, through 1Q gates and repeated nodes,
            // until it holds extended_set_size 2Q gates; their pairs
            // follow the front's.
            const size_t n_front = pairs_.size() / 2;
            size_t n_ext = 0;
            walk_.assign(front_.begin(), front_.end());
            for (size_t cursor = 0;
                 cursor < walk_.size() && n_ext < ext_limit;) {
                const int gi = walk_[cursor++];
                for (const int s :
                     {dag.succ[2 * gi], dag.succ[2 * gi + 1]}) {
                    if (s < 0)
                        break;
                    if (dag.q1[s] >= 0) {
                        pairs_.push_back(dag.q0[s]);
                        pairs_.push_back(dag.q1[s]);
                        ++n_ext;
                    }
                    walk_.push_back(s);
                    if (n_ext >= ext_limit)
                        break;
                }
            }

            int best_edge = -1;
            double best_score = std::numeric_limits<double>::max();
            for (const int eid : cand_) {
                const auto [pa, pb] = cm_.edges()[eid];
                // Score the layout obtained by swapping wires pa, pb.
                swapWires(pa, pb);
                int64_t front_sum = 0, ext_sum = 0;
                for (size_t i = 0; i < 2 * n_front; i += 2)
                    front_sum += cm_.distanceAt(layout[pairs_[i]],
                                                layout[pairs_[i + 1]]);
                for (size_t i = 2 * n_front; i < pairs_.size(); i += 2)
                    ext_sum += cm_.distanceAt(layout[pairs_[i]],
                                              layout[pairs_[i + 1]]);
                swapWires(pa, pb);

                const double basic = static_cast<double>(front_sum)
                                     / static_cast<double>(n_front);
                double ext = static_cast<double>(ext_sum);
                if (n_ext > 0)
                    ext /= static_cast<double>(n_ext);
                const double score =
                    std::max(decay_[pa], decay_[pb])
                        * (basic + opts.extended_weight * ext)
                    + 1e-9 * static_cast<double>(rng.uniformInt(1000));
                if (score < best_score) {
                    best_score = score;
                    best_edge = eid;
                }
            }

            const auto [pa, pb] = cm_.edges()[best_edge];
            if (out != nullptr) {
                out->circuit.swap(pa, pb);
                out->sources.push_back(-1);
            }
            ++swaps;
            swapWires(pa, pb);
            decay_[pa] += opts.decay_increment;
            decay_[pb] += opts.decay_increment;
            if (++swaps_since_reset >= opts.decay_reset_interval) {
                std::fill(decay_.begin(), decay_.end(), 1.0);
                swaps_since_reset = 0;
            }
        }
        return swaps;
    }

  private:
    const CouplingMap &cm_;
    std::vector<int> inverse_, preds_, front_, next_, blocked_;
    std::vector<int> cand_, walk_, pairs_;
    std::vector<double> decay_;
};

} // namespace

RoutedCircuit
sabreRoute(const Circuit &logical, const CouplingMap &cm,
           std::vector<int> initial_layout, const SabreOptions &opts)
{
    RoutedCircuit out;
    out.circuit = Circuit(cm.numQubits());
    out.initial_layout = initial_layout;
    out.swaps_inserted = SabreRouter(cm).route(
        SabreDag(logical, false), initial_layout, opts, &out);
    out.final_layout = std::move(initial_layout);
    return out;
}

std::vector<int>
trivialLayout(int num_logical)
{
    std::vector<int> layout(num_logical);
    std::iota(layout.begin(), layout.end(), 0);
    return layout;
}

std::vector<int>
sabreLayout(const Circuit &logical, const CouplingMap &cm,
            int iterations, const SabreOptions &opts)
{
    // Every pass is count-only on one router; the backward passes
    // walk a reversed view of the gate list.
    const SabreDag forward(logical, false);
    const SabreDag backward(logical, true);
    SabreRouter router(cm);
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
            SabreOptions pass_opts = opts;
            pass_opts.seed = opts.seed + 16 * trial + 2 * iter;
            std::vector<int> moved = layout;
            const size_t swaps = router.route(forward, moved, pass_opts);
            // No later pass can beat zero under the strict <.
            if (swaps == 0)
                return layout;
            if (swaps < best_swaps) {
                best_swaps = swaps;
                best_layout = layout;
            }
            // Reverse pass starts from where the forward pass
            // ended; its final layout is a refined placement.
            ++pass_opts.seed;
            router.route(backward, moved, pass_opts);
            layout = std::move(moved);
        }
    }
    return best_layout;
}

} // namespace qbasis
