#include "transpile/pipeline.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "transpile/merge_1q.hpp"

namespace qbasis {

TranspileResult
transpileCircuit(const Circuit &logical, const CouplingMap &cm,
                 const std::vector<EdgeBasis> &bases,
                 const SynthClient &client,
                 const TranspileOptions &opts,
                 RoutedCircuit *captured_routing)
{
    QBASIS_TRACE_SCOPE("transpile.pipeline", "gates", logical.size(),
                       "qubits",
                       static_cast<uint64_t>(logical.numQubits()));
    TranspileResult result;

    const std::vector<int> layout = [&] {
        QBASIS_TRACE_SCOPE("transpile.layout");
        return sabreLayout(logical, cm, opts.layout_iterations,
                           opts.sabre);
    }();
    RoutedCircuit routed = [&] {
        QBASIS_TRACE_SCOPE("transpile.route");
        return sabreRoute(logical, cm, layout, opts.sabre);
    }();

    result.initial_layout = routed.initial_layout;
    result.final_layout = routed.final_layout;
    result.swaps_inserted = routed.swaps_inserted;

    const Circuit merged = [&] {
        QBASIS_TRACE_SCOPE("transpile.merge");
        return mergeSingleQubitRuns(routed.circuit);
    }();
    if (captured_routing != nullptr)
        *captured_routing = std::move(routed);
    const Circuit translated = [&] {
        QBASIS_TRACE_SCOPE("transpile.translate", "gates",
                           merged.size());
        return translateToEdgeBases(merged, cm, bases, client,
                                    opts.synth, &result.translation);
    }();
    QBASIS_TRACE_SCOPE("transpile.merge");
    result.physical = mergeSingleQubitRuns(translated);
    return result;
}

} // namespace qbasis
