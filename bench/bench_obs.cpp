/**
 * @file
 * Observability overhead benchmark: the cost of a scoped span with
 * tracing disabled (the zero-perturbation budget: one relaxed atomic
 * load, single-digit ns) and enabled, of a metrics Counter add and
 * a histogram record, plus an exporter round trip and a traced-vs-
 * untraced digest-neutrality check over a real compile workload.
 * Emits BENCH_obs.json for the CI bench gate (scripts/check_bench.py
 * check_obs).
 *
 * Usage: bench_obs [--quick|--smoke]
 *
 * JSON schema (BENCH_obs.json):
 * {
 *   "quick": bool, "smoke": bool,
 *   "spans": { "disabled_iters": int, "disabled_ns_per_span": double,
 *              "enabled_iters": int, "enabled_ns_per_span": double },
 *   "metrics": { "counter_ns": double, "histogram_record_ns": double },
 *   "export": { "events": int, "valid": bool },
 *   "digests": { "requests": int, "compile_match": bool,
 *                "health_match": bool, "fleet_match": bool }
 * }
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/bv.hpp"
#include "apps/qft.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/compile_service.hpp"
#include "util/logging.hpp"

using namespace qbasis;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Cheap-but-converging synthesis settings (as tests/test_serve). */
SynthOptions
cheapSynth()
{
    SynthOptions s;
    s.restarts = 2;
    s.adam_iters = 250;
    s.polish_iters = 100;
    s.max_layers = 4;
    s.target_infidelity = 1e-7;
    return s;
}

FleetDeviceSpec
quadSpec(uint64_t grid_seed)
{
    FleetDeviceSpec spec;
    spec.grid.rows = 2;
    spec.grid.cols = 2;
    spec.grid.seed = grid_seed;
    spec.xi = 0.04;
    return spec;
}

CompileServiceOptions
tinyServiceOptions()
{
    CompileServiceOptions opts;
    opts.fleet.shards = 2;
    opts.fleet.threads = 2;
    opts.fleet.synth = cheapSynth();
    opts.fleet.calib.edge_limit = 1;
    opts.queue_capacity = 64;
    opts.dispatchers = 2;
    opts.max_batch = 4;
    return opts;
}

std::vector<CompileRequest>
requestMix()
{
    std::vector<CompileRequest> reqs;
    uint64_t id = 1;
    for (int d = 0; d < 2; ++d) {
        reqs.emplace_back(id++, d, "qft2", qftCircuit(2));
        reqs.emplace_back(id++, d, "qft3", qftCircuit(3));
        reqs.emplace_back(id++, d, "bv3", bvAllOnesCircuit(3));
    }
    return reqs;
}

// --- Span-cost loops ------------------------------------------------

/** ns per span over `iters` tight-loop scopes (with args, as real
 *  call sites open them). The disabled path must not read a clock,
 *  so the loop itself is the only timing source. */
double
spanLoopNs(int iters)
{
    const double start = nowMs();
    for (int i = 0; i < iters; ++i) {
        QBASIS_TRACE_SCOPE("bench.span", "i",
                           static_cast<uint64_t>(i));
    }
    const double wall = nowMs() - start;
    return wall * 1e6 / static_cast<double>(iters);
}

double
counterLoopNs(int iters)
{
    static Counter c; // static: the adds must stay observable
    const double start = nowMs();
    for (int i = 0; i < iters; ++i)
        c.add();
    const double wall = nowMs() - start;
    return wall * 1e6 / static_cast<double>(iters);
}

double
histogramLoopNs(int iters)
{
    static Histogram h;
    const double start = nowMs();
    for (int i = 0; i < iters; ++i)
        h.record(static_cast<uint64_t>(i));
    const double wall = nowMs() - start;
    return wall * 1e6 / static_cast<double>(iters);
}

// --- Exporter round trip --------------------------------------------

struct ExportResult
{
    size_t events = 0;
    bool valid = false;
};

/** Record a known span tree, export, and sanity-check the JSON the
 *  way the CI obs job's real parser would. */
ExportResult
runExportRoundTrip()
{
    setTraceEnabled(true);
    clearTrace();
    setTraceThreadName("bench-obs-main");
    {
        TraceCorrelation correlation(42);
        QBASIS_TRACE_SCOPE("bench.outer", "alpha", uint64_t{1});
        QBASIS_TRACE_SCOPE("bench.inner", "beta", uint64_t{2});
    }
    ExportResult r;
    r.events = traceSnapshot().size();
    const std::string json = chromeTraceJson();
    r.valid = r.events == 2
              && json.find("{\"traceEvents\":[") != std::string::npos
              && json.find("\"name\":\"bench.outer\"")
                     != std::string::npos
              && json.find("\"request_id\":42") != std::string::npos
              && json.find("bench-obs-main") != std::string::npos
              && std::count(json.begin(), json.end(), '{')
                     == std::count(json.begin(), json.end(), '}');
    setTraceEnabled(false);
    clearTrace();
    return r;
}

// --- Digest neutrality ----------------------------------------------

struct DigestResult
{
    int requests = 0;
    bool compile_match = false;
    bool health_match = false;
    bool fleet_match = false;
};

/** One serving pass over the fixed mix; digests out. */
void
runServicePass(std::vector<uint64_t> &compile_digests,
               uint64_t &health_digest)
{
    CompileService service(tinyServiceOptions());
    service.start({quadSpec(11), quadSpec(12)});
    for (const CompileRequest &req : requestMix()) {
        const CompileResponse resp = service.compileSync(req);
        compile_digests.push_back(
            resp.status == CompileStatus::Ok
                ? compileResponseDigest(resp)
                : 0);
    }
    health_digest =
        healthReportDigest(service.driver().cycleReport(0).health);
    service.stop();
}

uint64_t
runFleetPass()
{
    FleetOptions fopts;
    fopts.shards = 1;
    fopts.threads = 2;
    fopts.synth = cheapSynth();
    fopts.calib.edge_limit = 1;
    FleetDriver driver(fopts);
    std::vector<FleetCircuit> circuits;
    circuits.push_back({"qft2", qftCircuit(2)});
    return fleetReportDigest(driver.run({quadSpec(11)}, circuits));
}

/** The zero-perturbation contract: identical fresh workloads with
 *  tracing OFF and then ON must produce byte-identical committed
 *  digests (only wall-clock fields may move). */
DigestResult
runDigestNeutrality()
{
    DigestResult r;
    setTraceEnabled(false);
    std::vector<uint64_t> off_compile, on_compile;
    uint64_t off_health = 0, on_health = 0;
    runServicePass(off_compile, off_health);
    const uint64_t off_fleet = runFleetPass();

    setTraceEnabled(true);
    clearTrace();
    runServicePass(on_compile, on_health);
    const uint64_t on_fleet = runFleetPass();
    const bool traced = !traceSnapshot().empty();
    setTraceEnabled(false);
    clearTrace();

    r.requests = static_cast<int>(off_compile.size());
    r.compile_match = traced && off_compile == on_compile
                      && std::find(off_compile.begin(),
                                   off_compile.end(), uint64_t{0})
                             == off_compile.end();
    r.health_match = off_health == on_health;
    r.fleet_match = off_fleet == on_fleet;
    return r;
}

void
writeJson(const char *path, bool quick, bool smoke, int disabled_iters,
          double disabled_ns, int enabled_iters, double enabled_ns,
          double counter_ns, double hist_ns, const ExportResult &exp,
          const DigestResult &dig)
{
    FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        warn("bench_obs: cannot write %s", path);
        return;
    }
    std::fprintf(
        f,
        "{\n  \"quick\": %s,\n  \"smoke\": %s,\n"
        "  \"spans\": {\n"
        "    \"disabled_iters\": %d,\n"
        "    \"disabled_ns_per_span\": %.3f,\n"
        "    \"enabled_iters\": %d,\n"
        "    \"enabled_ns_per_span\": %.3f\n  },\n"
        "  \"metrics\": {\n"
        "    \"counter_ns\": %.3f,\n"
        "    \"histogram_record_ns\": %.3f\n  },\n"
        "  \"export\": {\n"
        "    \"events\": %zu,\n"
        "    \"valid\": %s\n  },\n"
        "  \"digests\": {\n"
        "    \"requests\": %d,\n"
        "    \"compile_match\": %s,\n"
        "    \"health_match\": %s,\n"
        "    \"fleet_match\": %s\n  }\n}\n",
        quick ? "true" : "false", smoke ? "true" : "false",
        disabled_iters, disabled_ns, enabled_iters, enabled_ns,
        counter_ns, hist_ns, exp.events, exp.valid ? "true" : "false",
        dig.requests, dig.compile_match ? "true" : "false",
        dig.health_match ? "true" : "false",
        dig.fleet_match ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else {
            std::fprintf(stderr,
                         "usage: bench_obs [--quick|--smoke]\n");
            return 2;
        }
    }

    setLogLevel(LogLevel::Warn);
    std::printf("=== bench_obs: tracing + metrics overhead ===\n");
    std::printf("mode: %s\n",
                smoke ? "smoke" : quick ? "quick" : "full");

    const int disabled_iters = smoke   ? 2000000
                               : quick ? 10000000
                                       : 50000000;
    const int enabled_iters = smoke ? 100000 : 400000;
    const int metric_iters = smoke ? 2000000 : 10000000;

    // Disabled path first (the number the zero-perturbation contract
    // rides on): warm-up loop, then the measured loop.
    setTraceEnabled(false);
    spanLoopNs(std::min(disabled_iters, 100000));
    const double disabled_ns = spanLoopNs(disabled_iters);
    std::printf("span disabled: %.2f ns/span (%d iters)\n",
                disabled_ns, disabled_iters);

    setTraceEnabled(true);
    clearTrace();
    spanLoopNs(std::min(enabled_iters, 10000));
    const double enabled_ns = spanLoopNs(enabled_iters);
    setTraceEnabled(false);
    clearTrace();
    std::printf("span enabled:  %.2f ns/span (%d iters, ring-buffer "
                "append)\n", enabled_ns, enabled_iters);

    const double counter_ns = counterLoopNs(metric_iters);
    const double hist_ns = histogramLoopNs(metric_iters);
    std::printf("counter add:   %.2f ns\n", counter_ns);
    std::printf("histogram rec: %.2f ns\n", hist_ns);

    std::printf("[export] span tree -> Chrome JSON round trip...\n");
    const ExportResult exp = runExportRoundTrip();
    std::printf("export: %zu events, %s\n", exp.events,
                exp.valid ? "valid" : "INVALID");

    std::printf("[digests] traced vs untraced serving + fleet "
                "passes...\n");
    const DigestResult dig = runDigestNeutrality();
    std::printf("digest neutrality over %d requests: compile %s, "
                "health %s, fleet %s\n",
                dig.requests, dig.compile_match ? "match" : "MISMATCH",
                dig.health_match ? "match" : "MISMATCH",
                dig.fleet_match ? "match" : "MISMATCH");

    writeJson("BENCH_obs.json", quick, smoke, disabled_iters,
              disabled_ns, enabled_iters, enabled_ns, counter_ns,
              hist_ns, exp, dig);

    const bool ok = exp.valid && dig.compile_match && dig.health_match
                    && dig.fleet_match;
    if (!ok)
        std::printf("FAIL: observability contract violated\n");
    return ok ? 0 : 1;
}
