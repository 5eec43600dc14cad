/**
 * @file
 * perfbench: end-to-end and per-layer benchmark of the simulator.
 *
 *   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             --out-dir=DIR
 *
 * --trace=0 measures the end-to-end metrics with tracing off; --trace=1
 * is the separate traced run that prints the per-layer metrics.  Every
 * metric is printed as "name value unit", then the last line of
 * standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * Exit status: 0 when every run and check passed, 1 when any failed
 * (the result line is still printed), 2 on a usage error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

namespace
{

using perfbench::Options;

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --out-dir=DIR\nworkloads:");
    for (const perfbench::WorkloadDef &w : perfbench::workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

bool
parseUnsigned(const std::string &s, unsigned long long *out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    *out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    int trace = -1;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        unsigned long long n = 0;
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed" && parseUnsigned(val, &n)) {
            opt.seed = n;
            haveSeed = true;
        } else if (key == "--seconds" && parseUnsigned(val, &n) && n > 0 &&
                   n <= 3600) {
            opt.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (key == "--trace" && (val == "0" || val == "1")) {
            trace = val == "1";
        } else if (key == "--out-dir" && !val.empty()) {
            opt.outDir = val;
        } else {
            std::fprintf(stderr, "perfbench: bad argument '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }
    const perfbench::WorkloadDef *w = perfbench::findWorkload(opt.workload);
    if (!w || !haveSeed || !haveSeconds || trace < 0 ||
        opt.outDir.empty()) {
        usage();
        return 2;
    }

    perfbench::Result res;
    try {
        res = trace ? perfbench::runLayers(*w, opt)
                    : perfbench::runEndToEnd(*w, opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (res.attempted == 0) {
        std::fprintf(stderr, "perfbench: nothing was run\n");
        return 1;
    }

    std::printf("workload %s, seed %llu, %s run, %s build\n", w->name,
                static_cast<unsigned long long>(opt.seed),
                trace ? "traced (per-layer)" : "untraced (end-to-end)",
                PERFBENCH_BUILD_TYPE);
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
        std::printf("  WARNING: not a Release build; these numbers are not "
                    "comparable with recorded ones\n");
    for (const std::string &line : res.notes)
        std::printf("  %s\n", line.c_str());
    for (const perfbench::Metric &m : res.metrics) {
        if (!std::isfinite(m.value))
            res.fail(m.name + " is not a finite number");
        std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("  fail_frac %.6g (%llu of %llu runs failed)\n",
                static_cast<double>(res.failed) /
                    static_cast<double>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted));

    std::string json = "{\"correct\": ";
    json += res.failed ? "false" : "true";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const perfbench::Metric &m = res.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
                value + ", \"unit\": " + jsonString(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return res.failed ? 1 : 0;
}
