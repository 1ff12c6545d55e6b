/**
 * @file
 * The perfbench binary: runs one named workload from a seed and
 * prints its result as one JSON line. perfbench/run.py builds this
 * binary, runs it and checks its line against BENCHMARK.json.
 *
 * Usage: sushi_perfbench --workload W --seed N --seconds S
 *                        --trace 0|1 [--trace-out PATH]
 * Exit status: 0 when every correctness gate passed, 1 when one
 * failed, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    RunConfig rc;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload")
            rc.workload = val;
        else if (key == "--seed")
            rc.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            rc.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            rc.trace = val == "1";
        else if (key == "--trace-out")
            rc.trace_path = val;
        else {
            std::fprintf(stderr, "unknown option %s\n", key.c_str());
            return 2;
        }
    }
    if (!(rc.seconds > 0)) {
        std::fprintf(stderr, "--seconds must be positive\n");
        return 2;
    }

    Result (*run)(const RunConfig &) = nullptr;
    if (rc.workload == "offline_digits")
        run = runOfflineDigits;
    else if (rc.workload == "serve_digits")
        run = runServeDigits;
    else if (rc.workload == "pipeline_flagship")
        run = runPipelineFlagship;
    else if (rc.workload == "gate_npe")
        run = runGateNpe;
    else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     rc.workload.c_str());
        return 2;
    }

    Result res;
    try {
        res = run(rc);
    } catch (const std::exception &e) {
        res.gate(false, std::string("exception: ") + e.what());
    }
    if (res.attempted == 0)
        res.gate(false, "no operation was attempted");
    printResult(res);
    return res.correct ? 0 : 1;
}
