/**
 * @file
 * Order statistics, process memory and the result line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hh"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    double sum = 0.0;
    for (double x : v)
        sum += x;
    s.mean = sum / static_cast<double>(v.size());
    s.p50 = quantile(v, 0.5);
    s.p99 = quantile(v, 0.99);
    // v is sorted now: v[n - 11] has exactly ten samples beyond it.
    if (v.size() >= 11) {
        s.p_hi = v[v.size() - 11];
        s.p_hi_q = 1.0 - 10.0 / static_cast<double>(v.size());
    }
    return s;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
Result::detailSummary(const std::string &name, const Summary &s)
{
    detail[name + ".p50"] = s.p50;
    detail[name + ".p99"] = s.p99;
    detail[name + ".p_hi"] = s.p_hi;
    detail[name + ".p_hi_q"] = s.p_hi_q;
    detail[name + ".mean"] = s.mean;
    detail[name + ".n"] = static_cast<double>(s.n);
}

void
Result::gate(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    errors.push_back(what);
    std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", what.c_str());
}

namespace {

/** JSON number: full precision; non-finite values become null. */
void
putNumber(double v)
{
    if (std::isfinite(v))
        std::printf("%.17g", v);
    else
        std::printf("null");
}

void
putString(const std::string &s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            std::putchar(c);
    }
    std::putchar('"');
}

} // namespace

void
printResult(const Result &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    const char *sep = "";
    for (const auto &[name, m] : r.metrics) {
        std::printf("%s", sep);
        putString(name);
        std::printf(": {\"value\": ");
        putNumber(m.value);
        std::printf(", \"unit\": ");
        putString(m.unit);
        std::printf("}");
        sep = ", ";
    }
    std::printf("}, \"detail\": {");
    sep = "";
    for (const auto &[name, v] : r.detail) {
        std::printf("%s", sep);
        putString(name);
        std::printf(": ");
        putNumber(v);
        sep = ", ";
    }
    std::printf("}, \"errors\": [");
    sep = "";
    for (const auto &e : r.errors) {
        std::printf("%s", sep);
        putString(e);
        sep = ", ";
    }
    std::printf("]}\n");
    std::fflush(stdout);
}

} // namespace perfbench
