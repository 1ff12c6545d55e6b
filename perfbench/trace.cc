/**
 * @file
 * The span recorder: in-memory spans, self time by layer, and Chrome
 * trace-event export (loads in Perfetto and chrome://tracing).
 */

#include <algorithm>
#include <cstdio>

#include "bench.hh"

namespace perfbench {

std::int64_t
Tracer::begin(const char *layer, const std::string &name,
              std::int64_t id)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = open_.empty() ? -1 : open_.back();
    s.id = id;
    s.start_ns = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(std::int64_t index)
{
    if (index < 0)
        return;
    spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
    const auto it = std::find(open_.rbegin(), open_.rend(), index);
    if (it != open_.rend())
        open_.erase(std::next(it).base());
}

std::int64_t
Tracer::add(const char *layer, const std::string &name,
            std::int64_t start_ns, std::int64_t end_ns,
            std::int64_t parent, std::int64_t id, int tid)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.start_ns = start_ns;
    s.end_ns = std::max(start_ns, end_ns);
    s.parent = parent;
    s.id = id;
    s.tid = tid;
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

std::map<std::string, double>
Tracer::selfNsByLayer() const
{
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(i);

    std::map<std::string, double> self;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &p = spans_[i];
        // Union of the children's intervals, clipped to the parent.
        iv.clear();
        for (std::size_t c : children[i])
            iv.emplace_back(std::max(spans_[c].start_ns, p.start_ns),
                            std::min(spans_[c].end_ns, p.end_ns));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, cur_s = 0, cur_e = -1;
        for (const auto &[s, e] : iv) {
            if (e <= s)
                continue;
            if (s > cur_e) {
                covered += std::max<std::int64_t>(0, cur_e - cur_s);
                cur_s = s;
                cur_e = e;
            } else {
                cur_e = std::max(cur_e, e);
            }
        }
        covered += std::max<std::int64_t>(0, cur_e - cur_s);
        self[p.layer] +=
            static_cast<double>(p.end_ns - p.start_ns - covered);
    }
    return self;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::int64_t origin =
        spans_.empty() ? 0
                       : std::min_element(spans_.begin(), spans_.end(),
                                          [](const Span &a,
                                             const Span &b) {
                                              return a.start_ns <
                                                     b.start_ns;
                                          })
                             ->start_ns;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"span\": %zu, \"parent\": %lld, \"id\": %lld}}",
                     i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                     s.tid,
                     static_cast<double>(s.start_ns - origin) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     i, static_cast<long long>(s.parent),
                     static_cast<long long>(s.id));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
