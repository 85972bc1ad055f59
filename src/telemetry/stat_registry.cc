#include "telemetry/stat_registry.hh"

#include <cmath>

#include "base/logging.hh"

namespace firesim
{

const double *
StatSnapshot::find(const std::string &name) const
{
    for (const auto &kv : values)
        if (kv.first == name)
            return &kv.second;
    return nullptr;
}

double
StatSnapshot::value(const std::string &name) const
{
    const double *v = find(name);
    if (!v)
        panic("snapshot has no stat named '%s'", name.c_str());
    return *v;
}

StatSnapshot
diffSnapshots(const StatSnapshot &before, const StatSnapshot &after)
{
    if (before.values.size() != after.values.size())
        panic("snapshot diff across different registries (%zu vs %zu "
              "stats)",
              before.values.size(), after.values.size());
    StatSnapshot out;
    out.at = after.at - before.at;
    out.values.reserve(after.values.size());
    for (size_t i = 0; i < after.values.size(); ++i) {
        if (before.values[i].first != after.values[i].first)
            panic("snapshot diff name mismatch: '%s' vs '%s'",
                  before.values[i].first.c_str(),
                  after.values[i].first.c_str());
        out.values.emplace_back(after.values[i].first,
                                after.values[i].second -
                                    before.values[i].second);
    }
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += csprintf("\\u%04x", c);
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

void
StatRegistry::validateName(const std::string &name)
{
    if (name.empty())
        panic("empty stat name");
    bool prev_dot = true; // catches a leading dot
    for (char c : name) {
        if (c == '.') {
            if (prev_dot)
                panic("malformed stat name '%s' (empty path component)",
                      name.c_str());
            prev_dot = true;
            continue;
        }
        // Any printable ASCII except space: topology labels can carry
        // quotes/backslashes (the dumps escape them), but whitespace
        // and control characters would corrupt the CSV dump.
        bool ok = c > 0x20 && c < 0x7f;
        if (!ok)
            panic("malformed stat name '%s' (bad character '%c')",
                  name.c_str(), c);
        prev_dot = false;
    }
    if (prev_dot)
        panic("malformed stat name '%s' (trailing dot)", name.c_str());
}

void
StatRegistry::registerProbe(const std::string &name, Probe probe)
{
    validateName(name);
    if (!probe)
        panic("null probe for stat '%s'", name.c_str());
    auto [it, inserted] = probes.emplace(name, std::move(probe));
    (void)it;
    if (!inserted)
        panic("stat name collision: '%s' registered twice", name.c_str());
}

void
StatRegistry::registerCounter(const std::string &name,
                              const Counter &counter)
{
    const Counter *c = &counter;
    registerProbe(name,
                  [c] { return static_cast<double>(c->value()); });
}

void
StatRegistry::registerHistogram(const std::string &name,
                                const Histogram &hist)
{
    const Histogram *h = &hist;
    registerProbe(name + ".count",
                  [h] { return static_cast<double>(h->count()); });
    registerProbe(name + ".mean", [h] { return h->mean(); });
    registerProbe(name + ".p50",
                  [h] { return h->percentileNearestRank(50); });
    registerProbe(name + ".p99",
                  [h] { return h->percentileNearestRank(99); });
}

bool
StatRegistry::has(const std::string &name) const
{
    return probes.count(name) != 0;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(probes.size());
    for (const auto &kv : probes)
        out.push_back(kv.first);
    return out;
}

StatSnapshot
StatRegistry::snapshot(Cycles at) const
{
    StatSnapshot snap;
    snap.at = at;
    snap.values.reserve(probes.size());
    for (const auto &kv : probes)
        snap.values.emplace_back(kv.first, kv.second());
    return snap;
}

std::string
StatRegistry::formatValue(double v)
{
    // Counters dominate the registry; print them as integers so the
    // dumps diff cleanly. 2^53 bounds exact integer representation.
    if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15)
        return csprintf("%lld", static_cast<long long>(v));
    if (!std::isfinite(v))
        return "0"; // JSON has no inf/nan; a poisoned probe reads as 0
    return csprintf("%.17g", v);
}

std::string
StatRegistry::dumpJson(Cycles at) const
{
    std::string out = csprintf("{\"cycle\": %llu, \"stats\": {",
                               (unsigned long long)at);
    bool first = true;
    for (const auto &kv : probes) {
        if (!first)
            out += ", ";
        first = false;
        out += csprintf("\"%s\": %s", jsonEscape(kv.first).c_str(),
                        formatValue(kv.second()).c_str());
    }
    out += "}}";
    return out;
}

bool
isHostTimingStat(std::string_view name)
{
    return name.substr(0, 14) == "cluster.shard." ||
           name.find(".host.") != std::string_view::npos;
}

std::string
stripHostTimingStats(std::string json)
{
    // Drop every `"name": value` entry whose name isHostTimingStat,
    // with the separator that joined it to its neighbour.
    size_t at = 0;
    while ((at = json.find('"', at)) != std::string::npos) {
        size_t close = at + 1;
        while (close < json.size() && json[close] != '"')
            close += json[close] == '\\' ? 2 : 1;
        if (close + 1 >= json.size())
            break;
        std::string_view name(json.data() + at + 1, close - at - 1);
        if (json[close + 1] != ':' || !isHostTimingStat(name)) {
            at = close + 1;
            continue;
        }
        size_t next = json.find(", \"", close);
        if (next != std::string::npos) {
            json.erase(at, next + 2 - at);
        } else {
            // Last entry: drop the separator in front of it instead.
            size_t stop = json.find('}', close);
            if (stop == std::string::npos)
                stop = json.size();
            size_t begin =
                at >= 2 && json.compare(at - 2, 2, ", ") == 0 ? at - 2 : at;
            json.erase(begin, stop - begin);
            at = begin;
        }
    }
    return json;
}

// RFC-4180 quoting for the few names that need it (commas or quotes
// are possible now that stat names accept printable ASCII).
std::string
StatRegistry::csvField(const std::string &s)
{
    if (s.find(',') == std::string::npos &&
        s.find('"') == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace firesim
