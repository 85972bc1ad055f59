/**
 * @file
 * Shared helpers for the experiment-reproduction benchmarks. Each
 * binary regenerates one table or figure from the paper (see
 * DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
 * results).
 */

#ifndef FIRESIM_BENCH_COMMON_HH
#define FIRESIM_BENCH_COMMON_HH

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/table.hh"
#include "base/units.hh"
#include "manager/cluster.hh"
#include "net/remote/peer_link.hh"

namespace firesim::bench
{

/** Print the standard experiment banner. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::printf("================================================================\n");
    std::printf("%s — %s\n", id.c_str(), title.c_str());
    std::printf("================================================================\n");
}

/** Paper-reported reference value, for side-by-side printing. */
inline std::string
paperRef(const std::string &what)
{
    return "paper: " + what;
}

/** True when the environment requests full-scale (slow) runs. */
inline bool
fullScale()
{
    const char *env = std::getenv("FIRESIM_FULL");
    return env && env[0] == '1';
}

/**
 * Parse @p text as a non-negative decimal integer; on anything else —
 * empty, trailing junk, a sign, overflow — print a clear error naming
 * @p what and exit(2). std::atoi silently turned "abc" and "-3" into
 * garbage worker counts; benches now refuse instead.
 */
inline unsigned
parseUnsignedKnob(const char *what, const char *text)
{
    const char *p = text;
    if (p && *p == '+')
        ++p; // strtoul accepts "+3"; keep it, reject bare signs below
    // strtoul also skips leading whitespace, so " 8" used to parse as
    // 8 — an easy way for a stray quote in a launcher script to hide a
    // malformed knob. Demand the payload start with a digit.
    bool digits = p && *p >= '0' && *p <= '9';
    char *end = nullptr;
    errno = 0;
    unsigned long v = digits ? std::strtoul(p, &end, 10) : 0;
    if (!digits || end == p || *end != '\0' || errno == ERANGE ||
        v > UINT_MAX) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got "
                     "'%s'\n",
                     what, text ? text : "");
        std::exit(2);
    }
    return static_cast<unsigned>(v);
}

/** Parse auto|shm|tcp for --shard-transport or exit(2). */
inline TransportKind
parseTransportKnob(const char *what, const char *text)
{
    TransportKind kind;
    if (!text || !parseTransportKind(text, kind)) {
        std::fprintf(stderr,
                     "error: %s expects auto, shm, or tcp, got '%s'\n",
                     what, text ? text : "");
        std::exit(2);
    }
    return kind;
}

/**
 * Every value the shared bench flags set, at its default. Filled by
 * parseCommonFlags() from kKnobTable; read through knobs().
 */
struct Knobs
{
    unsigned parallelHosts = 1;
    unsigned shards = 1;
    unsigned shardRank = 0;
    std::string shardConnectHost = "127.0.0.1";
    unsigned shardBasePort = 0;
    unsigned shardConnectTimeoutMs = 0;
    TransportKind shardTransport = TransportKind::Auto;
    unsigned shardShmRing = 1u << 20;
    unsigned heartbeatEvery = 0;
    unsigned statusInterval = 0;
    std::string metricsFile;
};

/** The process-wide knob values. */
inline Knobs &
knobs()
{
    static Knobs k;
    return k;
}

/**
 * Parse HOST:PORT for --shard-connect into knobs(). The host may not
 * be empty or contain a second colon (no IPv6 literals — use a
 * hostname), and the port goes through parseUnsignedKnob and must fit
 * in 16 bits.
 */
inline void
parseShardConnectKnob(const char *what, const char *text)
{
    std::string s = text ? text : "";
    size_t colon = s.find(':');
    if (colon == std::string::npos || colon == 0 ||
        s.find(':', colon + 1) != std::string::npos) {
        std::fprintf(stderr, "error: %s expects HOST:PORT, got '%s'\n",
                     what, s.c_str());
        std::exit(2);
    }
    unsigned port = parseUnsignedKnob(what, s.c_str() + colon + 1);
    if (port == 0 || port > 65535) {
        std::fprintf(stderr,
                     "error: %s port must be in [1, 65535], got %u\n",
                     what, port);
        std::exit(2);
    }
    knobs().shardConnectHost = s.substr(0, colon);
    knobs().shardBasePort = port;
}

/**
 * One shared bench knob. Every flag takes a value, so `flag` ends in
 * '=' (`--name=VALUE`). `parse` stores the value into knobs() and
 * exits(2) on a malformed one, naming @p what (the flag or the env
 * var). `apply` copies it into a ClusterConfig.
 */
struct Knob
{
    const char *flag;
    const char *env;
    void (*parse)(const char *what, const char *text);
    void (*apply)(ClusterConfig &cc, const Knobs &k);
    const char *doc;
};

/** `parse` column: knobs().*Field = Parse(what, text). */
template <auto Field, auto Parse>
void
parseInto(const char *what, const char *text)
{
    knobs().*Field = Parse(what, text);
}

/** `parse` column for free-form text (paths): any value is legal. */
template <auto Field>
void
textInto(const char *, const char *text)
{
    knobs().*Field = text;
}

/**
 * The flags every experiment binary understands. Flags win over the
 * environment. Malformed values are an error, not a silent fallback.
 * Results are bit-identical for every combination — only wall-clock
 * changes.
 */
inline constexpr Knob kKnobTable[] = {
    {"--parallel-hosts=", "FIRESIM_PARALLEL_HOSTS",
     parseInto<&Knobs::parallelHosts, parseUnsignedKnob>,
     [](ClusterConfig &cc, const Knobs &k) {
         cc.parallelHosts = k.parallelHosts;
     },
     "fabric worker threads (0 and 1 = single-threaded)"},
    {"--shards=", "FIRESIM_SHARDS",
     parseInto<&Knobs::shards, parseUnsignedKnob>,
     [](ClusterConfig &cc, const Knobs &k) { cc.shard.shards = k.shards; },
     "split the cluster across N OS processes (default 1)"},
    {"--shard-rank=", "FIRESIM_SHARD_RANK",
     parseInto<&Knobs::shardRank, parseUnsignedKnob>,
     [](ClusterConfig &cc, const Knobs &k) { cc.shard.rank = k.shardRank; },
     "this process's shard, 0 <= K < N"},
    {"--shard-connect=", "FIRESIM_SHARD_CONNECT", parseShardConnectKnob,
     [](ClusterConfig &cc, const Knobs &k) {
         cc.shard.connectHost = k.shardConnectHost;
         cc.shard.basePort = static_cast<uint16_t>(k.shardBasePort);
     },
     "HOST:PORT rendezvous address; rank r listens on PORT + r"},
    {"--shard-connect-timeout=", "FIRESIM_SHARD_CONNECT_TIMEOUT",
     parseInto<&Knobs::shardConnectTimeoutMs, parseUnsignedKnob>,
     [](ClusterConfig &cc, const Knobs &k) {
         cc.shard.connectTimeoutMs =
             static_cast<int>(k.shardConnectTimeoutMs);
     },
     "ms cap on the whole rendezvous connect loop; 0 = attempt-bounded"},
    {"--shard-transport=", "FIRESIM_SHARD_TRANSPORT",
     parseInto<&Knobs::shardTransport, parseTransportKnob>,
     [](ClusterConfig &cc, const Knobs &k) {
         cc.shard.transport = k.shardTransport;
     },
     "cross-shard fabric: auto | shm | tcp (default auto: shm for "
     "same-host peers, tcp across hosts)"},
    {"--shard-shm-ring=", "FIRESIM_SHARD_SHM_RING",
     parseInto<&Knobs::shardShmRing, parseUnsignedKnob>,
     [](ClusterConfig &cc, const Knobs &k) {
         cc.shard.shmRingBytes = k.shardShmRing;
     },
     "per-direction shm ring bytes, rounded up to a power of two"},
    {"--heartbeat-every=", "FIRESIM_HEARTBEAT_EVERY",
     parseInto<&Knobs::heartbeatEvery, parseUnsignedKnob>,
     [](ClusterConfig &cc, const Knobs &k) {
         cc.monitor.heartbeatEvery = k.heartbeatEvery;
     },
     "emit a monitoring heartbeat every N fabric rounds; 0 = off"},
    {"--status-interval=", "FIRESIM_STATUS_INTERVAL",
     parseInto<&Knobs::statusInterval, parseUnsignedKnob>,
     [](ClusterConfig &cc, const Knobs &k) {
         cc.monitor.statusIntervalSec = k.statusInterval;
     },
     "human-readable status line every SEC wall seconds; 0 = off"},
    {"--metrics-file=", "FIRESIM_METRICS_FILE",
     textInto<&Knobs::metricsFile>,
     [](ClusterConfig &cc, const Knobs &k) {
         cc.monitor.metricsPath = k.metricsFile;
     },
     "Prometheus text file, atomically refreshed on every heartbeat"},
};

/** Exit(2) with @p msg unless @p ok (a parseCommonFlags cross-check). */
inline void
requireKnob(bool ok, const std::string &msg)
{
    if (ok)
        return;
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    std::exit(2);
}

/**
 * Exit(2) when @p bench is asked to run sharded. Such a bench reads
 * every node of its clusters, and a shard rank holds only its own.
 * Call it before building any Cluster, so a refused rank never opens
 * a rendezvous or a shm segment.
 */
inline void
requireSingleShard(const char *bench)
{
    requireKnob(knobs().shards <= 1,
                csprintf("%s reads every node and cannot run sharded "
                         "(--shards=%u); run it with --shards=1",
                         bench, knobs().shards));
}

/**
 * Parse the flags every experiment binary understands (kKnobTable):
 * first every FIRESIM_* variable, then argv, so flags win over the
 * environment. An argument that matches no knob exits(2) naming it, so
 * a typo or a retired flag never runs the defaults silently. Then
 * cross-check the values.
 */
inline void
parseCommonFlags(int argc, char **argv)
{
    for (const Knob &knob : kKnobTable)
        if (const char *env = std::getenv(knob.env))
            knob.parse(knob.env, env);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const Knob *match = nullptr;
        for (const Knob &knob : kKnobTable)
            if (arg.rfind(knob.flag, 0) == 0)
                match = &knob;
        requireKnob(match != nullptr,
                    csprintf("unknown flag '%s'", arg.c_str()));
        std::string name = match->flag;
        name.pop_back();
        match->parse(name.c_str(), arg.c_str() + name.size() + 1);
    }

    Knobs &k = knobs();
    if (k.parallelHosts == 0)
        k.parallelHosts = 1;
    requireKnob(k.shards != 0, "--shards must be at least 1");
    requireKnob(k.shardRank < k.shards,
                csprintf("--shard-rank=%u out of range for --shards=%u "
                         "(need 0 <= rank < shards)",
                         k.shardRank, k.shards));
    requireKnob(k.shards <= 1 || k.shardBasePort != 0,
                csprintf("--shards=%u needs --shard-connect=HOST:PORT for "
                         "the rendezvous",
                         k.shards));
    requireKnob(k.shardShmRing != 0, "--shard-shm-ring must be at least 1");
    if (k.parallelHosts > 1)
        std::printf("[bench] parallel hosts: %u fabric worker threads\n",
                    k.parallelHosts);
    if (k.shards > 1)
        std::printf("[bench] distributed: shard %u of %u, rendezvous "
                    "%s:%u, transport %s\n",
                    k.shardRank, k.shards, k.shardConnectHost.c_str(),
                    k.shardBasePort, transportKindName(k.shardTransport));
}

/** Apply every parsed knob to @p cc. Every bench that builds a Cluster
 *  funnels through here, so new knobs reach all of them at once. */
inline void
applyClusterFlags(ClusterConfig &cc)
{
    for (const Knob &knob : kKnobTable)
        knob.apply(cc, knobs());
}

/** Wall-clock stopwatch for simulation-rate measurements. */
class Stopwatch
{
  public:
    Stopwatch() : start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

} // namespace firesim::bench

#endif // FIRESIM_BENCH_COMMON_HH
