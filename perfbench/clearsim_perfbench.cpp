/**
 * @file
 * The clearsim benchmark binary: runs one benchmark workload (a
 * preset x kernel x retry-limit grid) in this process and prints
 * its raw measurements as one JSON line on stdout.
 *
 *   clearsim_perfbench --workload NAME --seed N --seconds S
 *                      --trace 0|1 [--setup-only]
 *
 * perfbench/run.py builds and drives this binary and turns the raw
 * measurements into the benchmark's metrics; see perfbench/README.md.
 *
 * Plain mode (--trace 0) calls runOnce() on every grid point, exactly
 * as a sweep worker does, cycling through the grid in a fixed shuffled
 * order until S seconds have passed (at least one full pass). Every
 * point's simulated result is hashed; a point whose hash changes
 * between passes fails the run.
 *
 * Traced mode (--trace 1) runs every point twice, once through
 * runOnce() and once through runOnce()'s steps called one by one
 * (buildRegionPolicy, the System constructor, makeWorkload,
 * Workload::init, System::runToCompletion, Workload::verify,
 * computeEnergy), each timed. Both executions must hash identically.
 * It then runs the grid through runSweepGrid() at one job and at
 * min(4, cores) jobs and requires byte-identical serializeSweepCache()
 * output.
 *
 * The benchmark seed only picks the WorkloadParams seed; the
 * simulator sees nothing but the generated parameters.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clearsim/clearsim.hh"
#include "common/json.hh"
#include "fault/fault_repro.hh"
#include "fault/invariant_checker.hh"

using namespace clearsim;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Set-up time starts here: the first dynamic initializer of the
 * process image, ahead of the simulator's own static objects. Exec
 * and the dynamic loader run before it; no change to the repository
 * moves them, and on a shared host they only add noise.
 */
const Clock::time_point processStart __attribute__((init_priority(101))) =
    Clock::now();

/**
 * One benchmark workload. "Kernels" are clearsim workloads (deque,
 * bayes, ...); the name keeps them apart from benchmark workloads.
 * The reason for each grid is in perfbench/README.md. Seeds per cell
 * bring every grid to 100-150 points, so its latency percentiles do
 * not hinge on a few seed-sensitive points, while a pass stays short
 * enough for about six passes in 30 seconds.
 */
struct GridSpec
{
    const char *name;
    std::vector<std::string> configs;
    std::vector<std::string> kernels;
    std::vector<unsigned> retryLimits;
    unsigned seeds;
};

const std::vector<GridSpec> &
gridSpecs()
{
    static const std::vector<GridSpec> specs = {
        {"htm-abort-storm",
         {"B", "P"},
         {"deque", "queue", "stack", "mwobject", "kmeans-h", "intruder",
          "vacation-h"},
         {1, 4},
         4},
        {"clear-low-abort",
         {"C", "W"},
         {"arrayswap", "bitcoin", "bst", "hashmap", "intruder",
          "kmeans-l", "mwobject", "stack", "ssca2"},
         {1, 4},
         4},
        {"adaptive-mix",
         {"C", "A", "A+faults-forced-abort"},
         {"bayes", "genome", "intruder", "kmeans-h", "labyrinth",
          "ssca2", "vacation-h", "yada"},
         {1, 4},
         2},
    };
    return specs;
}

/** Atomic-region invocations per simulated thread (the CLI default). */
constexpr unsigned kOpsPerThread = 16;

/** Points run untimed before the timed loop. */
constexpr std::size_t kWarmupPoints = 4;

/** Parallel sweep job count: the repository's 4-core target. */
unsigned
parallelJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** FNV-1a over 64-bit words and strings. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        add(s.size());
    }

    void
    add(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        add(bits);
    }

    void
    add(const BoundedHistogram &hist)
    {
        for (std::uint64_t v = 0; v < hist.capacity(); ++v)
            add(hist.count(v));
        add(hist.total());
    }
};

/** The simulated outcome of one point: cycles, HTM and memory counters. */
std::uint64_t
resultHash(const RunResult &r)
{
    Fnv f;
    f.add(std::uint64_t{r.cycles});
    const HtmStats &h = r.htm;
    f.add(h.commits);
    for (std::uint64_t v : h.commitsByMode)
        f.add(v);
    f.add(h.commitsByRetries);
    f.add(h.fallbackCommitRetries);
    f.add(h.aborts);
    for (std::uint64_t v : h.abortsByCategory)
        f.add(v);
    f.add(h.discoveryFailedModeCycles);
    f.add(h.committedUops);
    f.add(h.abortedUops);
    f.add(h.nsClAttempts);
    f.add(h.sClAttempts);
    f.add(h.cachelineLocksAcquired);
    f.add(h.crtInsertions);
    f.add(h.discoveryDisabled);
    f.add(h.fallbackAcquisitions);
    const MemStats &m = r.mem;
    f.add(m.l1Hits);
    f.add(m.l2Hits);
    f.add(m.l3Hits);
    f.add(m.memAccesses);
    f.add(m.invalidations);
    f.add(m.remoteTransfers);
    f.add(r.energy.total());
    return f.h;
}

std::uint64_t
failureHash(const std::string &what)
{
    Fnv f;
    f.add(std::string("failed"));
    f.add(what);
    return f.h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One fully resolved grid point, as the sweep engine builds it. */
struct Point
{
    std::string kernel;
    SystemConfig cfg;
    WorkloadParams params;
};

std::string
reproOf(const Point &p)
{
    ReproSpec spec;
    spec.workload = p.kernel;
    spec.config = p.cfg.name;
    spec.threads = p.params.threads;
    spec.ops = p.params.opsPerThread;
    spec.scale = p.params.scale;
    spec.seed = p.params.seed;
    return makeReproString(spec);
}

double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/** One execution of one point. */
struct Sample
{
    double ns = 0.0;
    bool failed = false;
    std::string error;
    std::uint64_t hash = 0;
    Cycle cycles = 0;
};

Sample
runPlain(const Point &p)
{
    Sample s;
    const Clock::time_point start = Clock::now();
    try {
        const RunResult r = runOnce(p.cfg, p.kernel, p.params);
        s.ns = nsSince(start);
        s.cycles = r.cycles;
        s.hash = resultHash(r);
    } catch (const std::exception &err) {
        s.ns = nsSince(start);
        s.failed = true;
        s.error = err.what();
        s.hash = failureHash(s.error);
    }
    return s;
}

/**
 * Host time and work counts of the traced executions. Counts cover
 * whole passes over the grid only, so they repeat exactly.
 */
struct LayerTotals
{
    std::uint64_t points = 0;
    double captureNs = 0, buildNs = 0, makeNs = 0, initNs = 0,
           runNs = 0, verifyNs = 0, energyNs = 0;
    std::uint64_t captures = 0;
    double adaptivePointNs = 0;

    std::uint64_t events = 0, aborts = 0, commits = 0,
                  committedUops = 0, abortedUops = 0,
                  fallbackCommits = 0, clAttempts = 0, accesses = 0,
                  l1Hits = 0, invalidations = 0, clLocks = 0;

    /** Unarmed points: runToCompletion time and events. */
    double plainRunNs = 0;
    std::uint64_t plainEvents = 0;
    /** Watchdog-armed points (fault plans): the same split. */
    double watchdogRunNs = 0;
    std::uint64_t watchdogEvents = 0;

    /** Host time of the successful traced executions, whole. */
    double tracedNs = 0;

    /** Paired plain/traced executions, for the tracing overhead. */
    double pairedPlainNs = 0, pairedTracedNs = 0;
    std::uint64_t pairs = 0;

    double
    phaseNs() const
    {
        return captureNs + buildNs + makeNs + initNs + runNs +
               verifyNs + energyNs;
    }
};

/** Time one call, adding its host nanoseconds to @p acc. */
template <typename F>
void
timed(double &acc, F &&fn)
{
    const Clock::time_point start = Clock::now();
    fn();
    acc += nsSince(start);
}

/** What the traced steps of one point produced. */
struct TracedRun
{
    RunResult result;
    std::uint64_t events = 0;
    double runNs = 0.0;
    bool watchdog = false;
};

/**
 * runOnce() taken apart: the same calls in the same order
 * (harness/runner.cc and runWorkloadThreads), each phase timed. The
 * System, workload and policy table die on return, inside the
 * caller's timing, as runOnce()'s do.
 */
TracedRun
tracedSteps(const Point &p, LayerTotals &t)
{
    const SystemConfig &cfg = p.cfg;
    TracedRun run;
    RunResult &r = run.result;

    RegionPolicyTable region_policy;
    if (cfg.adapt.enabled) {
        timed(t.captureNs, [&] {
            region_policy = buildRegionPolicy(cfg, p.kernel, p.params);
        });
        ++t.captures;
    }

    std::optional<System> sys;
    timed(t.buildNs, [&] { sys.emplace(cfg, p.params.seed); });
    if (cfg.adapt.enabled)
        sys->setRegionPolicy(&region_policy);

    std::unique_ptr<Workload> workload;
    timed(t.makeNs, [&] { workload = makeWorkload(p.kernel, p.params); });
    InvariantChecker *checker = sys->checker();
    run.watchdog = checker != nullptr;
    if (checker != nullptr)
        checker->setRepro(reproOf(p));

    timed(t.initNs, [&] { workload->init(*sys); });
    {
        const unsigned threads = std::min(p.params.threads, cfg.numCores);
        std::vector<SimTask> tasks;
        tasks.reserve(threads);
        for (unsigned c = 0; c < threads; ++c)
            tasks.push_back(workload->thread(*sys, static_cast<CoreId>(c)));
        for (SimTask &task : tasks)
            task.start();

        const Cycle limit = static_cast<Cycle>(4) * 1000 * 1000 * 1000;
        timed(run.runNs, [&] { r.cycles = sys->runToCompletion(limit); });
        t.runNs += run.runNs;
        run.events = sys->queue().executedEvents();

        unsigned unfinished = 0;
        for (const SimTask &task : tasks)
            unfinished += task.done() ? 0 : 1;
        if (unfinished != 0) {
            if (checker != nullptr) {
                checker->noteDeadlock(r.cycles, unfinished);
                checker->raise();
            }
            throw std::runtime_error("a workload thread never finished");
        }
    }

    std::vector<std::string> issues;
    timed(t.verifyNs, [&] { issues = workload->verify(*sys); });
    if (!issues.empty())
        throw std::runtime_error(p.kernel + " [" + cfg.name +
                                 "]: " + issues.front());

    r.htm = sys->stats();
    r.mem = sys->mem().stats();
    timed(t.energyNs, [&] {
        r.energy = computeEnergy(EnergyParams{}, r.cycles, cfg.numCores,
                                 r.htm, r.mem);
    });
    return run;
}

Sample
runTraced(const Point &p, LayerTotals &t)
{
    Sample s;
    const Clock::time_point start = Clock::now();
    try {
        const TracedRun run = tracedSteps(p, t);
        s.ns = nsSince(start);
        const RunResult &r = run.result;
        s.cycles = r.cycles;
        s.hash = resultHash(r);

        ++t.points;
        t.tracedNs += s.ns;
        t.events += run.events;
        if (run.watchdog) {
            t.watchdogRunNs += run.runNs;
            t.watchdogEvents += run.events;
        } else {
            t.plainRunNs += run.runNs;
            t.plainEvents += run.events;
        }
        t.aborts += r.htm.aborts;
        t.commits += r.htm.commits;
        t.committedUops += r.htm.committedUops;
        t.abortedUops += r.htm.abortedUops;
        t.fallbackCommits += r.htm.commitsByMode[static_cast<unsigned>(
            ExecMode::Fallback)];
        t.clAttempts += r.htm.sClAttempts + r.htm.nsClAttempts;
        t.clLocks += r.htm.cachelineLocksAcquired;
        t.accesses += r.mem.l1Hits + r.mem.l2Hits + r.mem.l3Hits +
                      r.mem.memAccesses;
        t.l1Hits += r.mem.l1Hits;
        t.invalidations += r.mem.invalidations;
        if (p.cfg.adapt.enabled)
            t.adaptivePointNs += s.ns;
    } catch (const std::exception &err) {
        s.ns = nsSince(start);
        s.failed = true;
        s.error = err.what();
        s.hash = failureHash(s.error);
    }
    return s;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool setupOnly = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "clearsim_perfbench: %s\n"
                 "usage: clearsim_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--setup-only]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-only") {
            args.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0')
                usage("--seed needs a non-negative integer");
            have_seed = true;
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(args.seconds > 0) ||
                args.seconds > 3600)
                usage("--seconds needs a number in (0, 3600]");
            have_seconds = true;
        } else if (arg == "--trace") {
            const std::string v = value;
            if (v != "0" && v != "1")
                usage("--trace needs 0 or 1");
            args.trace = v == "1";
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!have_workload || !have_seed || (!have_seconds && !args.setupOnly))
        usage("--workload, --seed and --seconds are required");
    return args;
}

/** Everything the timed loop needs, resolved before it starts. */
struct Bench
{
    SweepOptions sweep;
    std::vector<Point> points; ///< sweep-engine order
    std::vector<std::size_t> order; ///< fixed shuffled pass order
};

Bench
setUp(const Args &args)
{
    const GridSpec *spec = nullptr;
    for (const GridSpec &candidate : gridSpecs())
        if (args.workload == candidate.name)
            spec = &candidate;
    if (spec == nullptr)
        usage(("unknown workload " + args.workload).c_str());

    Bench bench;
    SweepOptions &sweep = bench.sweep;
    sweep.configs = spec->configs;
    sweep.workloads = spec->kernels;
    sweep.retryLimits = spec->retryLimits;
    sweep.seeds = spec->seeds;
    sweep.params.opsPerThread = kOpsPerThread;
    sweep.params.seed = splitmix64(args.seed) | 1;
    // Validates every config spec and kernel name, like a sweep.
    const SweepGrid grid(sweep, {});

    // The sweep engine's point nesting and per-point config/seed
    // derivation, so runSweepGrid() simulates the same points.
    for (const SweepKey &cell : grid.cells()) {
        for (unsigned retries : sweep.retryLimits) {
            SystemConfig cfg = makeConfigByName(cell.second);
            cfg.maxRetries = retries;
            cfg.name = specWithRetryLimit(cell.second, retries);
            for (unsigned s = 0; s < sweep.seeds; ++s) {
                Point p{cell.first, cfg, sweep.params};
                p.params.seed = sweep.params.seed + 1000003ull * s;
                bench.points.push_back(std::move(p));
            }
        }
    }

    // Interleave kernels and presets so any prefix of a pass has the
    // grid's mix; fixed, so every seed runs the same order.
    bench.order.resize(bench.points.size());
    for (std::size_t i = 0; i < bench.order.size(); ++i)
        bench.order[i] = i;
    std::uint64_t state = 0x636c656172ull;
    for (std::size_t i = bench.order.size(); i > 1; --i) {
        state = splitmix64(state);
        std::swap(bench.order[i - 1], bench.order[state % i]);
    }
    return bench;
}

/** Per-point result hashes; any disagreement marks the run wrong. */
class Digest
{
  public:
    explicit Digest(std::size_t points)
        : hashes_(points, 0), cycles_(points, 0), seen_(points, false)
    {
    }

    void
    record(std::size_t index, const Sample &s, const Point &p,
           std::vector<std::string> &errors)
    {
        if (!seen_[index]) {
            seen_[index] = true;
            hashes_[index] = s.hash;
            cycles_[index] = s.cycles;
            if (s.failed) {
                std::fprintf(stderr,
                             "clearsim_perfbench: FAILED %s [%s]: %s\n"
                             "  repro: %s\n",
                             p.kernel.c_str(), p.cfg.name.c_str(),
                             s.error.c_str(), reproOf(p).c_str());
            }
        } else if (hashes_[index] != s.hash && errors.size() < 8) {
            errors.push_back("point " + reproOf(p) +
                             " changed its simulated result");
        }
    }

    bool
    complete() const
    {
        return std::all_of(seen_.begin(), seen_.end(),
                           [](bool b) { return b; });
    }

    /** Hash over every point's hash, in grid order. */
    std::uint64_t
    value() const
    {
        Fnv f;
        for (std::uint64_t h : hashes_)
            f.add(h);
        return f.h;
    }

    /** Simulated cycles of one pass over the grid. */
    std::uint64_t
    gridCycles() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t c : cycles_)
            sum += c;
        return sum;
    }

  private:
    std::vector<std::uint64_t> hashes_;
    std::vector<std::uint64_t> cycles_;
    std::vector<bool> seen_;
};

/** Sweep-engine phase of the traced run. */
struct SweepPhase
{
    double serialSeconds = 0.0;
    double parallelSeconds = 0.0;
    unsigned jobs = 1;
    double csvNs = 0.0;
    bool bytesMatch = false;
    std::uint64_t bytesHash = 0;
};

/** The cells clearsim_cli --sweep writes (failed cells are left out). */
SweepSummary
summarize(const SweepOutcome &outcome)
{
    SweepSummary summary;
    for (const auto &[key, cell] : outcome.cells)
        if (!cell.failed)
            summary[key] = CellSummary::fromCell(cell);
    return summary;
}

SweepPhase
runSweepPhase(const SweepOptions &base)
{
    SweepPhase phase;
    SweepOptions opts = base;
    const std::uint64_t hash = sweepOptionsHash(opts);

    opts.jobs = 1;
    Clock::time_point start = Clock::now();
    const SweepSummary serial =
        summarize(runSweepGrid(opts, {}, SweepObserver{}));
    phase.serialSeconds = nsSince(start) * 1e-9;
    const std::string serial_bytes = serializeSweepCache(hash, serial);

    phase.jobs = parallelJobs();
    opts.jobs = phase.jobs;
    start = Clock::now();
    const SweepSummary parallel =
        summarize(runSweepGrid(opts, {}, SweepObserver{}));
    phase.parallelSeconds = nsSince(start) * 1e-9;
    phase.bytesMatch =
        serial_bytes == serializeSweepCache(hash, parallel);
    Fnv f;
    f.add(serial_bytes);
    phase.bytesHash = f.h;

    // Serialization is microseconds; repeat it and keep the median.
    std::vector<double> samples;
    for (int i = 0; i < 101; ++i) {
        start = Clock::now();
        const std::string bytes = serializeSweepCache(hash, serial);
        samples.push_back(nsSince(start));
        if (bytes != serial_bytes)
            phase.bytesMatch = false;
    }
    std::nth_element(samples.begin(),
                     samples.begin() + samples.size() / 2,
                     samples.end());
    phase.csvNs = samples[samples.size() / 2];
    return phase;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

void
writeLayers(JsonWriter &json, const LayerTotals &t,
            const SweepPhase &sweep)
{
    const double points = static_cast<double>(t.points);
    const double execs = static_cast<double>(t.pairs);
    const double attempts = static_cast<double>(t.commits + t.aborts);
    auto put = [&json](const char *name, double v) {
        json.key(name);
        json.value(v);
    };
    json.key("layers");
    json.beginObject();
    put("sim.events_per_point", ratio(t.events, points));
    put("sim.run_ns_per_event", ratio(t.plainRunNs, t.plainEvents));
    put("htm.aborts_per_point", ratio(t.aborts, points));
    put("htm.commit_ratio", ratio(t.commits, attempts));
    put("htm.aborted_uop_share",
        ratio(t.abortedUops, t.abortedUops + t.committedUops));
    put("htm.fallback_share", ratio(t.fallbackCommits, t.commits));
    put("core.system_build_us", ratio(t.buildNs * 1e-3, execs));
    put("core.cl_attempt_share", ratio(t.clAttempts, attempts));
    put("mem.accesses_per_point", ratio(t.accesses, points));
    put("mem.l1_hit_ratio", ratio(t.l1Hits, t.accesses));
    put("mem.invalidations_per_point", ratio(t.invalidations, points));
    put("mem.cl_locks_per_point", ratio(t.clLocks, points));
    put("workloads.make_us", ratio(t.makeNs * 1e-3, execs));
    put("workloads.init_us", ratio(t.initNs * 1e-3, execs));
    put("workloads.verify_us", ratio(t.verifyNs * 1e-3, execs));
    put("energy.compute_us", ratio(t.energyNs * 1e-3, execs));
    put("analysis.capture_ms", ratio(t.captureNs * 1e-6, t.captures));
    put("analysis.capture_share", ratio(t.captureNs, t.adaptivePointNs));
    put("analysis.captures_per_point", ratio(t.captures, points));
    put("fault.watchdog_ns_per_event",
        ratio(t.watchdogRunNs, t.watchdogEvents));
    put("harness.point_overhead_us",
        ratio((t.tracedNs - t.phaseNs()) * 1e-3, points));
    put("harness.trace_overhead",
        ratio(t.pairedTracedNs, t.pairedPlainNs) - 1.0);
    put("harness.parallel_efficiency",
        ratio(sweep.serialSeconds,
              sweep.parallelSeconds * sweep.jobs));
    put("harness.sweep_csv_us", sweep.csvNs * 1e-3);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Bench bench = setUp(args);
    const double setup_s = nsSince(processStart) * 1e-9;
    if (args.setupOnly) {
        std::printf("{\"setup_s\": %.17g}\n", setup_s);
        return 0;
    }

    const std::size_t n = bench.points.size();
    Digest digest(n);
    std::vector<std::string> errors;
    for (std::size_t k = 0; k < std::min(kWarmupPoints, n); ++k) {
        const Point &p = bench.points[bench.order[k]];
        digest.record(bench.order[k], runPlain(p), p, errors);
    }

    std::vector<double> latency_ms;
    std::uint64_t attempted = 0, failed = 0;
    std::size_t passes = 0;
    LayerTotals layers;
    const Clock::time_point start = Clock::now();
    const auto elapsed = [&start] { return nsSince(start) * 1e-9; };

    if (!args.trace) {
        // Stop at the first point boundary after the deadline, but
        // never before one full pass (the digest needs every point).
        for (std::size_t k = 0; k < n || elapsed() < args.seconds; ++k) {
            const std::size_t index = bench.order[k % n];
            const Point &p = bench.points[index];
            const Sample s = runPlain(p);
            digest.record(index, s, p, errors);
            latency_ms.push_back(s.ns * 1e-6);
            ++attempted;
            failed += s.failed ? 1 : 0;
            passes = (k + 1) / n;
        }
    } else {
        // Whole passes only, so the per-point counts repeat exactly.
        // Alternate which execution of a pair runs first.
        do {
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t index = bench.order[k];
                const Point &p = bench.points[index];
                Sample plain, traced;
                if (k % 2 == 0) {
                    plain = runPlain(p);
                    traced = runTraced(p, layers);
                } else {
                    traced = runTraced(p, layers);
                    plain = runPlain(p);
                }
                digest.record(index, plain, p, errors);
                if (traced.hash != plain.hash && errors.size() < 8)
                    errors.push_back("traced execution of " + reproOf(p) +
                                     " differs from runOnce()");
                latency_ms.push_back(plain.ns * 1e-6);
                ++attempted;
                failed += plain.failed ? 1 : 0;
                layers.pairedPlainNs += plain.ns;
                layers.pairedTracedNs += traced.ns;
                ++layers.pairs;
            }
            ++passes;
        } while (elapsed() < args.seconds);
    }
    const double wall_s = elapsed();

    SweepPhase sweep;
    if (args.trace) {
        sweep = runSweepPhase(bench.sweep);
        if (!sweep.bytesMatch)
            errors.push_back("serializeSweepCache bytes differ between "
                             "jobs=1 and jobs=" +
                             std::to_string(sweep.jobs));
    }
    if (!digest.complete())
        errors.push_back("run ended before one full pass");

    struct rusage usage_self{};
    getrusage(RUSAGE_SELF, &usage_self);

    std::string doc;
    JsonWriter json(doc);
    json.beginObject();
    json.key("workload");
    json.value(args.workload);
    json.key("seed");
    json.value(args.seed);
    json.key("params_seed");
    json.value(bench.sweep.params.seed);
    json.key("grid_points");
    json.value(static_cast<std::uint64_t>(n));
    json.key("passes");
    json.value(static_cast<std::uint64_t>(passes));
    json.key("setup_s");
    json.value(setup_s);
    json.key("wall_s");
    json.value(wall_s);
    json.key("attempted");
    json.value(attempted);
    json.key("failed");
    json.value(failed);
    json.key("grid_cycles");
    json.value(digest.gridCycles());
    json.key("peak_rss_kb");
    json.value(static_cast<std::int64_t>(usage_self.ru_maxrss));
    json.key("sim_digest");
    json.value(hex(digest.value()));
    if (args.trace) {
        json.key("sweep_digest");
        json.value(hex(sweep.bytesHash));
        json.key("sweep_jobs");
        json.value(sweep.jobs);
        writeLayers(json, layers, sweep);
    }
    json.key("errors");
    json.beginArray();
    for (const std::string &e : errors)
        json.value(e);
    json.endArray();
    json.key("latency_ms");
    json.beginArray();
    for (double ms : latency_ms)
        json.value(ms);
    json.endArray();
    json.endObject();
    std::printf("%s\n", doc.c_str());
    return 0;
}
