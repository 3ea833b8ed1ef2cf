// Serve benchmark: the TuningService stack end to end and layer by layer.
//
//   serve_bench --workload hot|fresh|tiered --seed N --seconds S --trace 0|1
//               [--out-dir DIR]
//   serve_bench --self-test       generator determinism and fresh-kernel
//                                 uniqueness checks
//   serve_bench --list-metrics    the metrics the command prints, as JSON
//
// One run deploys the library's default ServeOptions in-process (1 shard,
// 4 workers, max_batch 32, telemetry on) and drives it from this single
// generator thread:
//
//   setup    train + registry add + service ctor, 15 times (median)
//   warm     every hot catalog pair once / 256 fresh kernels, untimed
//   5 rounds of
//     lo, hi open-loop Poisson arrivals at the workload's two fixed rates,
//            20% of the round each; latency runs from each request's due
//            time to its ticket's resolution, so generator stalls count
//     sat    a closed window of 64 outstanding requests, a fixed number of
//            them sized to last 60% of the round at a nominal rate, beside
//            a 500 req/s open-loop probe stream
//
// A fixed CPU reference timed before set-up and before every phase
// calibrates the bounded time metrics to a nominal host speed (README.md,
// "Host-speed calibration"); the measured values are reported as `.raw`.
//
// After timing, every served config is compared against a direct
// `MgaTuner::tune` of the same (kernel, input); a mismatch makes the command
// exit 1. `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the
// run with request spans, adds an untimed replay of the layers (IR key,
// feature extraction, profiling, compiled forward) over the same stream,
// writes a Chrome trace to DIR and prints the per-layer metrics. The last
// line of stdout is one JSON object {correct, attempted, failed, metrics}.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dataset/dataset.hpp"
#include "hwsim/cpu_model.hpp"
#include "runtime/compiled.hpp"
#include "serve/feature_cache.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"
#include "workload.hpp"

namespace {

using servebench::Item;
using servebench::Phase;
using servebench::Span;
using servebench::SpanLog;
using servebench::Stream;
using servebench::Workload;
using Clock = std::chrono::steady_clock;

// ---- declared metrics --------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;  // printed by --trace 1; end-to-end ones by --trace 0
};

// Open-loop latency at the lo/hi rates and the probe's p99 are per-layer
// (unbounded) metrics: on a shared 4-vCPU host they follow the hypervisor's
// steal share, about 4x between a quiet and a busy neighbour.
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", false},
    {"rss_peak_mb", "MB", false},
    {"sat_rps", "1/s", false},
    {"int_p50_ms", "ms", false},
    {"ok_ratio", "ratio", false},
    {"speedup_gmean", "x", false},
    {"setup_s.raw", "s", true},
    {"sat_rps.raw", "1/s", true},
    {"int_p50_ms.raw", "ms", true},
    {"bench.host_ref_ms", "ms", true},
    {"p50_ms.lo", "ms", true},
    {"p99_ms.lo", "ms", true},
    {"p50_ms.hi", "ms", true},
    {"p99_ms.hi", "ms", true},
    {"int_p99_ms", "ms", true},
    {"fail_ratio", "ratio", true},
    {"serve.submit_us.p50", "us", true},
    {"serve.submit_us.p99", "us", true},
    {"shard.queue_wait_us.p50", "us", true},
    {"shard.queue_wait_us.p99", "us", true},
    {"shard.int_queue_wait_us.p99", "us", true},
    {"shard.compute_us.p50", "us", true},
    {"shard.compute_us.p99", "us", true},
    {"shard.batches", "count", true},
    {"shard.mean_batch", "rows", true},
    {"shard.rejected", "count", true},
    {"shard.expired", "count", true},
    {"cache.hit_ratio", "ratio", true},
    {"cache.misses", "count", true},
    {"cache.evictions", "count", true},
    {"cache.profiles_run", "count", true},
    {"stage.extract_busy_cores", "cores", true},
    {"stage.forward_busy_cores", "cores", true},
    {"stage.publish_busy_cores", "cores", true},
    {"ir.key_us", "us", true},
    {"core.extract_us", "us", true},
    {"hwsim.profile_us", "us", true},
    {"runtime.forward_fixed_us", "us", true},
    {"runtime.forward_row_us", "us", true},
    {"core.train_s", "s", true},
    {"serve.registry_add_ms", "ms", true},
    {"serve.service_ctor_ms", "ms", true},
    {"obs.scrape_ms", "ms", true},
    {"bench.gen_late_us.p50", "us", true},
    {"bench.gen_late_us.p99", "us", true},
    {"bench.steal_share", "ratio", true},
    {"bench.tracing_overhead", "ratio", true},
};

/// A metric value and the number of samples it summarizes (0 = not a
/// sample statistic).
struct Value {
  double value = 0.0;
  std::size_t samples = 0;
};

using Metrics = std::map<std::string, Value>;

// ---- small statistics helpers ------------------------------------------------

/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

[[nodiscard]] double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- host facts --------------------------------------------------------------

struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

/// Aggregate jiffies from /proc/stat (nullopt where it is unavailable).
[[nodiscard]] std::optional<CpuTimes> read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return std::nullopt;
  CpuTimes times;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return std::nullopt;
    times.total += v;
    if (field == 7) times.steal = v;
  }
  return times;
}

/// Share of CPU time the hypervisor stole between two samples (0 when
/// /proc/stat is unavailable).
[[nodiscard]] double steal_share(const std::optional<CpuTimes>& before,
                                 const std::optional<CpuTimes>& after) {
  if (!before || !after || after->total <= before->total) return 0.0;
  return static_cast<double>(after->steal - before->steal) /
         static_cast<double>(after->total - before->total);
}

[[nodiscard]] std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- host-speed reference ----------------------------------------------------

/// Wall seconds the host takes for a fixed amount of CPU work on every
/// hardware thread at once: small dense float products and byte hashing
/// over fresh heap buffers, the kind of work the serve path does. The work is
/// the benchmark's own code, so no change to the program moves it, while a
/// change of host speed (a busy neighbour on sibling hyperthreads, another
/// clock) moves it and the program alike.
[[nodiscard]] double reference_seconds() {
  constexpr std::size_t kN = 32;
  constexpr int kIterations = 4000;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> sinks(threads, 0.0);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&sinks, t] {
        std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN, 0.0f);
        for (std::size_t i = 0; i < a.size(); ++i) {
          a[i] = static_cast<float>((i * 7 + t) % 13) / 13.0f;
          b[i] = static_cast<float>((i * 5 + 3) % 11) / 11.0f;
        }
        std::uint64_t hash = 1469598103934665603ULL;
        for (int it = 0; it < kIterations; ++it) {
          for (std::size_t i = 0; i < kN; ++i)
            for (std::size_t k = 0; k < kN; ++k) {
              const float aik = a[i * kN + k];
              for (std::size_t j = 0; j < kN; ++j) c[i * kN + j] += aik * b[k * kN + j];
            }
          const std::vector<unsigned char> bytes(256 + it % 64, static_cast<unsigned char>(it));
          for (const unsigned char byte : bytes) hash = (hash ^ byte) * 1099511628211ULL;
          a[static_cast<std::size_t>(it) % a.size()] = static_cast<float>(hash & 0xff) / 255.0f;
        }
        sinks[t] = static_cast<double>(c[0]) + static_cast<double>(hash & 0xff);
      });
  }  // the jthreads join here
  const double seconds = seconds_between(start, Clock::now());
  for (const double sink : sinks)
    if (!std::isfinite(sink)) std::abort();  // keeps the work observable
  return seconds;
}

// ---- run shape ---------------------------------------------------------------

/// Each run is kRounds rounds of (lo, hi, sat), so slow drift of the host
/// affects every phase alike. sat_rps is the median over the rounds;
/// latency percentiles pool them.
constexpr std::uint32_t kRounds = 5;
constexpr double kOpenShare = 0.2;  // of a round, for each of lo and hi
constexpr double kSatShare = 0.6;
constexpr std::size_t kSetupRepeats = 15;
/// Nominal time of the host reference: the host speed the calibrated metrics
/// are quoted at. A round number near the reference's time on the host of
/// the first numbers in README.md.
constexpr double kReferenceNominal_s = 0.020;

// ---- the served tuner --------------------------------------------------------

constexpr const char* kMachine = "comet-lake";

[[nodiscard]] mga::core::MgaTunerOptions tuner_options() {
  mga::core::MgaTunerOptions options;
  auto kernels = mga::corpus::openmp_suite();
  kernels.resize(servebench::kTrainingKernels);
  options.training_kernels = std::move(kernels);
  const std::vector<double> inputs = mga::dataset::input_sizes_30();
  for (std::size_t i = 0; i < inputs.size(); i += 6) options.input_sizes.push_back(inputs[i]);
  options.training.epochs = 12;
  return options;
}

struct Deployment {
  std::shared_ptr<mga::serve::ModelRegistry> registry;
  std::unique_ptr<mga::serve::TuningService> service;
};

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> train_s;
  std::vector<double> registry_add_ms;
  std::vector<double> service_ctor_ms;
};

/// Build the deployment `repeats` times and keep the last; every build is
/// timed (train, registry add with plan compile, service construction).
[[nodiscard]] Deployment deploy(std::size_t repeats, SetupTimes& times) {
  Deployment deployment;
  for (std::size_t r = 0; r < repeats; ++r) {
    deployment = {};
    const Clock::time_point t0 = Clock::now();
    mga::core::MgaTuner tuner = mga::core::MgaTuner::train(tuner_options());
    const Clock::time_point t1 = Clock::now();
    auto registry = std::make_shared<mga::serve::ModelRegistry>();
    registry->add(kMachine, std::move(tuner));
    const Clock::time_point t2 = Clock::now();
    auto service = std::make_unique<mga::serve::TuningService>(registry, mga::serve::ServeOptions{});
    const Clock::time_point t3 = Clock::now();
    times.total_s.push_back(seconds_between(t0, t3));
    times.train_s.push_back(seconds_between(t0, t1));
    times.registry_add_ms.push_back(seconds_between(t1, t2) * 1e3);
    times.service_ctor_ms.push_back(seconds_between(t2, t3) * 1e3);
    deployment.registry = std::move(registry);
    deployment.service = std::move(service);
  }
  return deployment;
}

// ---- load generation ---------------------------------------------------------

/// One request the benchmark sent: (phase, index) regenerate its Item from
/// the stream, so the record stays small and the harness's memory does not
/// grow with the program's throughput. Times are ns from the run epoch; the
/// outcome fields are written once by the resolving thread.
struct Record {
  Phase phase = Phase::kWarm;
  std::uint32_t round = 0;
  std::uint64_t index = 0;
  std::uint64_t pair = 0;
  std::int64_t due_ns = 0;
  std::int64_t submit_begin_ns = 0;
  std::int64_t submit_end_ns = 0;
  std::int64_t resolved_ns = 0;
  bool ok = false;
  mga::hwsim::OmpConfig config;
  double queue_wait_us = 0.0;
  double compute_us = 0.0;
  std::size_t batch_size = 0;
};

struct PhaseRun {
  std::size_t begin = 0;  // record range [begin, end)
  std::size_t end = 0;
  double wall_s = 0.0;  // phase start to last resolution
  mga::serve::ServiceStatsSnapshot before;
  mga::serve::ServiceStatsSnapshot after;
  double sat_rps = 0.0;  // window completions per second (sat only)
};

class Generator {
 public:
  Generator(mga::serve::TuningService& service, const Stream& stream, Clock::time_point epoch)
      : service_(service), stream_(stream), epoch_(epoch) {}

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  [[nodiscard]] const std::deque<Record>& records() const noexcept { return records_; }

  /// Untimed warm-up: every catalog pair once (hot, tiered), or enough fresh
  /// kernels to fill the feature cache (fresh).
  void warm() {
    const PhaseRun run = start();
    for (std::size_t i = 0; i < stream_.warm_count(); ++i) {
      Record& record = add(Phase::kWarm, i);
      record.due_ns = now_ns();
      send(record, stream_.at(Phase::kWarm, i));
    }
    (void)finish(run);
  }

  /// Open-loop Poisson arrivals at `rate` for `seconds`.
  PhaseRun open_loop(Phase phase, std::uint32_t round, double rate, double seconds) {
    const std::vector<std::int64_t> arrivals = stream_.arrivals(phase, round, rate, seconds);
    // Requests are built before the clock starts so the generator only
    // sleeps and submits while it is timing.
    const std::uint64_t first = take(phase, arrivals.size());
    std::vector<Item> items;
    items.reserve(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) items.push_back(stream_.at(phase, first + i));
    round_ = round;
    PhaseRun run = start();
    const Clock::time_point phase_start = Clock::now();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Clock::time_point due = phase_start + std::chrono::nanoseconds(arrivals[i]);
      std::this_thread::sleep_until(due);
      Record& record = add(phase, first + i);
      record.due_ns = ns(due);
      send(record, items[i]);
    }
    return finish(std::move(run), phase_start);
  }

  /// Closed window of kWindow outstanding requests beside an open-loop probe
  /// stream. The window sends a fixed number of requests, sized to last
  /// `nominal_s` at the workload's nominal window rate, so a run's work,
  /// memory and check cost do not depend on how fast the host is.
  /// Completions count from a ramp of 10% of `nominal_s` until the last
  /// window request is submitted; the probes due in that span are sent.
  PhaseRun saturate(std::uint32_t round, double nominal_s) {
    const auto requests = static_cast<std::size_t>(
        servebench::load_for(stream_.workload()).window_rps * nominal_s);
    const double ramp_s = std::min(0.5, 0.1 * nominal_s);
    // A probe schedule long enough for a host at a third of nominal speed.
    const std::vector<std::int64_t> probes =
        stream_.arrivals(Phase::kProbe, round, servebench::kProbeRps, 3.0 * nominal_s);
    const std::uint64_t first_probe = take(Phase::kProbe, probes.size());

    round_ = round;
    PhaseRun run = start();
    const Clock::time_point phase_start = Clock::now();
    const auto due = [&](std::size_t probe) {
      return phase_start + std::chrono::nanoseconds(probes[probe]);
    };
    std::size_t submitted = 0;
    const auto send_window = [&] {
      const std::uint64_t index = take(Phase::kWindow, 1);
      Record& record = add(Phase::kWindow, index);
      record.due_ns = now_ns();
      send(record, stream_.at(Phase::kWindow, index));
      ++submitted;
    };
    while (submitted < std::min(requests, servebench::kWindow)) send_window();

    std::size_t next_probe = 0;
    Clock::time_point end;
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (submitted >= requests) {
        end = now;
        break;
      }
      for (; next_probe < probes.size() && due(next_probe) <= now; ++next_probe) {
        Record& record = add(Phase::kProbe, first_probe + next_probe);
        record.due_ns = ns(due(next_probe));
        send(record, stream_.at(Phase::kProbe, first_probe + next_probe));
      }
      const Clock::time_point wake = next_probe < probes.size()
                                         ? due(next_probe)
                                         : now + std::chrono::milliseconds(100);
      std::size_t done = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_until(lock, wake, [&] { return window_done_ > 0; });
        done = std::exchange(window_done_, 0);
      }
      for (; done > 0 && submitted < requests; --done) send_window();
    }
    run = finish(std::move(run), phase_start);

    const Clock::time_point count_from =
        std::min(end, phase_start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(ramp_s)));
    std::size_t counted = 0;
    for (std::size_t i = run.begin; i < run.end; ++i) {
      const Record& record = records_[i];
      if (record.phase == Phase::kWindow && record.ok && record.resolved_ns >= ns(count_from) &&
          record.resolved_ns < ns(end))
        ++counted;
    }
    const double span_s = seconds_between(count_from, end);
    run.sat_rps = span_s > 0.0 ? static_cast<double>(counted) / span_s : 0.0;
    return run;
  }

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  [[nodiscard]] std::int64_t now_ns() const { return ns(Clock::now()); }

  /// Reserve the next `n` indices of `phase`'s stream (each phase numbers
  /// its requests across rounds, so no two requests of a run share one).
  std::uint64_t take(Phase phase, std::size_t n) {
    std::uint64_t& next = next_index_[static_cast<std::size_t>(phase)];
    return std::exchange(next, next + n);
  }

  PhaseRun start() {
    PhaseRun run;
    run.begin = records_.size();
    run.before = service_.stats_snapshot();
    return run;
  }

  PhaseRun finish(PhaseRun run, std::optional<Clock::time_point> phase_start = std::nullopt) {
    const Clock::time_point first = phase_start.value_or(Clock::now());
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return resolved_ == sent_; });
      window_done_ = 0;
    }
    run.end = records_.size();
    std::int64_t last = ns(first);
    for (std::size_t i = run.begin; i < run.end; ++i) last = std::max(last, records_[i].resolved_ns);
    run.wall_s = static_cast<double>(last - ns(first)) / 1e9;
    run.after = service_.stats_snapshot();
    return run;
  }

  Record& add(Phase phase, std::uint64_t index) {
    Record& record = records_.emplace_back();  // deque: existing records never move
    record.phase = phase;
    record.round = round_;
    record.index = index;
    return record;
  }

  void send(Record& record, const Item& item) {
    mga::serve::TuneRequest request;
    request.kernel = item.kernel;
    request.input_bytes = item.input_bytes;
    request.options.priority = item.priority;
    request.options.admission = item.admission;
    request.options.deadline = item.deadline;
    record.pair = item.pair;
    record.submit_begin_ns = now_ns();
    mga::serve::TuneTicket ticket = service_.submit(std::move(request));
    record.submit_end_ns = now_ns();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++sent_;
    }
    Record* slot = &record;
    ticket.on_resolved([this, slot](const mga::serve::TuneOutcome& outcome) {
      slot->resolved_ns = now_ns();
      slot->ok = outcome.ok();
      if (outcome.ok()) {
        const mga::serve::TuneResult& result = outcome.value();
        slot->config = result.config;
        slot->queue_wait_us = result.queue_wait_us;
        slot->compute_us = result.compute_us;
        slot->batch_size = result.batch_size;
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      ++resolved_;
      if (slot->phase == Phase::kWindow) ++window_done_;
      cv_.notify_one();
    });
  }

  mga::serve::TuningService& service_;
  const Stream& stream_;
  const Clock::time_point epoch_;
  std::deque<Record> records_;  // appended by the generator thread only
  std::array<std::uint64_t, 5> next_index_{};  // per Phase
  std::uint32_t round_ = 0;  // round stamped on new records
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t sent_ = 0;         // guarded by mutex_
  std::size_t resolved_ = 0;     // guarded by mutex_
  std::size_t window_done_ = 0;  // guarded by mutex_: window completions to replace
};

// ---- correctness -------------------------------------------------------------

struct Verdict {
  std::size_t sent = 0;
  std::size_t errors = 0;      // rejected, expired, failed outcomes
  std::size_t mismatches = 0;  // served config != direct tune
  std::size_t duplicate_ir = 0;  // fresh: repeated kernel IR hashes
  double speedup_gmean = 0.0;
  std::size_t speedup_pairs = 0;
};

/// Compare every served config with a direct `MgaTuner::tune` of its
/// (kernel, input), and score the open-loop pairs' served configs on the
/// simulator against the default config.
[[nodiscard]] Verdict verify(const std::deque<Record>& records, const Stream& stream,
                             const mga::core::MgaTuner& tuner) {
  const bool fresh = stream.workload() == Workload::kFresh;
  struct Pair {
    const Record* first = nullptr;  // first record of this pair
    const Record* served = nullptr; // first successful open-loop record
    mga::hwsim::OmpConfig direct;
    double log_speedup = 0.0;
    std::uint64_t ir_hash = 0;
  };
  std::map<std::uint64_t, Pair> by_key;  // ordered: deterministic gmean
  for (const Record& record : records) {
    Pair& pair = by_key[record.pair];
    if (pair.first == nullptr) pair.first = &record;
    const bool open_loop = record.phase == Phase::kLo || record.phase == Phase::kHi;
    if (open_loop && record.ok && pair.served == nullptr) pair.served = &record;
  }
  std::vector<Pair*> pairs;
  for (auto& [key, pair] : by_key) pairs.push_back(&pair);

  const mga::hwsim::OmpConfig baseline = mga::hwsim::default_config(tuner.machine());
  mga::util::parallel_for(pairs.size(), [&](std::size_t i) {
    Pair& pair = *pairs[i];
    const Item item = stream.at(pair.first->phase, pair.first->index);
    pair.direct = tuner.tune(item.kernel, item.input_bytes);
    if (fresh) pair.ir_hash = mga::serve::kernel_ir_hash(item.kernel);
    if (pair.served != nullptr) {
      const mga::hwsim::KernelWorkload workload = mga::corpus::generate(item.kernel).workload;
      const double base =
          mga::hwsim::cpu_execute(workload, tuner.machine(), item.input_bytes, baseline).seconds;
      const double tuned =
          mga::hwsim::cpu_execute(workload, tuner.machine(), item.input_bytes, pair.served->config)
              .seconds;
      pair.log_speedup = std::log(base / tuned);
    }
  });

  Verdict verdict;
  verdict.sent = records.size();
  for (const Record& record : records) {
    if (!record.ok)
      ++verdict.errors;
    else if (!(record.config == by_key[record.pair].direct))
      ++verdict.mismatches;
  }
  double log_sum = 0.0;
  std::set<std::uint64_t> hashes;
  for (const Pair* pair : pairs) {
    if (pair->served != nullptr) {
      log_sum += pair->log_speedup;
      ++verdict.speedup_pairs;
    }
    if (fresh && !hashes.insert(pair->ir_hash).second) ++verdict.duplicate_ir;
  }
  if (verdict.speedup_pairs > 0)
    verdict.speedup_gmean = std::exp(log_sum / static_cast<double>(verdict.speedup_pairs));
  return verdict;
}

// ---- layer replay (traced run) -----------------------------------------------

struct Replay {
  std::vector<double> key_us;
  std::vector<double> extract_us;
  std::vector<double> profile_us;
  double forward_fixed_us = 0.0;
  double forward_row_us = 0.0;
  std::size_t forward_samples = 0;
};

/// Time the layers one at a time, single-threaded after the service shut
/// down, over the first requests of the low-rate stream; the compiled forward is timed
/// at the batch sizes the saturating window formed plus a 1..32 ladder, and
/// fitted as fixed + per-row cost.
[[nodiscard]] Replay replay_layers(const std::deque<Record>& records, const Stream& stream,
                                   const std::vector<PhaseRun>& lo,
                                   const std::vector<PhaseRun>& sat,
                                   const mga::core::MgaTuner& tuner,
                                   const mga::runtime::CompiledForward& plan, SpanLog& log,
                                   Clock::time_point epoch) {
  constexpr std::size_t kReplayRequests = 600;
  constexpr std::size_t kMaxFeatures = 32;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
  };
  const auto span = [&](const char* name, std::uint64_t id, Clock::time_point a, Clock::time_point b) {
    log.add(Span{name, "replay", id, -1, ns(a), ns(b), false});
    return std::chrono::duration<double, std::micro>(b - a).count();
  };

  Replay replay;
  std::vector<std::pair<mga::core::KernelFeatures, mga::hwsim::PapiCounters>> samples;
  std::uint64_t id = 0;
  for (std::size_t i = lo.front().begin; i < lo.front().end && id < kReplayRequests; ++i, ++id) {
    const Item item = stream.at(records[i].phase, records[i].index);
    const Clock::time_point t0 = Clock::now();
    (void)mga::serve::kernel_ir_hash(item.kernel);
    const Clock::time_point t1 = Clock::now();
    mga::core::KernelFeatures features = tuner.extract_features(item.kernel);
    const Clock::time_point t2 = Clock::now();
    const mga::hwsim::PapiCounters counters = tuner.profile_counters(features.workload, item.input_bytes);
    const Clock::time_point t3 = Clock::now();
    replay.key_us.push_back(span("ir.key", id, t0, t1));
    replay.extract_us.push_back(span("core.extract", id, t1, t2));
    replay.profile_us.push_back(span("hwsim.profile", id, t2, t3));
    if (samples.size() < kMaxFeatures) samples.emplace_back(std::move(features), counters);
  }
  if (samples.empty()) return replay;

  // Batch sizes the window formed: a batch of b rows shows up b times.
  std::map<std::size_t, std::size_t> rows_by_size;
  for (const PhaseRun& run : sat)
    for (std::size_t i = run.begin; i < run.end; ++i)
      if (records[i].phase == Phase::kWindow && records[i].ok)
        ++rows_by_size[records[i].batch_size];
  std::vector<std::size_t> sizes;
  for (const auto& [size, rows] : rows_by_size)
    for (std::size_t k = 0; k < std::min<std::size_t>(8, rows / size); ++k) sizes.push_back(size);
  for (std::size_t rep = 0; rep < 4; ++rep)
    for (std::size_t size = 1; size <= 32; size *= 2) sizes.push_back(size);

  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t s = 0; s < sizes.size(); ++s, ++id) {
    const auto& [features, counters] = samples[s % samples.size()];
    const std::vector<mga::hwsim::PapiCounters> rows(sizes[s], counters);
    (void)plan.predict_labels(features.graph, features.scaled_vector, rows);  // layout warm
    const Clock::time_point t0 = Clock::now();
    const std::vector<int> labels = plan.predict_labels(features.graph, features.scaled_vector, rows);
    const Clock::time_point t1 = Clock::now();
    if (labels.size() != rows.size()) std::abort();
    const double us = span("runtime.forward", id, t0, t1);
    const double x = static_cast<double>(sizes[s]);
    sx += x;
    sy += us;
    sxx += x * x;
    sxy += x * us;
  }
  const double n = static_cast<double>(sizes.size());
  replay.forward_row_us = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  replay.forward_fixed_us = (sy - replay.forward_row_us * sx) / n;
  replay.forward_samples = sizes.size();
  return replay;
}

/// Request spans of the first `rounds` rounds: the request from due time to
/// resolution, with its submit call and the queue-wait / compute split the
/// service reports.
void add_request_spans(const std::deque<Record>& records, SpanLog& log, std::size_t rounds) {
  std::uint64_t id = 0;
  for (const Record& record : records) {
    ++id;
    if (record.phase == Phase::kWarm || record.round >= rounds) continue;
    const char* category = servebench::to_string(record.phase);
    const std::int64_t root = log.add(
        Span{"request", category, id, -1, record.due_ns, record.resolved_ns, true});
    log.add(Span{"submit", category, id, root, record.submit_begin_ns, record.submit_end_ns, true});
    if (!record.ok) continue;
    const auto queue_end =
        record.submit_begin_ns + static_cast<std::int64_t>(record.queue_wait_us * 1e3);
    log.add(Span{"queue_wait", category, id, root, record.submit_begin_ns, queue_end, true});
    log.add(Span{"compute", category, id, root, queue_end,
                 queue_end + static_cast<std::int64_t>(record.compute_us * 1e3), true});
  }
}

// ---- arguments and reporting --------------------------------------------------

struct Args {
  Workload workload = Workload::kHot;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

[[nodiscard]] std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (a + 1 >= argc) return std::nullopt;
    const std::string value = argv[++a];
    try {
      if (arg == "--workload") {
        const auto workload = servebench::parse_workload(value);
        if (!workload) return std::nullopt;
        args.workload = *workload;
        have_workload = true;
      } else if (arg == "--seed") {
        args.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0.0)) return std::nullopt;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        args.trace = value == "1";
      } else if (arg == "--out-dir") {
        args.out_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return args;
}

void print_list_metrics() {
  std::cout << "{";
  for (const bool per_layer : {false, true}) {
    std::cout << (per_layer ? ", \"per_layer\": [" : "\"end_to_end\": [");
    bool first = true;
    for (const MetricDef& def : kMetrics) {
      if (def.per_layer != per_layer) continue;
      std::cout << (first ? "" : ", ") << "{\"name\": \"" << def.name << "\", \"unit\": \""
                << def.unit << "\"}";
      first = false;
    }
    std::cout << "]";
  }
  std::cout << "}\n";
}

/// Print every measured metric as a table, then the result JSON of this
/// mode's metrics (end-to-end, or per-layer when traced) as the last line.
/// Returns false when one of this mode's metrics was not measured.
bool report(const Metrics& metrics, bool per_layer, bool correct, std::size_t attempted,
            std::size_t failed) {
  for (const bool group : {false, true}) {
    std::cout << (group ? "per-layer:\n" : "end-to-end:\n");
    for (const MetricDef& def : kMetrics) {
      const auto it = metrics.find(def.name);
      if (def.per_layer != group || it == metrics.end()) continue;
      std::printf("  %-30s %14.4f %-6s", def.name, it->second.value, def.unit);
      if (it->second.samples > 0) std::printf("  (n=%zu)", it->second.samples);
      std::printf("\n");
    }
  }
  bool complete = true;
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  const char* separator = "";
  for (const MetricDef& def : kMetrics) {
    if (def.per_layer != per_layer) continue;
    const auto it = metrics.find(def.name);
    if (it == metrics.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "serve_bench: metric %s was not measured\n", def.name);
      complete = false;
      continue;
    }
    json << separator << "\"" << def.name << "\": {\"value\": " << it->second.value
         << ", \"unit\": \"" << def.unit << "\"}";
    separator = ", ";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return complete;
}

void print_self_times(const SpanLog& log, Workload workload) {
  std::printf("per-layer self time (%s):\n", servebench::to_string(workload));
  std::printf("  %-16s %10s %14s %14s %12s\n", "span", "count", "total_ms", "self_ms",
              "self_us/span");
  for (const servebench::SelfTime& row : log.self_times())
    std::printf("  %-16s %10zu %14.3f %14.3f %12.2f\n", row.name.c_str(), row.count,
                row.total_us / 1e3, row.self_us / 1e3,
                row.count > 0 ? row.self_us / static_cast<double>(row.count) : 0.0);
}

// ---- self-test ---------------------------------------------------------------

[[nodiscard]] bool same_item(const Item& a, const Item& b) {
  return a.kernel == b.kernel && a.input_bytes == b.input_bytes && a.pair == b.pair &&
         a.priority == b.priority && a.admission == b.admission && a.deadline == b.deadline;
}

/// Generator checks: one seed yields one request stream and arrival schedule,
/// another seed a different one; fresh never repeats a kernel IR hash.
int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };
  const Phase phases[] = {Phase::kWarm, Phase::kLo, Phase::kHi, Phase::kWindow, Phase::kProbe};
  for (const Workload workload : {Workload::kHot, Workload::kFresh, Workload::kTiered}) {
    const std::string name = servebench::to_string(workload);
    const Stream a(workload, 7), b(workload, 7), c(workload, 8);
    bool same_stream = true, other_stream_differs = false;
    bool same_schedule = true, other_schedule_differs = false;
    for (const Phase phase : phases) {
      for (std::uint64_t i = 0; i < 400; ++i) {
        same_stream = same_stream && same_item(a.at(phase, i), b.at(phase, i));
        other_stream_differs = other_stream_differs || !same_item(a.at(phase, i), c.at(phase, i));
      }
      const auto arrivals = a.arrivals(phase, 1, 1000.0, 2.0);
      same_schedule = same_schedule && arrivals == b.arrivals(phase, 1, 1000.0, 2.0);
      other_schedule_differs =
          other_schedule_differs || arrivals != c.arrivals(phase, 1, 1000.0, 2.0);
      // Rounds of one phase draw distinct schedules.
      same_schedule = same_schedule && arrivals != a.arrivals(phase, 2, 1000.0, 2.0);
      same_schedule = same_schedule && !arrivals.empty() &&
                      std::is_sorted(arrivals.begin(), arrivals.end()) &&
                      arrivals.back() < 2'000'000'000;
    }
    expect(same_stream, name + ": same seed, same request stream");
    expect(same_schedule, name + ": same seed, same sorted arrival schedule");
    expect(other_stream_differs, name + ": other seed, other request stream");
    expect(other_schedule_differs, name + ": other seed, other arrival schedule");
  }

  // Fresh: every request of every phase a run can send has its own IR.
  const Stream fresh(Workload::kFresh, 11);
  std::vector<Item> items;
  for (const Phase phase : phases)
    for (std::uint64_t i = 0; i < 1500; ++i) items.push_back(fresh.at(phase, i));
  std::vector<std::uint64_t> hashes(items.size());
  mga::util::parallel_for(items.size(), [&](std::size_t i) {
    hashes[i] = mga::serve::kernel_ir_hash(items[i].kernel);
  });
  std::sort(hashes.begin(), hashes.end());
  expect(std::adjacent_find(hashes.begin(), hashes.end()) == hashes.end(),
         "fresh: " + std::to_string(items.size()) + " requests, no repeated kernel IR hash");

  // Hot: the Zipf skew concentrates traffic on the seed's favourite kernels.
  const Stream hot(Workload::kHot, 7);
  std::map<std::string, std::size_t> counts;
  for (std::uint64_t i = 0; i < 4000; ++i) ++counts[hot.at(Phase::kLo, i).kernel.name];
  std::size_t top = 0;
  for (const auto& [kernel, count] : counts) top = std::max(top, count);
  expect(counts.size() <= 16 && top > 4000 / 8, "hot: 16-kernel catalog with Zipf skew");
  std::cout << (failures == 0 ? "self-test: ok\n" : "self-test: FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point epoch = Clock::now();
  if (argc == 2 && std::string(argv[1]) == "--self-test") return self_test();
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    print_list_metrics();
    return 0;
  }
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::cerr << "usage: " << argv[0]
              << " --workload hot|fresh|tiered --seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
                 "       "
              << argv[0] << " --self-test | --list-metrics\n";
    return 2;
  }
  const Args& args = *parsed;
  // This thread is the load generator: wake as close to each due time as the
  // kernel allows (the default 50 us timer slack would add to every wake).
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::optional<CpuTimes> cpu_before = read_cpu_times();
  std::cout << "# serve_bench workload=" << servebench::to_string(args.workload)
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << "\n"
            << "# host: cpu=\"" << cpu_model() << "\" nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << SERVEBENCH_COMPILER << "\" build=" << SERVEBENCH_BUILD_TYPE << "\n";

  // Host speed, sampled before set-up and before every timed phase while the
  // service is idle.
  std::vector<double> reference_s;
  const auto sample_host = [&] { reference_s.push_back(reference_seconds()); };
  for (int i = 0; i < 3; ++i) sample_host();
  SetupTimes setup;
  Deployment deployment = deploy(kSetupRepeats, setup);
  mga::serve::TuningService& service = *deployment.service;
  const std::shared_ptr<const mga::core::MgaTuner> tuner = deployment.registry->get(kMachine);

  const Stream stream(args.workload, args.seed);
  const servebench::Load load = servebench::load_for(args.workload);
  const double round_s = args.seconds / static_cast<double>(kRounds);
  Generator generator(service, stream, epoch);
  generator.warm();
  // The traced run first runs one extra saturating phase whose requests get
  // no spans: the reference for bench.tracing_overhead.
  std::optional<PhaseRun> reference;
  if (args.trace) reference = generator.saturate(kRounds, kSatShare * round_s);
  std::vector<PhaseRun> lo, hi, sat;
  std::vector<double> round_steal;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    const std::optional<CpuTimes> round_cpu = read_cpu_times();
    sample_host();
    lo.push_back(generator.open_loop(Phase::kLo, round, load.lo_rps, kOpenShare * round_s));
    sample_host();
    hi.push_back(generator.open_loop(Phase::kHi, round, load.hi_rps, kOpenShare * round_s));
    sample_host();
    sat.push_back(generator.saturate(round, kSatShare * round_s));
    round_steal.push_back(steal_share(round_cpu, read_cpu_times()));
  }
  const std::optional<CpuTimes> cpu_after = read_cpu_times();

  std::vector<double> scrape_ms;
  if (args.trace) {
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      const std::string body = service.metrics_prometheus();
      scrape_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      if (body.empty()) std::abort();
    }
  }
  const mga::serve::ServiceStatsSnapshot final_stats = service.stats_snapshot();
  service.shutdown();

  const double rss_mb = peak_rss_mb();  // before the check allocates its own tables
  const std::deque<Record>& records = generator.records();
  const Verdict verdict = verify(records, stream, *tuner);

  // ---- end-to-end metrics
  Metrics metrics;
  // Latency from due time, pooled over the rounds; the per-round figures
  // and generator lateness go to the validity table.
  std::map<std::string, std::vector<double>> per_round;
  const auto put_latency = [&](const std::string& p50, const std::string& p99,
                               const std::vector<PhaseRun>& runs, Phase phase) {
    std::vector<double> all;
    for (const PhaseRun& run : runs) {
      std::vector<double> ms, late_ms;
      for (std::size_t i = run.begin; i < run.end; ++i) {
        if (records[i].phase != phase) continue;
        late_ms.push_back(static_cast<double>(records[i].submit_begin_ns - records[i].due_ns) / 1e6);
        if (records[i].ok)
          ms.push_back(static_cast<double>(records[i].resolved_ns - records[i].due_ns) / 1e6);
      }
      all.insert(all.end(), ms.begin(), ms.end());
      per_round[p50].push_back(percentile(ms, 0.50));
      per_round[p99].push_back(percentile(std::move(ms), 0.99));
      const std::string stream = servebench::to_string(phase);
      per_round["late_p50_ms." + stream].push_back(percentile(late_ms, 0.50));
      per_round["late_p99_ms." + stream].push_back(percentile(std::move(late_ms), 0.99));
    }
    metrics[p50] = {percentile(all, 0.50), all.size()};
    metrics[p99] = {percentile(std::move(all), 0.99), metrics[p50].samples};
  };
  metrics["setup_s"] = {median(setup.total_s), setup.total_s.size()};
  metrics["rss_peak_mb"] = {rss_mb, 0};
  for (const PhaseRun& run : sat) per_round["sat_rps"].push_back(run.sat_rps);
  metrics["sat_rps"] = {median(per_round["sat_rps"]), kRounds};
  per_round["steal"] = round_steal;
  std::cout << "# setup repeats (s):";
  for (const double t : setup.total_s) std::printf(" %.4f", t);
  std::cout << "\n";
  put_latency("p50_ms.lo", "p99_ms.lo", lo, Phase::kLo);
  put_latency("p50_ms.hi", "p99_ms.hi", hi, Phase::kHi);
  put_latency("int_p50_ms", "int_p99_ms", sat, Phase::kProbe);
  const double failures = static_cast<double>(verdict.errors + verdict.mismatches);
  metrics["ok_ratio"] = {1.0 - failures / static_cast<double>(verdict.sent), verdict.sent};
  metrics["speedup_gmean"] = {verdict.speedup_gmean, verdict.speedup_pairs};

  // Calibrate the bounded time metrics to a host that runs the reference in
  // kReferenceNominal_s; the measured values stay as per-layer `.raw`.
  // Interference only ever slows the reference, so its lower quartile tracks
  // the host's speed and leaves out samples a burst of steal hit.
  const double host_ref_s = percentile(reference_s, 0.25);
  const double speed = kReferenceNominal_s / host_ref_s;
  metrics["bench.host_ref_ms"] = {host_ref_s * 1e3, reference_s.size()};
  for (const std::string name : {"setup_s", "sat_rps", "int_p50_ms"})
    metrics[name + ".raw"] = metrics[name];
  metrics["setup_s"].value *= speed;
  metrics["int_p50_ms"].value *= speed;
  metrics["sat_rps"].value /= speed;
  for (std::uint32_t round = 0; round < kRounds; ++round)
    per_round["host_ref_ms"].push_back(
        1e3 * median({reference_s.begin() + 3 + 3 * round, reference_s.begin() + 6 + 3 * round}));

  // ---- per-layer metrics, pooled over the rounds
  const auto put_percentiles = [&](const std::string& p50, const std::string& p99,
                                   const std::vector<double>& samples) {
    metrics[p50] = {percentile(samples, 0.50), samples.size()};
    metrics[p99] = {percentile(samples, 0.99), samples.size()};
  };
  metrics["fail_ratio"] = {failures / static_cast<double>(verdict.sent), verdict.sent};
  std::vector<double> submit_us, late_us, queue_us, compute_us, int_queue_us;
  for (const Record& record : records) {
    if (record.phase == Phase::kWarm || record.round >= kRounds) continue;
    const bool open_loop = record.phase != Phase::kWindow;
    submit_us.push_back(static_cast<double>(record.submit_end_ns - record.submit_begin_ns) / 1e3);
    if (open_loop)
      late_us.push_back(static_cast<double>(record.submit_begin_ns - record.due_ns) / 1e3);
    if (!record.ok) continue;
    if (record.phase == Phase::kLo || record.phase == Phase::kHi) {
      queue_us.push_back(record.queue_wait_us);
      compute_us.push_back(record.compute_us);
    }
    if (record.phase == Phase::kProbe) int_queue_us.push_back(record.queue_wait_us);
  }
  put_percentiles("serve.submit_us.p50", "serve.submit_us.p99", submit_us);
  put_percentiles("shard.queue_wait_us.p50", "shard.queue_wait_us.p99", queue_us);
  metrics["shard.int_queue_wait_us.p99"] = {percentile(int_queue_us, 0.99), int_queue_us.size()};
  put_percentiles("shard.compute_us.p50", "shard.compute_us.p99", compute_us);
  put_percentiles("bench.gen_late_us.p50", "bench.gen_late_us.p99", late_us);

  // Batching, cache and stage occupancy of the saturating phases.
  double batches = 0, batched = 0, hits = 0, misses = 0, evictions = 0, profiles = 0;
  double extract_us = 0, forward_us = 0, publish_us = 0, sat_wall_us = 0;
  for (const PhaseRun& run : sat) {
    const mga::serve::ServiceStatsSnapshot& a = run.before;
    const mga::serve::ServiceStatsSnapshot& b = run.after;
    batches += static_cast<double>(b.batches - a.batches);
    batched += static_cast<double>(b.batched_requests - a.batched_requests);
    hits += static_cast<double>(b.cache.hits - a.cache.hits);
    misses += static_cast<double>(b.cache.misses - a.cache.misses);
    evictions += static_cast<double>(b.cache.evictions - a.cache.evictions);
    profiles += static_cast<double>(b.cache.profiles_run - a.cache.profiles_run);
    extract_us += b.pipeline.extract_busy_us - a.pipeline.extract_busy_us;
    forward_us += b.pipeline.forward_busy_us - a.pipeline.forward_busy_us;
    publish_us += b.pipeline.publish_busy_us - a.pipeline.publish_busy_us;
    sat_wall_us += run.wall_s * 1e6;
  }
  metrics["shard.batches"] = {batches, 0};
  metrics["shard.mean_batch"] = {batches > 0 ? batched / batches : 0.0, 0};
  metrics["cache.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0, 0};
  metrics["cache.misses"] = {misses, 0};
  metrics["cache.evictions"] = {evictions, 0};
  metrics["cache.profiles_run"] = {profiles, 0};
  metrics["stage.extract_busy_cores"] = {extract_us / sat_wall_us, 0};
  metrics["stage.forward_busy_cores"] = {forward_us / sat_wall_us, 0};
  metrics["stage.publish_busy_cores"] = {publish_us / sat_wall_us, 0};
  std::uint64_t rejected = 0, expired = 0;
  for (const mga::serve::TierStatsSnapshot& tier : final_stats.tiers) {
    rejected += tier.rejected + tier.shed;
    expired += tier.expired;
  }
  metrics["shard.rejected"] = {static_cast<double>(rejected), 0};
  metrics["shard.expired"] = {static_cast<double>(expired), 0};
  metrics["core.train_s"] = {median(setup.train_s), setup.train_s.size()};
  metrics["serve.registry_add_ms"] = {median(setup.registry_add_ms), setup.registry_add_ms.size()};
  metrics["serve.service_ctor_ms"] = {median(setup.service_ctor_ms), setup.service_ctor_ms.size()};
  metrics["bench.steal_share"] = {steal_share(cpu_before, cpu_after), 0};

  if (args.trace) {
    metrics["obs.scrape_ms"] = {median(scrape_ms), scrape_ms.size()};
    metrics["bench.tracing_overhead"] = {
        reference->sat_rps > 0 ? metrics["sat_rps.raw"].value / reference->sat_rps : 0.0, 0};
    SpanLog spans;
    add_request_spans(records, spans, kRounds);
    const mga::serve::ModelRegistry::Resolved resolved = deployment.registry->resolve(kMachine);
    if (!resolved.plan) {
      std::cerr << "serve_bench: the registry compiled no runtime plan\n";
      return 1;
    }
    const Replay replay =
        replay_layers(records, stream, lo, sat, *tuner, *resolved.plan, spans, epoch);
    metrics["ir.key_us"] = {median(replay.key_us), replay.key_us.size()};
    metrics["core.extract_us"] = {median(replay.extract_us), replay.extract_us.size()};
    metrics["hwsim.profile_us"] = {median(replay.profile_us), replay.profile_us.size()};
    metrics["runtime.forward_fixed_us"] = {replay.forward_fixed_us, replay.forward_samples};
    metrics["runtime.forward_row_us"] = {replay.forward_row_us, replay.forward_samples};

    // The Chrome trace keeps the first round's requests and every replay
    // span; the self-time table covers all of them.
    SpanLog exported;
    add_request_spans(records, exported, 1);
    for (const Span& span : spans.spans())
      if (!span.async) exported.add(span);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = (std::filesystem::path(args.out_dir) /
                              ("trace_" + std::string(servebench::to_string(args.workload)) +
                               "_seed" + std::to_string(args.seed) + ".json"))
                                 .string();
    if (!exported.write_chrome(path)) {
      std::cerr << "serve_bench: cannot write " << path << "\n";
      return 1;
    }
    std::cout << "# chrome trace: " << path << " (" << exported.spans().size() << " spans)\n";
    print_self_times(spans, args.workload);
  }
  // Run validity: every round's figures beside its host steal share and
  // generator lateness, so a noisy round shows as one.
  std::cout << "# per round:";
  for (std::uint32_t round = 0; round < kRounds; ++round) std::cout << "  r" << round;
  std::cout << "\n";
  for (const auto& [name, values] : per_round) {
    std::printf("#   %-22s", name.c_str());
    for (const double v : values) std::printf(" %9.4f", v);
    std::printf("\n");
  }
  const bool correct = verdict.mismatches == 0 && verdict.duplicate_ir == 0;
  std::cout << "# requests sent " << verdict.sent << ", errors " << verdict.errors
            << ", mismatches " << verdict.mismatches << ", repeated fresh IR "
            << verdict.duplicate_ir << "\n";
  if (!report(metrics, args.trace, correct, verdict.sent,
              verdict.errors + verdict.mismatches + verdict.duplicate_ir))
    return 1;
  return correct ? 0 : 1;
}
