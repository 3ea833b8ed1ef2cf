// Request streams and arrival schedules of the serve benchmark.
//
// Everything here is a pure function of (workload, seed, phase, index): the
// benchmark's own splitmix64 generator and Zipf/Poisson samplers draw every
// choice, so a later change to the library's RNG or load shapers cannot move
// the benchmark's inputs. Three workloads (see README.md):
//
//   hot     16 OpenMP-suite kernels (8 seen in training, 8 unseen) x the 30
//           paper input sizes, Zipf-skewed kernel popularity
//   fresh   every request carries a kernel never seen before, derived from an
//           OpenMP-suite spec by seeded FamilyParams perturbations
//   tiered  the hot catalog; the saturating window rides the bulk tier and
//           the probe stream the interactive tier (deadline, reject)
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "corpus/spec.hpp"
#include "serve/ticket.hpp"

namespace servebench {

enum class Workload { kHot, kFresh, kTiered };

[[nodiscard]] const char* to_string(Workload workload);
[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);

/// Request streams of one run. Each phase draws from its own stream, so the
/// requests of one phase do not depend on how many another phase consumed.
enum class Phase : std::uint8_t {
  kWarm = 0,    // cache warm-up, untimed
  kLo = 1,      // open loop at the low rate
  kHi = 2,      // open loop at the high rate
  kWindow = 3,  // closed window that saturates the service
  kProbe = 4,   // open-loop probe stream beside the window
};

[[nodiscard]] const char* to_string(Phase phase);

/// Fixed offered load. Open-loop rates are absolute so a faster program
/// faces the same load; they are never calibrated against measured
/// capacity. `window_rps` only sizes the closed window's fixed request count
/// (the rate at which it lasts its nominal time).
struct Load {
  double lo_rps = 0.0;
  double hi_rps = 0.0;
  double window_rps = 0.0;
};

[[nodiscard]] Load load_for(Workload workload);

/// Requests outstanding in the closed window, and the rate of the probe
/// stream beside it (every workload).
inline constexpr std::size_t kWindow = 64;
inline constexpr double kProbeRps = 500.0;

/// Deadline of interactive-tier requests.
inline constexpr std::chrono::milliseconds kInteractiveDeadline{250};

/// One generated request.
struct Item {
  mga::corpus::KernelSpec kernel;
  double input_bytes = 0.0;
  /// Identity of the (kernel, input) pair: equal pairs have equal keys.
  std::uint64_t pair = 0;
  mga::serve::Priority priority = mga::serve::Priority::kNormal;
  mga::serve::Admission admission = mga::serve::Admission::kBlock;
  std::chrono::steady_clock::duration deadline{};
};

/// splitmix64: small, fast, and fully specified, so streams are identical
/// across standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n);
  /// Exponential inter-arrival gap of a Poisson process at `rate` per unit.
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

class Stream {
 public:
  Stream(Workload workload, std::uint64_t seed);

  [[nodiscard]] Workload workload() const noexcept { return workload_; }

  /// The index-th request of `phase`. Warm-up request i of hot and tiered
  /// is catalog pair i.
  [[nodiscard]] Item at(Phase phase, std::uint64_t index) const;

  /// Requests of the warm-up: every catalog pair, or 256 fresh kernels
  /// (enough to fill the feature cache).
  [[nodiscard]] std::size_t warm_count() const noexcept {
    return catalog_.empty() ? 256 : catalog_.size() * inputs_.size();
  }

  /// Poisson arrival offsets (ns from the phase start) of round `round` of
  /// `phase`, at `rate` per second over `seconds`.
  [[nodiscard]] std::vector<std::int64_t> arrivals(Phase phase, std::uint64_t round, double rate,
                                                   double seconds) const;

 private:
  [[nodiscard]] mga::corpus::KernelSpec fresh_kernel(Rng& rng, std::uint64_t id) const;

  Workload workload_;
  std::uint64_t seed_;
  std::vector<mga::corpus::KernelSpec> suite_;    // the 45 OpenMP loops
  std::vector<mga::corpus::KernelSpec> catalog_;  // hot/tiered kernels
  std::vector<double> inputs_;                    // the 30 paper sizes
  std::vector<double> zipf_cdf_;                  // over catalog ranks
};

/// Training corpus of the served tuner: the first 8 OpenMP loops, which are
/// also the catalog's "seen" half.
inline constexpr std::size_t kTrainingKernels = 8;

}  // namespace servebench
