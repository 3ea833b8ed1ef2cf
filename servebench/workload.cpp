#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "dataset/dataset.hpp"

namespace servebench {

namespace {

constexpr std::size_t kCatalogSize = 16;
constexpr double kZipfExponent = 1.0;
/// Share of the tiered open-loop streams that rides the interactive tier.
constexpr double kTieredInteractiveShare = 0.25;

[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng rng(a ^ (b * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
  rng.next();
  return rng.next();
}

[[nodiscard]] std::uint64_t stream_key(std::uint64_t seed, Phase phase, std::uint64_t index) {
  return mix(mix(seed, static_cast<std::uint64_t>(phase) + 1), index);
}

}  // namespace

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kHot: return "hot";
    case Workload::kFresh: return "fresh";
    case Workload::kTiered: return "tiered";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w : {Workload::kHot, Workload::kFresh, Workload::kTiered})
    if (name == to_string(w)) return w;
  return std::nullopt;
}

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kWarm: return "warm";
    case Phase::kLo: return "lo";
    case Phase::kHi: return "hi";
    case Phase::kWindow: return "window";
    case Phase::kProbe: return "probe";
  }
  return "?";
}

Load load_for(Workload workload) {
  switch (workload) {
    case Workload::kHot: return {1500.0, 4000.0, 8000.0};
    case Workload::kFresh: return {750.0, 1500.0, 6000.0};
    case Workload::kTiered: return {1500.0, 4000.0, 8000.0};
  }
  return {};
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

double Rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

Stream::Stream(Workload workload, std::uint64_t seed)
    : workload_(workload),
      seed_(seed),
      suite_(mga::corpus::openmp_suite()),
      inputs_(mga::dataset::input_sizes_30()) {
  if (workload_ == Workload::kFresh) return;
  // 8 kernels the tuner trained on and 8 it never saw, spread over the rest
  // of the suite.
  for (std::size_t i = 0; i < kTrainingKernels; ++i) catalog_.push_back(suite_[i]);
  for (std::size_t i = 0; catalog_.size() < kCatalogSize; ++i)
    catalog_.push_back(suite_[kTrainingKernels + 4 * i]);

  // Popularity follows catalog order (seen kernels first) in every seed, so
  // seeds vary the sample, never the mix.
  double total = 0.0;
  for (std::size_t rank = 0; rank < kCatalogSize; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

mga::corpus::KernelSpec Stream::fresh_kernel(Rng& rng, std::uint64_t id) const {
  mga::corpus::KernelSpec spec = suite_[rng.below(suite_.size())];
  mga::corpus::FamilyParams& p = spec.params;
  p.arith_chain = std::max(1, p.arith_chain + static_cast<int>(rng.below(7)) - 3);
  p.arrays = std::max(1, p.arrays + static_cast<int>(rng.below(3)) - 1);
  if (rng.uniform() < 0.2) p.has_branch = !p.has_branch;
  p.reuse = std::clamp(p.reuse + 0.2 * (rng.uniform() - 0.5), 0.02, 0.98);
  p.imbalance = std::clamp(p.imbalance + 0.1 * rng.uniform(), 0.0, 1.0);
  // The name is part of the generated IR, so a unique name makes every
  // fresh kernel's IR (and its cache key) unique within a run.
  char suffix[64];
  std::snprintf(suffix, sizeof suffix, "~%016llx.%llx", static_cast<unsigned long long>(seed_),
                static_cast<unsigned long long>(id));
  spec.name += suffix;
  return spec;
}

Item Stream::at(Phase phase, std::uint64_t index) const {
  using mga::serve::Admission;
  using mga::serve::Priority;
  Rng rng(stream_key(seed_, phase, index));
  Item item;
  if (workload_ == Workload::kFresh) {
    const std::uint64_t id = (static_cast<std::uint64_t>(phase) << 48) | index;
    item.kernel = fresh_kernel(rng, id);
    item.pair = id;
  } else {
    const double u = rng.uniform();
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
    item.pair = phase == Phase::kWarm ? index / inputs_.size() % kCatalogSize
                                      : std::min(rank, kCatalogSize - 1);
    item.kernel = catalog_[item.pair];
  }
  std::size_t input = rng.below(inputs_.size());
  if (phase == Phase::kWarm && workload_ != Workload::kFresh) input = index % inputs_.size();
  item.input_bytes = inputs_[input];
  item.pair = item.pair * inputs_.size() + input;

  const bool open_loop = phase == Phase::kLo || phase == Phase::kHi || phase == Phase::kProbe;
  item.admission = open_loop ? Admission::kReject : Admission::kBlock;
  bool interactive = false;
  if (workload_ == Workload::kTiered) {
    if (phase == Phase::kWindow) item.priority = Priority::kBulk;
    if (phase == Phase::kProbe) interactive = true;
    if (phase == Phase::kLo || phase == Phase::kHi) {
      interactive = rng.uniform() < kTieredInteractiveShare;
      if (!interactive) item.priority = Priority::kBulk;
    }
  }
  if (interactive) item.priority = Priority::kInteractive;
  // Probe requests carry the deadline in every workload; only the tier
  // differs, so hot and fresh are the no-priority baseline for tiered.
  if (interactive || phase == Phase::kProbe) item.deadline = kInteractiveDeadline;
  return item;
}

std::vector<std::int64_t> Stream::arrivals(Phase phase, std::uint64_t round, double rate,
                                           double seconds) const {
  Rng rng(stream_key(seed_, phase, ~round));
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = rng.exponential(rate); t < seconds; t += rng.exponential(rate))
    out.push_back(static_cast<std::int64_t>(t * 1e9));
  return out;
}

}  // namespace servebench
