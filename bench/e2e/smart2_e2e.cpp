// End-to-end benchmark driver for the 2SMaRT detection path.
//
// One process runs one workload, so peak RSS belongs to that workload
// alone. It drives the public APIs of src/hpc, src/uarch, src/ml, src/core
// and src/serve, checks the outputs, and writes one results JSON:
//
//   smart2_e2e --workload NAME --seed N --seconds S --out FILE
//              [--trace --trace-out FILE]
//
// Untraced runs keep smart2::obs fully off and report the end-to-end
// metrics. --trace turns obs tracing and metrics on, opens bench.* spans
// around the public calls, times each layer from the outside, and reports
// the per-layer metrics instead. bench/e2e/README.md documents the
// workloads, the metrics and which layer metric should move which
// end-to-end metric; bench/e2e/run.py builds this driver and prints the
// benchmark's result line.
//
// The seed draws the inputs: the monitored fleet (each stream's
// application, class, window phase and jitter) and profile-train's
// train/test splits. The corpus the deployed detector is trained on and
// the bank of traced applications the fleet draws from are fixed, so the
// detector, and with it the per-window work, is the same for every seed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/obs.hpp"
#include "common/obs_sink.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/model_zoo.hpp"
#include "core/online_detector.hpp"
#include "core/two_stage.hpp"
#include "hpc/collector.hpp"
#include "serve/feed.hpp"
#include "serve/hash.hpp"
#include "serve/service.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace smart2;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

enum class Kind { kFleet, kRealtime, kProfileTrain };

struct Workload {
  const char* name;
  Kind kind;
  /// Closed-loop fleet size; realtime: the reference rate in streams per
  /// 10 ms; profile-train: the fleet the trained detector is deployed to.
  std::size_t streams;
  bool int8;
  bool churn;
  /// How this workload's ticks scale with the host reference's time: the
  /// least-squares slope of log(tick time) on log(reference time) over the
  /// calibration runs (README, "Host normalization"). The realtime ticks
  /// are small enough to stay in cache, so host memory contention slows
  /// them less than it slows the reference.
  double host_exponent;
};

constexpr Workload kWorkloads[] = {
    {"fleet-steady", Kind::kFleet, 100'000, false, false, 0.8},
    {"fleet-churn", Kind::kFleet, 100'000, false, true, 0.8},
    {"fleet-int8", Kind::kFleet, 100'000, true, false, 0.8},
    {"realtime", Kind::kRealtime, 20'000, false, false, 0.6},
    {"profile-train", Kind::kProfileTrain, 100'000, false, false, 0.8},
};

/// Seed of the corpus every deployed detector is trained on.
constexpr std::uint64_t kReferenceSeed = 42;
/// Corpus scale of the serving workloads' detector (profiled in set-up).
constexpr double kServeCorpusScale = 0.03;
/// Corpus scale profile-train profiles: 362 apps x 11 runs x 4 HPCs.
constexpr double kProfileCorpusScale = 0.1;
constexpr std::size_t kSetupReps = 3;
/// Host-reference measurements after each set-up repetition.
constexpr std::size_t kSetupProbes = 1;
constexpr std::size_t kWarmTicks = 3;
/// Closed loops run at least this many ticks; their verdicts form the
/// digest and the F-measure, so both are independent of host speed.
constexpr std::size_t kScoredTicks = 256;
/// fleet-churn: every stream id lives this many ticks, so a tenth of the
/// fleet is replaced by fresh ids on every tick.
constexpr std::uint64_t kChurnLifetime = 10;
constexpr std::uint64_t kEvictAfterTicks = 2;
/// Streams replayed through lone OnlineDetectors on the double workloads.
constexpr std::size_t kReplayStreams = 1024;
/// The paper's 10 ms HPC sampling interval: the realtime tick period.
constexpr auto kPeriod = std::chrono::milliseconds(10);
/// Realtime fleet sizes (streams per period) and their share of the run.
struct RateStep {
  std::size_t streams;
  double share;
};
constexpr RateStep kRates[] = {{10'000, 0.1875}, {20'000, 0.625},
                               {40'000, 0.1875}};
constexpr std::size_t kTrainReps = 40;
constexpr std::size_t kDeployTicks = 160;
constexpr std::size_t kProfileChunk = 16;
/// Trace runs alternate blocks of this many ticks with obs on and off.
constexpr std::size_t kObsBlock = 8;
/// Trace runs probe the kernels on every this-many'th instrumented tick.
constexpr std::size_t kProbeEvery = 4;
/// score_epoch_into's stage-1 cut: rows below it go to stage 2.
constexpr double kRouteCut = 0.95;

// ------------------------------------------------------------ metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"samples_per_s", "windows/s"}, {"verdict_ms_p50", "ms"},
    {"fmeasure", "ratio"},          {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.submit_ns", "ns"},
    {"serve.tick_ns", "ns"},
    {"serve.overhead_ns", "ns"},
    {"serve.admits_per_tick", "1/tick"},
    {"serve.evicts_per_tick", "1/tick"},
    {"serve.swap_ms", "ms"},
    {"serve.tick_ms_p98", "ms"},
    {"serve.verdict_ms_p98", "ms"},
    {"serve.false_alarm_rate", "ratio"},
    {"core.epoch_ns", "ns"},
    {"core.stage1_ns", "ns"},
    {"core.stage2_ns", "ns"},
    {"core.route_frac", "ratio"},
    {"hpc.trace_us_per_window", "us"},
    {"hpc.collect_ms_per_app", "ms"},
    {"uarch.ns_per_cycle", "ns"},
    {"ml.train_ms", "ms"},
    {"ml.quantize_ms", "ms"},
    {"ml.fit_ms.MLR", "ms"},
    {"ml.fit_ms.J48", "ms"},
    {"ml.fit_ms.JRip", "ms"},
    {"ml.fit_ms.MLP", "ms"},
    {"ml.fit_ms.OneR", "ms"},
    {"obs.trace_overhead_frac", "ratio"},
    {"loadgen.synth_ns", "ns"},
    {"loadgen.late_ms_p98", "ms"},
};

constexpr const char* kLearners[] = {"MLR", "J48", "JRip", "MLP", "OneR"};

// ------------------------------------------------------------ helpers

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile of an unsorted sample (numpy's default).
double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median_of(std::vector<double> v) {
  return quantile_of(std::move(v), 0.5);
}

/// FNV-1a over 64-bit words: one xor-multiply per word rather than per
/// byte, because ~600k verdict words are hashed between ticks.
class Digest {
 public:
  void word(std::uint64_t w) noexcept { h_ = (h_ ^ w) * 0x100000001b3ULL; }
  void real(double x) noexcept { word(std::bit_cast<std::uint64_t>(x)); }
  void bytes(std::string_view s) noexcept {
    for (const char c : s) word(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t dataset_digest(const Dataset& d) {
  Digest h;
  h.word(d.size());
  h.word(d.feature_count());
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (const double x : d.features(i)) h.real(x);
    h.word(static_cast<std::uint64_t>(d.label(i)));
  }
  return h.value();
}

std::uint64_t model_digest(const TwoStageHmd& model) {
  std::ostringstream blob;
  model.save(blob);
  Digest h;
  h.bytes(blob.str());
  return h.value();
}

std::vector<double> feature_max_abs(const Dataset& d) {
  std::vector<double> m(d.feature_count(), 0.0);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto x = d.features(i);
    for (std::size_t f = 0; f < x.size(); ++f)
      m[f] = std::max(m[f], std::abs(x[f]));
  }
  return m;
}

const compiled::QuantSpec kInt8{8, std::nullopt};

/// Fixed work that does not depend on the product code: xorshift-indexed
/// read-modify-writes over 4 MiB feeding a dependent floating-point chain,
/// the same mix of cache misses and FP latency as the serving path's index
/// probes and MLR arithmetic. Timed between ticks and after each set-up, it
/// sees the interference they see, so their timings can be reported at the
/// reference's nominal speed (README, "Host normalization").
class HostReference {
 public:
  HostReference() : cells_(std::size_t{1} << 19, 1.0) {}

  void measure() {
    // Touch every cell first, so the timed walk starts from the same cache
    // state whatever the measured work left behind.
    for (const double c : cells_) acc_ += c;
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      double& cell = cells_[x & (cells_.size() - 1)];
      cell += 1.0;
      acc_ = acc_ * 0.999999 + cell;
    }
    seconds_.push_back(seconds_between(t0, Clock::now()));
  }

  /// Median time of measurements [first, last) over the nominal time: > 1
  /// when the host ran slower than nominal meanwhile.
  double slowdown(std::size_t first, std::size_t last) const {
    return median_of(std::vector<double>(
               seconds_.begin() + static_cast<std::ptrdiff_t>(first),
               seconds_.begin() + static_cast<std::ptrdiff_t>(last))) /
           kNominalS;
  }
  std::size_t count() const noexcept { return seconds_.size(); }
  double checksum() const noexcept { return acc_; }

 private:
  static constexpr std::size_t kSteps = std::size_t{1} << 16;
  /// Median of measure() over the calibration runs (README).
  static constexpr double kNominalS = 0.45e-3;
  std::vector<double> cells_;
  std::vector<double> seconds_;
  double acc_ = 0.0;
};

// ------------------------------------------------------------ one run

/// Everything one invocation measures and checks.
class Run {
 public:
  Run(const Workload& w, std::uint64_t s, double secs, bool traced)
      : workload(w), seed(s), seconds(secs), trace(traced) {}

  const Workload& workload;
  const std::uint64_t seed;
  const double seconds;
  const bool trace;

  /// Raw samples per metric name; each metric reports their median.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Extra results-file fields: name -> JSON literal.
  std::vector<std::pair<std::string, std::string>> info;
  HostReference host;

  void add(const std::string& name, double v) { samples[name].push_back(v); }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void note(const std::string& key, std::string json) {
    info.emplace_back(key, std::move(json));
  }

  /// Trace runs alternate obs-on and obs-off blocks of ticks; returns
  /// whether measured tick `m` is instrumented.
  bool begin_tick(std::size_t m) {
    if (!trace) return false;
    const bool on = (m / kObsBlock) % 2 == 0;
    if (m % kObsBlock == 0) set_obs(on);
    return on;
  }
  void end_tick(std::size_t m) {
    if (trace && (m / kObsBlock) % 2 == 0 && m % kObsBlock == kObsBlock - 1)
      keep_trace();
  }

  /// The first instrumented block (plus everything before it: set-up,
  /// probes) is kept as the run's trace; later blocks are dropped so the
  /// trace stays small.
  void keep_trace() {
    if (trace_json_.empty()) trace_json_ = obs::trace_to_json();
    obs::reset();
  }
  void set_obs(bool on) const {
    obs::Config cfg;
    cfg.trace = on;
    cfg.metrics = on;
    obs::configure(cfg);
  }
  const std::string& trace_json() {
    if (trace_json_.empty()) trace_json_ = obs::trace_to_json();
    return trace_json_;
  }

 private:
  std::string trace_json_;
};

// ------------------------------------------------------------ offline path

std::uint64_t cycles_per_app(const HpcCollector& collector) {
  const CollectorConfig& c = collector.config();
  return collector.batches_for_all_events() *
         (c.warmup_cycles + c.samples_per_run * c.cycles_per_sample);
}

/// Profile `apps` with build_hpc_dataset; returns the dataset and records
/// the per-app and per-simulated-cycle cost.
Dataset profile_apps(Run& run, std::span<const AppSpec> apps,
                     const HpcCollector& collector) {
  const std::vector<AppSpec> batch(apps.begin(), apps.end());
  const auto t0 = Clock::now();
  Dataset d;
  {
    const obs::Span span("bench.collect");
    d = build_hpc_dataset(batch, collector);
  }
  const double s = seconds_between(t0, Clock::now());
  const auto n = static_cast<double>(batch.size());
  run.add("hpc.collect_ms_per_app", 1e3 * s / n);
  run.add("uarch.ns_per_cycle",
          1e9 * s / (n * static_cast<double>(cycles_per_app(collector))));
  return d;
}

std::shared_ptr<TwoStageHmd> train_detector(Run& run, const Dataset& train,
                                            const std::string& stage2) {
  TwoStageConfig cfg;
  cfg.stage2_model = stage2;
  auto model = std::make_shared<TwoStageHmd>(cfg);
  const auto t0 = Clock::now();
  {
    const obs::Span span("bench.train");
    model->train(train);
  }
  run.add("ml.train_ms", 1e3 * seconds_between(t0, Clock::now()));
  return model;
}

/// Trace-run probes of the learners and of quantize(): each
/// make_classifier(name)->fit on the detector's own training views (MLR on
/// the 5-class Common view, the stage-2 learners on every malware class's
/// binary Common view), and quantize() of a fresh copy of the detector.
void probe_learners(Run& run, const Dataset& train, const TwoStageHmd& model,
                    std::span<const double> max_abs) {
  const std::vector<std::size_t>& common = model.plan().common;
  const Dataset multiclass = train.select_features(common);
  std::vector<Dataset> binary;
  for (const AppClass c : kMalwareClasses)
    binary.push_back(
        train.binary_view(label_of(c), label_of(AppClass::kBenign))
            .select_features(common));
  std::ostringstream blob;
  model.save(blob);
  for (std::size_t rep = 0; rep < 3; ++rep) {
    for (const char* name : kLearners) {
      const auto t0 = Clock::now();
      {
        const obs::Span span("bench.fit");
        if (std::string_view(name) == "MLR") {
          make_classifier(name)->fit(multiclass);
        } else {
          for (const Dataset& view : binary) make_classifier(name)->fit(view);
        }
      }
      run.add(std::string("ml.fit_ms.") + name,
              1e3 * seconds_between(t0, Clock::now()));
    }
    std::istringstream in(blob.str());
    TwoStageHmd copy = TwoStageHmd::load(in);
    const auto t0 = Clock::now();
    {
      const obs::Span span("bench.quantize");
      copy.quantize(kInt8, max_abs);
    }
    run.add("ml.quantize_ms", 1e3 * seconds_between(t0, Clock::now()));
  }
}

/// Trace-run probe of the epoch kernel and its two stages over one tick's
/// block of windows, in the service's 256-row epochs.
void probe_kernels(Run& run, const TwoStageHmd& model, const double* block,
                   std::size_t n, bool quantized) {
  constexpr std::size_t nc = kCommonFeatureCount;
  constexpr std::size_t kEpoch = TwoStageHmd::kDetectEpoch;
  std::vector<double> scores(n);
  std::vector<std::uint8_t> suspected(n);
  auto t0 = Clock::now();
  {
    const obs::Span span("bench.epoch");
    for (std::size_t b = 0; b < n; b += kEpoch) {
      const std::size_t m = std::min(kEpoch, n - b);
      if (quantized) {
        model.score_epoch_quant(block + b * nc, m, nc, scores.data() + b,
                                suspected.data() + b);
      } else {
        model.score_epoch_into(block + b * nc, m, nc, scores.data() + b,
                               suspected.data() + b);
      }
    }
  }
  const auto rows = static_cast<double>(n);
  run.add("core.epoch_ns", 1e9 * seconds_between(t0, Clock::now()) / rows);

  std::vector<double> proba(n * kNumAppClasses);
  t0 = Clock::now();
  {
    const obs::Span span("bench.stage1");
    for (std::size_t b = 0; b < n; b += kEpoch)
      model.stage1_proba_batch_into(block + b * nc, std::min(kEpoch, n - b),
                                    nc, proba.data() + b * kNumAppClasses);
  }
  run.add("core.stage1_ns", 1e9 * seconds_between(t0, Clock::now()) / rows);

  // Route like score_epoch_into: a row under the benign cut goes to the
  // stage-2 detector of its likeliest malware class.
  std::array<std::vector<double>, kNumMalwareClasses> routed;
  std::size_t routed_rows = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = proba.data() + i * kNumAppClasses;
    if (p[label_of(AppClass::kBenign)] >= kRouteCut) continue;
    std::size_t best = 0;
    for (std::size_t s = 1; s < kNumMalwareClasses; ++s)
      if (p[s + 1] > p[best + 1]) best = s;
    routed[best].insert(routed[best].end(), block + i * nc,
                        block + (i + 1) * nc);
    ++routed_rows;
  }
  std::vector<double> out(n);
  t0 = Clock::now();
  {
    const obs::Span span("bench.stage2");
    for (std::size_t s = 0; s < kNumMalwareClasses; ++s) {
      const std::size_t m = routed[s].size() / nc;
      if (m != 0)
        model.stage2_score_batch_into(kMalwareClasses[s], routed[s].data(), m,
                                      nc, std::span<double>(out.data(), m));
    }
  }
  if (routed_rows != 0)
    run.add("core.stage2_ns", 1e9 * seconds_between(t0, Clock::now()) /
                                  static_cast<double>(routed_rows));
  run.add("core.route_frac", static_cast<double>(routed_rows) / rows);
}

// ------------------------------------------------------------ load generator

/// Detection quality of the scored verdicts: a verdict is a true alarm when
/// its stream runs malware (StreamFeed::class_of) and the verdict is
/// alarmed.
struct Quality {
  std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;

  double fmeasure() const {
    const double denom = static_cast<double>(2 * tp + fp + fn);
    return denom > 0.0 ? 2.0 * static_cast<double>(tp) / denom : 0.0;
  }
  double false_alarm_rate() const {
    const double benign = static_cast<double>(fp + tn);
    return benign > 0.0 ? static_cast<double>(fp) / benign : 0.0;
  }
};

/// The single-threaded load generator and verdict checker for one
/// DetectionService. Stream ids and windows for a tick are synthesized
/// into a block before the timed region; submit + tick() is the timed
/// region; the verdicts are checked between ticks.
class FleetDriver {
 public:
  struct Timing {
    Clock::time_point start, end;
    double submit_s = 0.0;
    double tick_s = 0.0;
  };

  /// `id_space` is the largest fleet the driver synthesizes; slot i's
  /// stream id is i, or under churn (generation * id_space + i). The seed
  /// salts the key each id is synthesized under, so it draws every
  /// stream's application, class, phase and jitter from the feed.
  FleetDriver(serve::DetectionService& service, const serve::StreamFeed& feed,
              const TwoStageHmd& model, std::size_t id_space, bool churn,
              bool replay, std::uint64_t seed)
      : service_(service),
        feed_(feed),
        salt_(serve::mix64(seed)),
        id_space_(id_space),
        churn_(churn),
        stride_(std::max<std::size_t>(1, id_space / kReplayStreams)),
        ids_(id_space),
        block_(id_space * kCommonFeatureCount) {
    if (!replay) return;
    lone_.reserve(kReplayStreams);
    for (std::size_t k = 0; k < kReplayStreams; ++k)
      lone_.emplace_back(model, service.config().detector);
    lone_id_.assign(kReplayStreams, kNoStream);
    expected_.resize(kReplayStreams);
    expected_seq_.assign(kReplayStreams, 0);
    pending_.assign(kReplayStreams, 0);
  }

  const double* block() const noexcept { return block_.data(); }
  void set_generation(std::uint64_t g) noexcept { generation_ = g; }
  std::uint64_t mismatches() const noexcept { return mismatches_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t submitted() const noexcept { return submitted_; }

  /// Synthesize slots [0, n) for service tick `t`, then step the replayed
  /// streams' lone detectors. Returns the seconds spent synthesizing.
  double synthesize(std::uint64_t t, std::size_t n) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      ids_[i] = churn_ ? (t + i) / kChurnLifetime * id_space_ + i : i;
      feed_.window(ids_[i] ^ salt_, t, row(i));
    }
    const double s = seconds_between(t0, Clock::now());
    for (std::size_t k = 0; k < lone_.size() && k * stride_ < n; ++k) {
      const std::size_t i = k * stride_;
      if (lone_id_[k] != ids_[i]) {
        lone_[k].reset();  // a fresh id is a fresh process
        lone_id_[k] = ids_[i];
      }
      expected_[k] = lone_[k].observe(row(i));
      expected_seq_[k] = lone_[k].windows_observed();
      pending_[k] = 1;
    }
    return s;
  }

  Timing drive(std::size_t n) {
    Timing tm;
    tm.start = Clock::now();
    {
      const obs::Span span("bench.submit");
      for (std::size_t i = 0; i < n; ++i)
        if (!service_.submit(ids_[i], row(i))) ++dropped_;
    }
    const auto mid = Clock::now();
    {
      const obs::Span span("bench.tick");
      produced_ = service_.tick();
    }
    tm.end = Clock::now();
    submitted_ += n;
    tm.submit_s = seconds_between(tm.start, mid);
    tm.tick_s = seconds_between(mid, tm.end);
    return tm;
  }

  /// Check the last tick's verdicts in canonical shard order. Verdicts of
  /// a scored tick enter `digest` and `quality` when given.
  void check_verdicts(Digest* digest, Quality* quality) {
    std::size_t seen = 0;
    for (std::size_t s = 0; s < service_.shard_count(); ++s) {
      for (const serve::StreamVerdict& v : service_.verdicts(s)) {
        ++seen;
        if (digest != nullptr) {
          digest->word(v.stream_id);
          digest->word(v.seq);
          digest->word(v.generation);
          digest->real(v.verdict.window_score);
          digest->real(v.verdict.smoothed_score);
          digest->word(
              (v.verdict.alarmed ? 1u : 0u) | (v.verdict.alarm_edge ? 2u : 0u) |
              static_cast<std::uint64_t>(v.verdict.suspected_class) << 8);
        }
        if (quality != nullptr) {
          const bool malware =
              feed_.class_of(v.stream_id ^ salt_) != AppClass::kBenign;
          if (malware) {
            if (v.verdict.alarmed) ++quality->tp;
            else ++quality->fn;
          } else {
            if (v.verdict.alarmed) ++quality->fp;
            else ++quality->tn;
          }
        }
        if (v.generation != generation_) ++mismatches_;
        const std::size_t slot = v.stream_id % id_space_;
        const std::size_t k = slot / stride_;
        if (slot % stride_ == 0 && k < lone_.size() && pending_[k] != 0 &&
            lone_id_[k] == v.stream_id) {
          pending_[k] = 0;
          if (!same_verdict(v, expected_[k]) || v.seq != expected_seq_[k])
            ++mismatches_;
        }
      }
    }
    if (seen != produced_) ++mismatches_;
    for (std::uint8_t& p : pending_) {
      if (p != 0) ++mismatches_;  // a replayed stream got no verdict
      p = 0;
    }
  }

 private:
  static constexpr std::uint64_t kNoStream = ~std::uint64_t{0};

  std::span<double> row(std::size_t i) {
    return {block_.data() + i * kCommonFeatureCount, kCommonFeatureCount};
  }

  static bool same_verdict(const serve::StreamVerdict& v,
                           const OnlineDetector::WindowVerdict& e) {
    return std::bit_cast<std::uint64_t>(v.verdict.window_score) ==
               std::bit_cast<std::uint64_t>(e.window_score) &&
           std::bit_cast<std::uint64_t>(v.verdict.smoothed_score) ==
               std::bit_cast<std::uint64_t>(e.smoothed_score) &&
           v.verdict.alarmed == e.alarmed &&
           v.verdict.alarm_edge == e.alarm_edge &&
           v.verdict.suspected_class == e.suspected_class;
  }

  serve::DetectionService& service_;
  const serve::StreamFeed& feed_;
  const std::uint64_t salt_;
  const std::size_t id_space_;
  const bool churn_;
  const std::size_t stride_;
  std::vector<std::uint64_t> ids_;
  std::vector<double> block_;
  std::vector<OnlineDetector> lone_;
  std::vector<std::uint64_t> lone_id_;
  std::vector<OnlineDetector::WindowVerdict> expected_;
  std::vector<std::uint64_t> expected_seq_;
  std::vector<std::uint8_t> pending_;
  std::uint64_t generation_ = 1;
  std::size_t produced_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t submitted_ = 0;
};

// ------------------------------------------------------------ deployment

/// A trained detector serving a synthetic fleet.
struct Deployment {
  std::shared_ptr<TwoStageHmd> model;
  Dataset train;
  std::vector<double> max_abs;
  std::unique_ptr<serve::StreamFeed> feed;
  std::unique_ptr<serve::DetectionService> service;
  std::unique_ptr<FleetDriver> driver;
  bool quantized = false;
  /// Next service tick the generator synthesizes windows for.
  std::uint64_t next_tick = 1;
};

/// Trace the window bank a fleet draws from: per-window counts of the
/// `common` events for 8 applications of each class, 32 windows each.
std::unique_ptr<serve::StreamFeed> trace_bank(
    Run& run, std::span<const std::size_t> common, std::size_t streams) {
  serve::FeedConfig fc;
  fc.streams = streams;
  fc.profiles_per_class = 8;
  fc.bank_windows = 32;
  fc.seed = kReferenceSeed;
  const auto t0 = Clock::now();
  std::unique_ptr<serve::StreamFeed> feed;
  {
    const obs::Span span("bench.trace");
    feed = std::make_unique<serve::StreamFeed>(fc, HpcCollector{}, common);
  }
  run.add("hpc.trace_us_per_window",
          1e6 * seconds_between(t0, Clock::now()) /
              static_cast<double>(kNumAppClasses * fc.profiles_per_class *
                                  fc.bank_windows));
  return feed;
}

/// Start the service over the deployment's model and feed, and its driver,
/// and run the warm ticks (first admissions, arena growth).
void start_fleet(Run& run, Deployment& d, std::size_t id_space,
                 std::size_t warm_streams, bool churn) {
  serve::ServeConfig cfg;  // 8 shards, drop-newest, default detector
  const std::size_t per_shard = (id_space + cfg.shards - 1) / cfg.shards;
  cfg.queue_capacity = 2 * per_shard;
  cfg.max_streams_per_shard = 2 * per_shard;
  cfg.evict_after_ticks = churn ? kEvictAfterTicks : 0;
  cfg.quantized = d.quantized;
  d.service = std::make_unique<serve::DetectionService>(d.model, cfg);
  // The lone-detector oracle scores on the double path only.
  d.driver = std::make_unique<FleetDriver>(*d.service, *d.feed, *d.model,
                                           id_space, churn, !d.quantized,
                                           run.seed);
  for (std::size_t w = 0; w < kWarmTicks; ++w) {
    d.driver->synthesize(d.next_tick++, warm_streams);
    d.driver->drive(warm_streams);
    d.driver->check_verdicts(nullptr, nullptr);
  }
}

/// The serving workloads' set-up: profile the reference corpus, train the
/// J48 two-stage detector, quantize it (int8), and start the fleet.
Deployment set_up_serving(Run& run, std::size_t id_space,
                          std::size_t warm_streams) {
  const Workload& w = run.workload;
  Deployment d;
  CorpusConfig cc;
  cc.scale = kServeCorpusScale;
  cc.seed = kReferenceSeed;
  const std::vector<AppSpec> corpus = build_corpus(cc);
  const Dataset data = profile_apps(run, corpus, HpcCollector{});
  Rng split_rng(kReferenceSeed ^ 0x517ULL);
  d.train = data.stratified_split(0.6, split_rng).first;
  d.model = train_detector(run, d.train, "J48");
  d.max_abs = feature_max_abs(d.train);
  if (w.int8) {
    const obs::Span span("bench.quantize");
    d.model->quantize(kInt8, d.max_abs);
    d.quantized = true;
  }
  d.feed = trace_bank(run, d.model->plan().common, id_space);
  start_fleet(run, d, id_space, warm_streams, w.churn);
  return d;
}

/// Round-trip hot swap: load the serialized detector (quantize it again
/// on int8) and swap it in. Returns seconds spent in load + swap_model.
double hot_swap(Deployment& d) {
  std::ostringstream blob;
  d.model->save(blob);
  std::istringstream in(blob.str());
  const auto t0 = Clock::now();
  auto next = std::make_shared<TwoStageHmd>(TwoStageHmd::load(in));
  if (d.quantized) next->quantize(kInt8, d.max_abs);
  d.service->swap_model(std::move(next));
  return seconds_between(t0, Clock::now());
}

// ------------------------------------------------------------ serving loop

/// One fleet size of a serving loop.
struct Step {
  std::size_t streams;
  /// Ticks to run; 0 = closed loop, run for the workload's seconds.
  std::size_t ticks;
  /// Leading ticks whose verdicts enter the digest (and, on the reference
  /// step, the F-measure).
  std::size_t scored;
  /// The step the metrics describe.
  bool reference;
};

struct LoopResult {
  double busy_s = 0.0;     // median submit + tick() wall time, untraced
  double latency_s = 0.0;  // median verdict latency, untraced
  std::size_t streams = 0;
  Quality quality;
  std::uint64_t digest = 0;
};

/// Drive `steps` through the deployment. `period` == 0 is a closed loop:
/// each tick is submitted as soon as the previous one returned, and a
/// verdict's latency runs from the tick's first submit. Otherwise the loop
/// is open: every window is due at a period boundary, the generator spins
/// to each due time, and latency runs from the due time to tick() return.
LoopResult serve_loop(Run& run, Deployment& d, std::span<const Step> steps,
                      Clock::duration period) {
  FleetDriver& fleet = *d.driver;
  const bool open = period.count() > 0;
  Digest digest;
  LoopResult out;
  std::vector<double> busy_plain, busy_traced, latency_plain;
  std::vector<double> submit_ns, tick_ns, tick_ms, verdict_ms, late_ms;
  double swap_s = 0.0;
  std::optional<double> post_swap_busy;
  bool post_swap_traced = false;
  std::size_t sustained = 0;
  std::size_t m = 0;  // measured tick, across steps
  for (const Step& step : steps) {
    const auto n = static_cast<double>(step.streams);
    std::vector<double> step_latency, step_late;
    const serve::ServeStats before = d.service->stats();
    const auto start = Clock::now();
    auto due = start + period;
    Clock::time_point last_end = start;
    std::size_t k = 0;
    for (;; ++k, ++m) {
      if (step.ticks != 0 ? k >= step.ticks
                          : k >= step.scored &&
                                seconds_between(start, Clock::now()) >=
                                    run.seconds)
        break;
      const bool traced = run.begin_tick(m);
      const bool swap_now = step.reference && k == step.scored / 2;
      if (swap_now) {
        swap_s = hot_swap(d);
        fleet.set_generation(d.service->generation());
      }
      const double synth_s = fleet.synthesize(d.next_tick++, step.streams);
      if (open)
        while (Clock::now() < due) {
        }
      const FleetDriver::Timing tm = fleet.drive(step.streams);
      const auto origin = open ? due : tm.start;
      const double busy = seconds_between(tm.start, tm.end);
      const double latency = seconds_between(origin, tm.end);
      const double late = seconds_between(open ? due : last_end, tm.start);
      const bool scored = k < step.scored;
      fleet.check_verdicts(scored ? &digest : nullptr,
                           scored && step.reference ? &out.quality : nullptr);
      step_latency.push_back(1e3 * latency);
      step_late.push_back(1e3 * late);
      if (step.reference) {
        if (swap_now) {
          post_swap_busy = busy;
          post_swap_traced = traced;
        }
        (traced ? busy_traced : busy_plain).push_back(busy);
        if (!traced) latency_plain.push_back(latency);
        if (traced || !run.trace) {
          submit_ns.push_back(1e9 * tm.submit_s / n);
          tick_ns.push_back(1e9 * tm.tick_s / n);
          tick_ms.push_back(1e3 * tm.tick_s);
          verdict_ms.push_back(1e3 * latency);
          late_ms.push_back(1e3 * late);
          run.add("loadgen.synth_ns", 1e9 * synth_s / n);
        }
        if (traced && k % kProbeEvery == 0)
          probe_kernels(run, *d.model, fleet.block(), step.streams,
                        d.quantized);
      }
      run.end_tick(m);
      if (step.reference) run.host.measure();
      // Closed loop: the generator is late by the time it takes to
      // produce the next tick, not by the checks and probes above.
      last_end = Clock::now();
      due += period;
    }
    const serve::ServeStats after = d.service->stats();
    const auto ticks = static_cast<double>(k);
    if (step.reference) {
      out.streams = step.streams;
      run.add("serve.admits_per_tick",
              static_cast<double>(after.admitted - before.admitted) / ticks);
      run.add("serve.evicts_per_tick",
              static_cast<double>(after.evicted - before.evicted) / ticks);
    }
    if (open) {
      // A fleet size is sustained when its verdicts meet the 10 ms
      // sampling period at p98, nothing was dropped, and the generator
      // kept its schedule.
      const double p98 = quantile_of(step_latency, 0.98);
      const double late98 = quantile_of(step_late, 0.98);
      const std::string key = "rate_" + std::to_string(step.streams);
      run.note(key + "_verdict_ms_p50", json_number(median_of(step_latency)));
      run.note(key + "_verdict_ms_p98", json_number(p98));
      run.note(key + "_late_ms_p98", json_number(late98));
      run.note(key + "_ticks", std::to_string(k));
      if (p98 <= 10.0 && late98 <= 1.0 && after.dropped == before.dropped)
        sustained = std::max(sustained, step.streams);
    } else {
      run.note("measured_ticks", std::to_string(k));
    }
  }
  if (open) run.note("sustained_streams", std::to_string(sustained));

  out.busy_s = median_of(busy_plain);
  out.latency_s = median_of(latency_plain);
  out.digest = digest.value();
  run.add("serve.submit_ns", median_of(submit_ns));
  run.add("serve.tick_ns", median_of(tick_ns));
  run.add("serve.tick_ms_p98", quantile_of(tick_ms, 0.98));
  run.add("serve.verdict_ms_p98", quantile_of(verdict_ms, 0.98));
  run.add("loadgen.late_ms_p98", quantile_of(late_ms, 0.98));
  run.add("serve.false_alarm_rate", out.quality.false_alarm_rate());
  if (post_swap_busy) {
    const double usual =
        median_of(post_swap_traced ? busy_traced : busy_plain);
    run.add("serve.swap_ms",
            1e3 * (swap_s + std::max(0.0, *post_swap_busy - usual)));
  }
  if (run.trace)
    run.add("obs.trace_overhead_frac",
            1.0 - median_of(busy_plain) / median_of(busy_traced));
  if (const auto it = run.samples.find("core.epoch_ns");
      it != run.samples.end())
    run.add("serve.overhead_ns", median_of(tick_ns) - median_of(it->second));
  return out;
}

/// Closing checks every serving loop shares: the accounting identity, the
/// lone-detector replay, and the verdict digest in the results file.
void finish_serving(Run& run, const Deployment& d, const LoopResult& r) {
  const serve::ServeStats st = d.service->stats();
  run.check(st.submitted == st.verdicts + st.dropped,
            "accounting: submitted != verdicts + dropped");
  run.check(st.dropped == 0, "windows dropped");
  run.check(d.driver->mismatches() == 0,
            "verdicts differ from the lone-detector replay, the generation "
            "or the tick's verdict count");
  run.attempted += d.driver->submitted();
  run.failed += d.driver->dropped() + d.driver->mismatches();
  run.note("verdict_digest", json_string(hex(r.digest)));
  run.note("model_digest", json_string(hex(model_digest(*d.model))));
  run.note("streams", std::to_string(r.streams));
  run.note("shards", std::to_string(d.service->shard_count()));
  run.note("generation", std::to_string(d.service->generation()));
  run.note("false_alarm_rate",
           json_number(r.quality.false_alarm_rate()));
}

/// Time the host reference after a set-up repetition, outside its timing.
void measure_setup_host(Run& run) {
  for (std::size_t i = 0; i < kSetupProbes; ++i) run.host.measure();
}

/// Report the timings at the host reference's nominal speed: set-up by the
/// reference measured after each set-up (the first `loop_first`
/// measurements), serving by the one measured between ticks. A timing t
/// is reported as t / slowdown^host_exponent. The raw values go to the
/// results file beside the slowdowns.
void report_timings(Run& run, const std::vector<double>& setup_s,
                    std::size_t loop_first, const LoopResult& r) {
  const double setup_slowdown = run.host.slowdown(0, loop_first);
  const double loop_slowdown = run.host.slowdown(loop_first, run.host.count());
  const double exponent = run.workload.host_exponent;
  const double setup_scale = std::pow(setup_slowdown, exponent);
  const double loop_scale = std::pow(loop_slowdown, exponent);
  const double samples_per_s = static_cast<double>(r.streams) / r.busy_s;
  run.add("setup_s", median_of(setup_s) / setup_scale);
  run.add("samples_per_s", samples_per_s * loop_scale);
  run.add("verdict_ms_p50", 1e3 * r.latency_s / loop_scale);
  run.note("setup_s_raw", json_number(median_of(setup_s)));
  run.note("samples_per_s_raw", json_number(samples_per_s));
  run.note("verdict_ms_p50_raw", json_number(1e3 * r.latency_s));
  run.note("setup_slowdown", json_number(setup_slowdown));
  run.note("host_slowdown", json_number(loop_slowdown));
  run.note("host_samples", std::to_string(run.host.count()));
  run.note("host_checksum", json_number(run.host.checksum()));
}

// ------------------------------------------------------------ workloads

void run_serving(Run& run) {
  const Workload& w = run.workload;
  const bool open = w.kind == Kind::kRealtime;
  const std::size_t id_space = open ? kRates[2].streams : w.streams;

  // Set up several times and keep the last: setup_s is the median, and
  // every repetition must build the same detector and the same verdicts.
  std::optional<Deployment> d;
  std::vector<double> setup_s;
  std::uint64_t first_model = 0;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    d.reset();  // one deployment alive at a time, so peak RSS stays one
    const auto t0 = Clock::now();
    d.emplace(set_up_serving(run, id_space, w.streams));
    setup_s.push_back(seconds_between(t0, Clock::now()));
    measure_setup_host(run);
    const std::uint64_t md = model_digest(*d->model);
    if (rep == 0) first_model = md;
    run.check(md == first_model, "set-up is not deterministic");
  }
  const std::size_t loop_first = run.host.count();
  if (run.trace) probe_learners(run, d->train, *d->model, d->max_abs);

  std::vector<Step> steps;
  if (open) {
    for (const RateStep& r : kRates) {
      const auto ticks = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::lround(run.seconds * r.share / 0.010)));
      steps.push_back({r.streams, ticks, ticks, r.streams == w.streams});
    }
  } else {
    steps.push_back({w.streams, 0, kScoredTicks, true});
  }
  const LoopResult r = serve_loop(
      run, *d, steps,
      open ? Clock::duration(kPeriod) : Clock::duration::zero());
  finish_serving(run, *d, r);
  report_timings(run, setup_s, loop_first, r);
  run.add("fmeasure", r.quality.fmeasure());
}

void run_profile_train(Run& run) {
  CorpusConfig cc;
  cc.scale = kProfileCorpusScale;
  cc.seed = kReferenceSeed;
  const HpcCollector collector;
  const std::size_t streams = run.workload.streams;
  std::vector<AppSpec> corpus;
  std::vector<std::size_t> common;
  std::unique_ptr<serve::StreamFeed> bank;
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    // Set-up builds the corpus, warms the simulator on the first app of
    // each class, and traces the deployment fleet's window bank over the
    // run-time events (Table II's Common set, fixed by the paper).
    const auto t0 = Clock::now();
    corpus = build_corpus(cc);
    std::vector<AppSpec> warm;
    for (const AppSpec& app : corpus)
      if (warm.empty() || warm.back().profile.app_class != app.profile.app_class)
        warm.push_back(app);
    common = paper_feature_plan(build_hpc_dataset(warm, collector)).common;
    bank = trace_bank(run, common, streams);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    measure_setup_host(run);
  }
  const std::size_t loop_first = run.host.count();

  // Profile the corpus through build_hpc_dataset, a chunk at a time.
  Dataset data;
  for (std::size_t a = 0; a < corpus.size(); a += kProfileChunk) {
    const std::span<const AppSpec> chunk(
        corpus.data() + a, std::min(kProfileChunk, corpus.size() - a));
    Dataset part = profile_apps(run, chunk, collector);
    if (a == 0) data = std::move(part);
    else data.append(part);
  }
  run.attempted += corpus.size();
  run.note("dataset_digest", json_string(hex(dataset_digest(data))));
  run.note("apps", std::to_string(corpus.size()));

  // Train the paper's detector (per-class auto-selected stage 2) on
  // seed-drawn 60/40 splits and score each on its held-out 40%.
  double f_sum = 0.0;
  for (std::size_t i = 0; i < kTrainReps; ++i) {
    Rng rng(run.seed * 0x9e3779b97f4a7c15ULL + i);
    const auto [train, test] = data.stratified_split(0.6, rng);
    const auto model = train_detector(run, train, "");
    const TwoStageEval eval = evaluate_two_stage(*model, test);
    double f = 0.0;
    for (const BinaryEval& e : eval.per_class) f += e.f_measure;
    f_sum += f / static_cast<double>(kNumMalwareClasses);
  }
  run.add("fmeasure", f_sum / static_cast<double>(kTrainReps));

  // Deploy a J48 detector trained on the whole profiled corpus to the
  // fleet (J48, as on the serving workloads, so the per-window work does
  // not depend on what a split's selection picked).
  Deployment d;
  d.train = std::move(data);
  TwoStageConfig j48;
  j48.stage2_model = "J48";
  d.model = std::make_shared<TwoStageHmd>(j48);
  d.model->train(d.train);
  d.max_abs = feature_max_abs(d.train);
  if (run.trace) probe_learners(run, d.train, *d.model, d.max_abs);
  run.check(d.model->plan().common == common,
            "the detector's run-time events differ from the window bank's");
  d.feed = std::move(bank);
  start_fleet(run, d, streams, streams, false);
  const Step step{streams, kDeployTicks, kDeployTicks, true};
  const LoopResult r = serve_loop(run, d, std::span<const Step>(&step, 1),
                                  Clock::duration::zero());
  finish_serving(run, d, r);
  report_timings(run, setup_s, loop_first, r);
}

// ------------------------------------------------------------ output

std::string metrics_json(const Run& run, std::span<const MetricDef> defs,
                         std::vector<std::string>* missing) {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& def : defs) {
    double value = std::nan("");
    if (const auto it = run.samples.find(def.name); it != run.samples.end())
      value = median_of(it->second);
    if (!std::isfinite(value)) {
      missing->push_back(def.name);
      continue;
    }
    if (!first) out += ", ";
    first = false;
    out += json_string(def.name) + ": {\"value\": " + json_number(value) +
           ", \"unit\": " + json_string(def.unit) +
           ", \"samples\": " +
           std::to_string(run.samples.at(def.name).size()) + "}";
  }
  return out + "}";
}

bool write_results(Run& run, const std::string& path) {
  std::vector<std::string> missing;
  const std::string metrics =
      run.trace ? metrics_json(run, kPerLayer, &missing)
                : metrics_json(run, kEndToEnd, &missing);
  for (const std::string& name : missing)
    run.check(false, "metric not measured: " + name);

  std::string out = "{";
  out += "\"workload\": " + json_string(run.workload.name);
  out += ", \"seed\": " + std::to_string(run.seed);
  out += ", \"seconds\": " + json_number(run.seconds);
  out += ", \"trace\": " + std::string(run.trace ? "true" : "false");
  out += ", \"correct\": " +
         std::string(run.failures.empty() ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failed);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < run.failures.size(); ++i)
    out += (i == 0 ? "" : ", ") + json_string(run.failures[i]);
  out += "]";
  out += ", \"isa\": " + json_string(simd::active_isa());
  out += ", \"lanes\": " + std::to_string(parallel::thread_count());
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"metrics\": " + metrics;
  out += ", \"info\": {";
  for (std::size_t i = 0; i < run.info.size(); ++i)
    out += (i == 0 ? "" : ", ") + json_string(run.info[i].first) + ": " +
           run.info[i].second;
  out += "}}\n";
  std::ofstream file(path, std::ios::trunc);
  file << out;
  return static_cast<bool>(file);
}

int usage() {
  std::fprintf(stderr,
               "usage: smart2_e2e --workload NAME --seed N --seconds S "
               "--out FILE [--trace --trace-out FILE]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  double seconds = 8.0;
  bool trace = false;
  std::string out_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      trace = true;
    } else if (arg == "--workload" && has_value) {
      const std::string_view name(argv[++i]);
      for (const Workload& w : kWorkloads)
        if (name == w.name) workload = &w;
      if (workload == nullptr) return usage();
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      trace_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (workload == nullptr || out_path.empty() || !(seconds > 0.0) ||
      (trace && trace_path.empty()))
    return usage();

  try {
    // One lane for every workload: on a shared host a two-lane tick waits
    // on the second lane's wake-up, which spread the realtime timings
    // 12-33% run to run (README, "Calibration").
    parallel::set_thread_count(1);
    Run run(*workload, seed, seconds, trace);
    run.set_obs(trace);
    if (workload->kind == Kind::kProfileTrain) run_profile_train(run);
    else run_serving(run);
    run.add("peak_rss_mb", peak_rss_mib());
    if (trace) {
      std::ofstream file(trace_path, std::ios::trunc);
      file << run.trace_json();
      run.check(static_cast<bool>(file), "cannot write " + trace_path);
    }
    if (!write_results(run, out_path)) {
      std::fprintf(stderr, "smart2_e2e: cannot write %s\n", out_path.c_str());
      return 2;
    }
    for (const std::string& f : run.failures)
      std::fprintf(stderr, "smart2_e2e: FAILED: %s\n", f.c_str());
    return run.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smart2_e2e: %s\n", e.what());
    return 2;
  }
}
