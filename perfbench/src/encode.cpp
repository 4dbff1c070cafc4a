// Workload `encode`: the closed-loop, offline Fig. 9 sweep. One synthetic
// clip is encoded once per SAD configuration (AccuSAD plus ApxSAD1..5 at
// 2, 4 and 6 approximated LSBs), on one encoder worker, with the frame
// loop driven from here so each inter frame is timed on its own. Almost
// all of the time is motion search inside SadUnit::sad_batch, so this is
// the workload on which the accel/arith layers show; it bypasses service,
// cluster, logic and error.
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "axc/accel/sad.hpp"
#include "axc/accel/sad_netlist.hpp"
#include "axc/common/rng.hpp"
#include "axc/video/encoder.hpp"
#include "axc/video/sequence.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using axc::accel::SadUnit;
using axc::video::EncodeStats;
using axc::video::FrameResult;

// Workload shape. The self-guard below checks the SAD-candidate count the
// library reports against these, so the workload cannot drift silently.
constexpr int kWidth = 32;
constexpr int kHeight = 32;
constexpr int kFrames = 5;  // 1 intra + 4 inter frames per clip
constexpr int kBlock = 8;
constexpr int kRange = 4;
constexpr std::size_t kConfigs = 16;
constexpr std::uint64_t kWindow = (2 * kRange + 1) * (2 * kRange + 1);
constexpr std::uint64_t kBlocksPerFrame =
    static_cast<std::uint64_t>(kWidth / kBlock) * (kHeight / kBlock);
// Adds behind one candidate SAD of a 64-pixel block: two subtracts per
// pixel in the absolute-difference stage plus 63 adder-tree adds.
constexpr std::uint64_t kAddsPerCandidate = 2 * 64 + 63;
constexpr double kTailPercentile = 95.0;
// Throughput and latency_p50_ms are medians over passes (the clip once
// under every config), so a host stall in a minority of passes does not
// move them. latency_p50_ms is the median of each pass's mean inter-frame
// time: the configs differ in cost, and the median of single frames fell
// in a gap between two groups of configs and jumped between them (28 or
// 42 ms) from run to run.
constexpr std::size_t kMinPasses = 5;
constexpr int kMinSetupReps = 21;
constexpr int kNetlistProbeBlocks = 2;  // current blocks per config
constexpr int kNetlistProbeCandidates = 64;

struct Clip {
  axc::video::Sequence frames;
  std::vector<std::unique_ptr<axc::accel::SadAccelerator>> units;
};

Clip build_clip(std::uint64_t seed) {
  axc::video::SequenceConfig sc;
  sc.width = kWidth;
  sc.height = kHeight;
  sc.frames = kFrames;
  sc.seed = seed;
  Clip clip;
  clip.frames = axc::video::generate_sequence(sc);
  clip.units.push_back(
      std::make_unique<axc::accel::SadAccelerator>(axc::accel::accu_sad()));
  for (int variant = 1; variant <= 5; ++variant) {
    for (const unsigned lsbs : {2u, 4u, 6u}) {
      clip.units.push_back(std::make_unique<axc::accel::SadAccelerator>(
          axc::accel::apx_sad_variant(variant, lsbs)));
    }
  }
  return clip;
}

axc::video::EncoderConfig encoder_config() {
  axc::video::EncoderConfig config;
  config.motion.block_size = kBlock;
  config.motion.search_range = kRange;
  config.threads = 1;
  return config;
}

bool same_stats(const EncodeStats& a, const EncodeStats& b) {
  return a.total_bits == b.total_bits && a.sad_calls == b.sad_calls &&
         std::bit_cast<std::uint64_t>(a.psnr_db) ==
             std::bit_cast<std::uint64_t>(b.psnr_db);
}

/// A plain exact SAD, independent of the library's adder models.
class ExactSad final : public SadUnit {
 public:
  unsigned block_pixels() const override { return kBlock * kBlock; }
  std::uint64_t sad(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const override {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      sum += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    }
    return sum;
  }
  std::string name() const override { return "BenchExactSad"; }
  bool is_exact() const override { return true; }
  bool is_concurrent_safe() const override { return true; }
};

/// The request id (frame ordinal) the timing decorator stamps on spans.
std::uint64_t g_frame = 0;

/// Timing decorator: one span per sad_batch call, everything forwarded.
class TimingSadUnit final : public SadUnit {
 public:
  explicit TimingSadUnit(const SadUnit& inner) : inner_(inner) {}
  unsigned block_pixels() const override { return inner_.block_pixels(); }
  // The encoder's motion search calls only sad_batch; the self-guard on
  // the candidate count would catch a path that bypassed it.
  std::uint64_t sad(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const override {
    return inner_.sad(a, b);
  }
  void sad_batch(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> candidates,
                 std::span<std::uint64_t> out) const override {
    const trace::Scoped span("accel.sad_batch", g_frame);
    inner_.sad_batch(a, candidates, out);
  }
  std::string name() const override { return inner_.name(); }
  bool is_exact() const override { return inner_.is_exact(); }
  bool is_concurrent_safe() const override {
    return inner_.is_concurrent_safe();
  }

 private:
  const SadUnit& inner_;
};

struct Phase {
  EndToEnd e2e;
  std::uint64_t clips = 0;
  std::uint64_t frames = 0;
  std::uint64_t failed_frames = 0;
  std::uint64_t inter_bits = 0;
  axc::obs::Snapshot before;  ///< obs registry around the timed loop
  axc::obs::Snapshot after;
};

/// Encodes whole passes (the clip once under every config) until \p seconds
/// have passed, kMinPasses passes are done and the tail percentile has 10
/// frames beyond it; every clip's EncodeStats must equal \p reference's.
/// Whole passes keep the config mix, and so the latency distribution, the
/// same in every run.
Phase timed_phase(const Clip& clip, const std::vector<const SadUnit*>& units,
                  const std::vector<EncodeStats>& reference, double seconds,
                  Result& result) {
  const axc::video::EncoderConfig config = encoder_config();
  Phase phase;
  std::vector<double> latency_ms;
  std::vector<double> pass_frames_per_s;
  std::vector<double> pass_mean_ms;
  phase.before = axc::obs::snapshot();
  const std::int64_t start = trace::now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t pass_start = start;
  double pass_inter_ms = 0.0;
  while (phase.clips % units.size() != 0 || trace::now_ns() < deadline ||
         phase.clips < kMinPasses * units.size() ||
         samples_beyond(latency_ms.size(), kTailPercentile) < 10) {
    const std::size_t c = phase.clips % units.size();
    EncodeStats stats;
    double mse_sum = 0.0;
    std::uint64_t mse_pixels = 0;
    FrameResult frame =
        axc::video::encode_intra_frame(config, clip.frames.front());
    stats.total_bits += frame.bits;
    for (std::size_t f = 1; f < clip.frames.size(); ++f) {
      const axc::image::Image& current = clip.frames[f];
      g_frame = phase.frames + f;
      const std::int64_t t0 = trace::now_ns();
      FrameResult next = [&] {
        const trace::Scoped span("video.encode_inter_frame", g_frame);
        return axc::video::encode_inter_frame(config, *units[c], current,
                                              frame.reconstruction);
      }();
      latency_ms.push_back(static_cast<double>(trace::now_ns() - t0) / 1e6);
      pass_inter_ms += latency_ms.back();
      stats.total_bits += next.bits;
      stats.sad_calls += next.sad_calls;
      phase.inter_bits += next.bits;
      // Same accumulation as Encoder::encode, so PSNR compares bit-exactly.
      mse_sum += axc::image::image_mse(current, next.reconstruction) *
                 static_cast<double>(current.width()) * current.height();
      mse_pixels +=
          static_cast<std::uint64_t>(current.width()) * current.height();
      frame = std::move(next);
    }
    const double mse = mse_sum / static_cast<double>(mse_pixels);
    stats.psnr_db = mse == 0.0 ? std::numeric_limits<double>::infinity()
                               : 10.0 * std::log10(255.0 * 255.0 / mse);
    phase.frames += clip.frames.size();
    ++phase.clips;
    if (phase.clips % units.size() == 0) {  // a pass is complete
      const std::int64_t now = trace::now_ns();
      const auto clips = static_cast<double>(units.size());
      const double pass_s = static_cast<double>(now - pass_start) / 1e9;
      pass_frames_per_s.push_back(clips * kFrames / pass_s);
      pass_mean_ms.push_back(pass_inter_ms / (clips * (kFrames - 1)));
      pass_start = now;
      pass_inter_ms = 0.0;
    }
    if (!same_stats(stats, reference[c])) {
      phase.failed_frames += clip.frames.size();
      result.fail("frame loop differs from Encoder::encode for " +
                  units[c]->name());
    }
  }
  phase.after = axc::obs::snapshot();
  phase.e2e.peak_rss_mb = peak_rss_mb();
  phase.e2e.throughput_ops_s = median(pass_frames_per_s);
  phase.e2e.latency_p50_ms = median(pass_mean_ms);
  phase.e2e.latency_tail_ms =
      tail_latency_ms(result, latency_ms, kTailPercentile);
  return phase;
}

/// Approximate SADs must equal the structural netlist's of the same
/// config on seeded candidate blocks (independent of the behavioural
/// adder arithmetic).
void check_against_netlists(const Clip& clip, std::uint64_t seed,
                            Result& result) {
  axc::Rng rng(seed ^ 0x5AD5AD5AD5ULL);
  const auto gather = [&](const axc::image::Image& img, int x, int y,
                          std::vector<std::uint8_t>& out) {
    for (int dy = 0; dy < kBlock; ++dy) {
      for (int dx = 0; dx < kBlock; ++dx) out.push_back(img.at(x + dx, y + dy));
    }
  };
  const auto pos = [&](int extent) {
    return static_cast<int>(
        rng.below(static_cast<std::uint64_t>(extent - kBlock + 1)));
  };
  for (const auto& unit : clip.units) {
    const axc::accel::NetlistSad netlist(unit->config());
    for (int b = 0; b < kNetlistProbeBlocks; ++b) {
      const std::size_t f = 1 + rng.below(kFrames - 1);
      std::vector<std::uint8_t> current;
      std::vector<std::uint8_t> candidates;
      gather(clip.frames[f], pos(kWidth), pos(kHeight), current);
      for (int i = 0; i < kNetlistProbeCandidates; ++i) {
        gather(clip.frames[f - 1], pos(kWidth), pos(kHeight), candidates);
      }
      std::vector<std::uint64_t> want(kNetlistProbeCandidates);
      std::vector<std::uint64_t> got(kNetlistProbeCandidates);
      netlist.sad_batch(current, candidates, want);
      unit->sad_batch(current, candidates, got);
      if (want != got) {
        result.fail(unit->name() + " SADs differ from its netlist");
      }
    }
  }
}

}  // namespace

void run_encode(const Args& args, Result& result) {
  Clip clip;
  const double setup_s = median_setup_s(
      kMinSetupReps, [&](int) { clip = build_clip(args.seed); },
      [&](int) { clip = Clip{}; });

  // Correctness references, outside every timed region.
  const axc::video::EncoderConfig config = encoder_config();
  std::vector<EncodeStats> reference;
  std::vector<const SadUnit*> plain;
  for (const auto& unit : clip.units) {
    reference.push_back(axc::video::Encoder(config, *unit).encode(clip.frames));
    plain.push_back(unit.get());
  }
  const ExactSad exact;
  if (!same_stats(axc::video::Encoder(config, exact).encode(clip.frames),
                  reference.front())) {
    result.fail("AccuSAD encode differs from a plain exact SAD encode");
  }
  check_against_netlists(clip, args.seed, result);
  if (clip.units.size() != kConfigs) result.fail("expected 16 SAD configs");

  const Phase phase =
      timed_phase(clip, plain, reference, args.seconds, result);
  EndToEnd e2e = phase.e2e;
  e2e.setup_s = setup_s;
  result.attempted += phase.frames;
  result.failed += phase.failed_frames;

  // Self-guard: the library must have evaluated exactly the candidates
  // this workload's shape implies.
  const std::uint64_t want_candidates =
      phase.clips * (kFrames - 1) * kBlocksPerFrame * kWindow;
  const ObsDelta delta(phase.before, phase.after);
  if (delta.counter("accel.sad_batch.candidates") !=
      static_cast<double>(want_candidates)) {
    std::ostringstream msg;
    msg << "self-guard: " << delta.counter("accel.sad_batch.candidates")
        << " SAD candidates, expected " << want_candidates;
    result.fail(msg.str());
  }
  {
    std::ostringstream note;
    note << "encode: " << phase.clips << " clips of " << kWidth << "x"
         << kHeight << "x" << kFrames << " over " << kConfigs
         << " configs, " << phase.frames << " frames, tail = p"
         << kTailPercentile;
    result.note(note.str());
  }

  if (!args.trace) {
    set_end_to_end(result, e2e);
    return;
  }

  // Traced phase: the same loop through timing decorators.
  std::vector<std::unique_ptr<TimingSadUnit>> timed;
  std::vector<const SadUnit*> traced_units;
  for (const auto& unit : clip.units) {
    timed.push_back(std::make_unique<TimingSadUnit>(*unit));
    traced_units.push_back(timed.back().get());
  }
  trace::clear();
  trace::set_enabled(true);
  const Phase tphase =
      timed_phase(clip, traced_units, reference, args.seconds, result);
  trace::set_enabled(false);
  result.attempted += tphase.frames;
  result.failed += tphase.failed_frames;

  const auto totals = trace::totals(trace::spans());
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? trace::NameTotals{} : it->second;
  };
  const trace::NameTotals frames = get("video.encode_inter_frame");
  const trace::NameTotals sad = get("accel.sad_batch");
  const ObsDelta td(tphase.before, tphase.after);
  const double candidates = td.counter("accel.sad_batch.candidates");
  const double adds = candidates * static_cast<double>(kAddsPerCandidate);
  result.set("video.inter_frames", static_cast<double>(frames.count), "count");
  const double per_frame =
      frames.count > 0 ? 1e6 * static_cast<double>(frames.count) : 1.0;
  result.set("video.frame_ms", static_cast<double>(frames.total_ns) / per_frame,
             "ms");
  result.set("video.self_ms", static_cast<double>(frames.self_ns) / per_frame,
             "ms");
  result.set("video.bits", static_cast<double>(tphase.inter_bits), "bits");
  result.set("accel.sad_batch.calls", td.counter("accel.sad_batch.calls"),
             "count");
  result.set("accel.sad_batch.candidates", candidates, "count");
  result.set("accel.sad_batch.busy_ms",
             static_cast<double>(sad.total_ns) / 1e6, "ms");
  result.set("accel.ns_per_candidate",
             candidates > 0 ? static_cast<double>(sad.total_ns) / candidates
                            : 0.0,
             "ns");
  result.set("accel.share_of_frame",
             frames.total_ns > 0 ? static_cast<double>(sad.total_ns) /
                                       static_cast<double>(frames.total_ns)
                                 : 0.0,
             "ratio");
  result.set("arith.adds", adds, "count");
  result.set("arith.ns_per_add",
             adds > 0 ? static_cast<double>(sad.total_ns) / adds : 0.0, "ns");
  set_trace_overhead(result, e2e, tphase.e2e);
  write_trace_file(args, result);
}

}  // namespace perfbench
