// repro_batch: the offline analysis a researcher runs over the whole
// corpus. Its work is in synth, core, geo, raster, firesim, powergrid,
// ensemble and exec; none of it touches store, shard, serve, net or
// delta, which makes it the "no change" control for serving-side work.
#include <bit>
#include <cstdio>

#include "checks.hpp"
#include "core/case_study.hpp"
#include "core/climate.hpp"
#include "core/population.hpp"
#include "core/provider_risk.hpp"
#include "core/roadside.hpp"
#include "core/validation.hpp"
#include "core/whp_overlay.hpp"
#include "ensemble/ensemble.hpp"
#include "exec/exec.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace fa::perfbench {

namespace {

// Repetitions of the experiment set; repro_s is their median.
constexpr int kReproRepeats = 3;
// Builds of the ensemble's SharedInputs; ensemble_inputs_s is their
// median.
constexpr int kInputBuilds = 3;
// The timed ensemble: kTimedRuns runs of kMembers members with the
// same seed, which must agree bit for bit. ensemble_members_per_s is
// their median rate, so a few seconds of outside load on the machine do
// not set it.
constexpr int kTimedRuns = 4;
constexpr std::uint32_t kMembers = 512;
// Members of the reduced run that is compared bit for bit at one thread
// and at the pinned width.
constexpr std::uint32_t kCheckMembers = 32;

struct Experiments {
  core::WhpOverlayResult overlay;
  core::ProviderRiskResult providers;
};

// The calls examples/experiments_runner makes, one span each.
Experiments run_experiments(const core::World& world) {
  Experiments out;
  {
    const Span span("core.whp_overlay");
    out.overlay = core::run_whp_overlay(world);
  }
  {
    const Span span("core.provider_risk");
    out.providers = core::run_provider_risk(world);
  }
  {
    const Span span("core.validation");
    const core::ValidationResult validation = core::run_whp_validation(world);
    (void)core::run_perimeter_extension(world, validation);
  }
  {
    const Span span("core.case_study");
    (void)core::run_california_case_study(world);
  }
  {
    const Span span("core.population");
    (void)core::run_population_impact(world);
  }
  {
    const Span span("core.future_exposure");
    (void)core::run_future_exposure(world);
  }
  {
    const Span span("core.roadside");
    (void)core::run_roadside_shadow(world, 8);
  }
  return out;
}
constexpr std::uint64_t kExperimentCalls = 8;

// Every double and count a report derives from its members, bit-exact.
bool identical(const ensemble::EnsembleReport& a,
               const ensemble::EnsembleReport& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  const auto same_vec = [&same](const std::vector<double>& x,
                                const std::vector<double>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!same(x[i], y[i])) return false;
    }
    return true;
  };
  if (a.members != b.members || a.quarantined != b.quarantined ||
      a.sites != b.sites || a.fires != b.fires ||
      a.outage_site_days != b.outage_site_days ||
      !same(a.expected_user_hours, b.expected_user_hours) ||
      !same(a.expected_power_user_hours, b.expected_power_user_hours) ||
      !same(a.expected_pop_exposure, b.expected_pop_exposure) ||
      !same(a.expected_overlap_user_hours, b.expected_overlap_user_hours) ||
      a.member_stats.size() != b.member_stats.size() ||
      a.exceedance.size() != b.exceedance.size() ||
      a.fragile_order != b.fragile_order ||
      !same_vec(a.site_expected_user_hours, b.site_expected_user_hours) ||
      !same_vec(a.site_expected_power_user_hours,
                b.site_expected_power_user_hours) ||
      !same_vec(a.site_outage_probability, b.site_outage_probability)) {
    return false;
  }
  for (std::size_t m = 0; m < a.member_stats.size(); ++m) {
    const ensemble::MemberStats& x = a.member_stats[m];
    const ensemble::MemberStats& y = b.member_stats[m];
    if (!same(x.user_hours, y.user_hours) ||
        !same(x.power_user_hours, y.power_user_hours) ||
        !same(x.pop_exposure, y.pop_exposure) ||
        !same(x.overlap_user_hours, y.overlap_user_hours) ||
        x.fires != y.fires || x.outage_site_days != y.outage_site_days ||
        x.quarantined != y.quarantined) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.exceedance.size(); ++i) {
    if (!same(a.exceedance[i].user_hours, b.exceedance[i].user_hours) ||
        !same(a.exceedance[i].probability, b.exceedance[i].probability)) {
      return false;
    }
  }
  return true;
}

void check_ensemble(const ensemble::EnsembleReport& r, Report& report) {
  // The expectation is the plain mean of the members' season totals,
  // summed in member order over the members that were not quarantined.
  double sum = 0.0;
  std::uint32_t effective = 0;
  for (const ensemble::MemberStats& m : r.member_stats) {
    if (m.quarantined != 0) continue;
    sum += m.user_hours;
    ++effective;
  }
  report.check(r.member_stats.size() == r.members && effective > 0,
               "ensemble: one MemberStats per scheduled member");
  report.check(effective > 0 &&
                   r.expected_user_hours == sum / static_cast<double>(effective),
               "ensemble: expected_user_hours is the mean of member_stats");
  bool bounded = !r.exceedance.empty();
  bool monotone = true;
  for (std::size_t i = 0; i < r.exceedance.size(); ++i) {
    const double p = r.exceedance[i].probability;
    bounded = bounded && p >= 0.0 && p <= 1.0;
    if (i > 0) {
      monotone = monotone &&
                 r.exceedance[i].user_hours >= r.exceedance[i - 1].user_hours &&
                 p <= r.exceedance[i - 1].probability;
    }
  }
  report.check(bounded, "ensemble: exceedance probabilities lie in [0, 1]");
  report.check(monotone, "ensemble: exceedance probabilities do not increase");
}

}  // namespace

void run_repro(const Options& options, Report& report) {
  const synth::ScenarioConfig config = scenario();
  const core::World world = build_world(config);
  const double setup_s = process_seconds();

  // -- the experiment set ---------------------------------------------
  std::vector<double> repro_runs;
  double repro_cpu = 0.0;
  Experiments ex;
  for (int r = 0; r < kReproRepeats; ++r) {
    const double wall0 = wall_s();
    const double cpu0 = cpu_s();
    ex = run_experiments(world);
    repro_runs.push_back(wall_s() - wall0);
    repro_cpu += cpu_s() - cpu0;
    report.attempted += kExperimentCalls;
  }
  const double repro_s = median(repro_runs);
  double repro_wall = 0.0;
  for (const double w : repro_runs) repro_wall += w;

  // -- California fire-season ensemble --------------------------------
  ensemble::EnsembleConfig ens;
  ens.seed = options.seed;
  ens.region = "CA";
  // SharedInputs::build is one serial pass of ~5 s, timed kInputBuilds
  // times so that a few seconds of outside load do not set the median.
  // The first build is the one the ensemble uses.
  std::vector<double> input_builds;
  double wall0 = wall_s();
  const ensemble::SharedInputs inputs = [&] {
    const Span span("ensemble.inputs");
    return ensemble::SharedInputs::build(world, ens);
  }();
  input_builds.push_back(wall_s() - wall0);
  for (int b = 1; b < kInputBuilds; ++b) {
    wall0 = wall_s();
    {
      const Span span("ensemble.inputs");
      (void)ensemble::SharedInputs::build(world, ens);
    }
    input_builds.push_back(wall_s() - wall0);
  }
  const double inputs_s = median(input_builds);

  // Untimed warm-up at the pinned width; its report is also the
  // reference the serial run below must reproduce bit for bit.
  ensemble::EnsembleConfig small = ens;
  small.members = kCheckMembers;
  ensemble::EnsembleReport wide;
  {
    const Span span("ensemble.warmup");
    wide = ensemble::run_ensemble(inputs, small);
  }
  report.attempted += kCheckMembers;

  ens.members = kMembers;
  std::vector<double> member_rates;
  double members_wall = 0.0;
  double members_cpu = 0.0;
  ensemble::EnsembleReport timed;
  for (int r = 0; r < kTimedRuns; ++r) {
    wall0 = wall_s();
    const double cpu0 = cpu_s();
    ensemble::EnsembleReport run;
    {
      const Span span("ensemble.run");
      run = ensemble::run_ensemble(inputs, ens);
    }
    const double wall = wall_s() - wall0;
    member_rates.push_back(kMembers / wall);
    members_wall += wall;
    members_cpu += cpu_s() - cpu0;
    report.attempted += kMembers;
    if (r == 0) {
      timed = std::move(run);
    } else {
      report.check(identical(timed, run), "timed ensemble runs agree bit for bit");
    }
  }

  ensemble::EnsembleReport serial;
  {
    const exec::ConcurrencyLimit one(1);
    const Span span("ensemble.serial");
    serial = ensemble::run_ensemble(inputs, small);
  }
  report.attempted += kCheckMembers;
  const double rss_mb = peak_rss_mb();

  // -- checks ---------------------------------------------------------
  const std::vector<std::uint64_t> tally = class_tally(world);
  std::vector<std::uint64_t> overlay(ex.overlay.txr_by_class.begin(),
                                     ex.overlay.txr_by_class.end());
  const std::string overlay_diff = diff_counts(tally, overlay);
  report.check(overlay_diff.empty(), "whp overlay per-class counts: " + overlay_diff);
  std::uint64_t total = 0;
  for (const std::uint64_t c : overlay) total += c;
  report.check(total == world.corpus().size(),
               "whp overlay classes sum to the corpus size");

  std::vector<std::uint64_t> expected(3 * cellnet::kNumProviders, 0);
  const cellnet::ProviderRegistry& registry = world.provider_registry();
  for (const cellnet::Transceiver& t : world.corpus().transceivers()) {
    const int cls = static_cast<int>(world.whp().class_at(t.position));
    if (cls < 3) continue;
    const auto p = static_cast<std::size_t>(registry.resolve(t.mcc, t.mnc));
    ++expected[3 * p + static_cast<std::size_t>(cls - 3)];
  }
  std::vector<std::uint64_t> got;
  for (const core::ProviderRiskRow& row : ex.providers.rows) {
    got.insert(got.end(), {row.moderate, row.high, row.very_high});
  }
  const std::string provider_diff = diff_counts(expected, got);
  report.check(provider_diff.empty(),
               "provider moderate/high/very-high counts: " + provider_diff);

  report.check(identical(wide, serial),
               "ensemble is bit-identical at one thread and at the pinned width");
  check_ensemble(timed, report);
  check_ensemble(serial, report);

  report.e2e_metric("setup_s", setup_s, "world build");
  report.e2e_metric("start_s", inputs_s,
                    "SharedInputs::build for CA, median of 3");
  report.e2e_metric("latency_ms", repro_s * 1e3,
                    "experiment set, median of 3");
  report.e2e_metric("throughput_per_s", median(member_rates),
                    "ensemble members per second, median of 4 runs");
  report.e2e_metric("peak_rss_mb", rss_mb, "process VmHWM after the ensemble");
  if (!options.trace) return;

  // Layer probes that add work run after every end-to-end phase.
  grid_build_probe(world, report);

  report.layer_metric("exec.repro_cpu_per_wall", repro_cpu / repro_wall);
  report.layer_metric("exec.ensemble_cpu_per_wall", members_cpu / members_wall);
  report.layer_metric(
      "ensemble.member_ms",
      Tracer::get().total_self_s("ensemble.serial") * 1e3 / kCheckMembers);
  report.layer_metric("ensemble.fires", static_cast<double>(timed.fires));
  report.layer_metric("ensemble.outage_site_days",
                      static_cast<double>(timed.outage_site_days));
}

}  // namespace fa::perfbench
