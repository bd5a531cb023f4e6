// Fig. 14 — error detection coverage of Hauberk: outcome breakdown
// (failure / masked / detected&masked / detected / undetected) for each
// benchmark program and error-bit count (1, 3, 6, 10, 15), with the same
// dataset used for training and testing (alpha = 1).
//
// Paper headline numbers: average detection coverage 86.8% (13.2% of faults
// escape); for single-bit errors 35.6% masked, 11.0% failure, 21.4%
// detected, 22.2% detected&masked, 9.8% undetected SDC.
//
// Knobs: --vars (default 20), --masks (default 10), --bits=1,3,6,10,15,
// --workers (campaign workers, 0 = hardware concurrency; default 0),
// --sanitize (sanitize every trial, on either engine, and add Race /
// Divergence outcome columns), --engine=reference|threaded
// (trial interpreter; default threaded — outcomes are engine-invariant).
#include <sstream>

#include "bench_common.hpp"

using namespace hauberk;
using namespace hauberk::bench;
using swifi::OutcomeCounts;

namespace {

std::vector<int> parse_bits(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::atoi(tok.c_str()));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  const auto scale = scale_from(args);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const int max_vars = static_cast<int>(args.get_int("vars", 20));
  const int masks = static_cast<int>(args.get_int("masks", 10));
  const auto bits_list = parse_bits(args.get("bits", "1,3,6,10,15"));
  const auto flags = campaign_flags_from(args);
  if (report_flag_errors(args)) return 2;
  // --plan=FILE routes through the same shared handling as fault_campaign
  // and campaignd: the selective-hardening plan shapes the FI&FT build and
  // its digest is folded into every campaign digest.
  core::TranslateOptions topt;
  if (!load_plan_flag(flags, topt)) return 2;
  const bool sanitize = flags.sanitize;
  swifi::CampaignExecutor ex(flags.workers);

  print_header("Fig. 14: Hauberk error detection coverage (FI&FT, train == test)");
  std::vector<std::string> cols{"Program", "Bits", "Failure", "Masked", "Det&Masked",
                                "Detected", "Undetected", "Coverage"};
  if (sanitize) {
    cols.insert(cols.end() - 1, "Race");
    cols.insert(cols.end() - 1, "Divergence");
  }
  common::Table t(cols);

  std::map<int, OutcomeCounts> per_bits_total;
  OutcomeCounts grand;

  for (auto& w : workloads::hpc_suite()) {
    auto ctx = make_context(std::move(w), seed, scale, 1.0, {}, topt);
    for (int bits : bits_list) {
      swifi::PlanOptions opt;
      opt.max_vars = max_vars;
      opt.masks_per_var = masks;
      opt.error_bits = bits;
      opt.seed = seed + static_cast<std::uint64_t>(bits) * 1000;
      const auto specs = swifi::plan_faults(ctx.variants.fift, ctx.profile, opt);
      swifi::CampaignConfig ccfg;
      ccfg.engine = engine_from(flags);
      ccfg.plan_digest = plan_digest_of(topt);
      ccfg.sanitize = sanitize;
      ccfg.sanitize_cap = static_cast<std::size_t>(flags.sanitize_cap);
      const auto res = ex.run(ctx.variants.fift,
                              context_factory(*ctx.workload, ctx.dataset, {},
                                              &ctx.variants.fift, &ctx.profile),
                              specs, ctx.workload->requirement(), ccfg);
      const auto& c = res.counts;
      std::vector<std::string> row{ctx.workload->name(), std::to_string(bits),
                                   common::Table::pct_cell(100.0 * c.ratio(c.failure)),
                                   common::Table::pct_cell(100.0 * c.ratio(c.masked)),
                                   common::Table::pct_cell(100.0 * c.ratio(c.detected_masked)),
                                   common::Table::pct_cell(100.0 * c.ratio(c.detected)),
                                   common::Table::pct_cell(100.0 * c.ratio(c.undetected))};
      if (sanitize) {
        row.push_back(common::Table::pct_cell(100.0 * c.ratio(c.race_detected)));
        row.push_back(common::Table::pct_cell(100.0 * c.ratio(c.barrier_divergence)));
      }
      row.push_back(common::Table::pct_cell(100.0 * c.coverage()));
      t.add_row(std::move(row));
      per_bits_total[bits] += c;
      grand += c;
    }
  }
  t.print();

  std::printf("\nPer-bit-count averages across programs:\n");
  common::Table avg({"Bits", "Failure", "Masked", "Det&Masked", "Detected", "Undetected",
                     "Coverage"});
  for (const auto& [bits, c] : per_bits_total) {
    avg.add_row({std::to_string(bits), common::Table::pct_cell(100.0 * c.ratio(c.failure)),
                 common::Table::pct_cell(100.0 * c.ratio(c.masked)),
                 common::Table::pct_cell(100.0 * c.ratio(c.detected_masked)),
                 common::Table::pct_cell(100.0 * c.ratio(c.detected)),
                 common::Table::pct_cell(100.0 * c.ratio(c.undetected)),
                 common::Table::pct_cell(100.0 * c.coverage())});
  }
  avg.print();

  if (per_bits_total.count(1)) {
    const auto& c1 = per_bits_total[1];
    std::printf("\nSingle-bit summary (paper: 35.6%% masked, 11.0%% failure, 21.4%% detected,\n"
                "22.2%% detected&masked, 9.8%% undetected):\n"
                "  measured: %.1f%% masked, %.1f%% failure, %.1f%% detected, "
                "%.1f%% detected&masked, %.1f%% undetected\n",
                100.0 * c1.ratio(c1.masked), 100.0 * c1.ratio(c1.failure),
                100.0 * c1.ratio(c1.detected), 100.0 * c1.ratio(c1.detected_masked),
                100.0 * c1.ratio(c1.undetected));
  }
  std::printf("\nOverall coverage (all bit counts): %.1f%% (paper: 86.8%%)\n",
              100.0 * grand.coverage());
  return 0;
}
