// Kernel inspection CLI: dump any benchmark program's source, instrumented
// source, bytecode disassembly, dataflow graphs, FI-site table, detector
// table, per-variant resource statistics and threaded-stream statistics.
//
// Usage:
//   inspect --program=CP [--what=source|ft|disasm|dataflow|sites|stats|threaded|journal|all]
//   inspect --program=CP --print-passes [--mode=ft] [--maxvar=N] [--naive]
//   inspect --program=CP --dump-passes=DIR [--mode=ft]
//
// --what=threaded prints, per build, what the threaded-code compiler makes
// of it: straight-line run coverage, fused superinstruction heads and FI
// hooks — for the generic stream (FI hooks live) and for the stream with
// them compiled away that a disarmed injector's launch runs (hooks dropped
// from runs).
//
// --what=journal prints, per build, the golden-launch journal a SWIFI
// campaign records for segment replay (dataset seed 1, one block worker):
// segments, first-read and write entries, the net effect's written words,
// its size, and the share of segments a disarmed replay of the same launch
// applies (all of them, in one step, unless the journal and the engine
// disagree); then each build's net-effect journal on a Hsiao device (what a
// single-bit memory-fault campaign records): its touched words, net words
// and size next to the full journal's.
//
// --print-passes shows the pass pipeline composed for the selected library
// mode plus the structured remarks each pass emitted (detector placed or
// skipped and why, Maxvar evictions) and the analysis-cache behavior;
// --dump-passes additionally writes the kernel IR before the first pass and
// after every pass to DIR, for before/after diffing of one transformation.
//
// Every mode accepts --plan=FILE (a kirtune --emit-plan hardening plan):
// instrumented output, pipelines, remarks and lint reports then reflect the
// plan's per-kernel/per-loop/per-variable selections.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "gpusim/cost.hpp"
#include "gpusim/device.hpp"
#include "hauberk/passes/pass_manager.hpp"
#include "hauberk/plan.hpp"
#include "hauberk/runtime.hpp"
#include "kir/printer.hpp"
#include "kir/threaded.hpp"
#include "swifi/campaign.hpp"
#include "swifi/injector.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;

namespace {

core::LibMode mode_from(const std::string& s) {
  if (s == "baseline" || s == "none") return core::LibMode::None;
  if (s == "profiler") return core::LibMode::Profiler;
  if (s == "fi") return core::LibMode::FI;
  if (s == "fift" || s == "fi+ft") return core::LibMode::FIFT;
  return core::LibMode::FT;
}

/// Load --plan=FILE into `opt`; returns false (message printed) on failure.
bool apply_plan_flag(const common::CliArgs& args, core::TranslateOptions& opt) {
  const std::string path = args.get("plan", "");
  if (path.empty()) return true;
  try {
    opt.plan = std::make_shared<core::HardeningPlan>(core::load_plan(path));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "--plan: %s\n", ex.what());
    return false;
  }
  return true;
}

/// The --print-passes / --dump-passes mode: compose the pipeline, run it
/// with a trace observer, and report passes, remarks and cache stats.
int inspect_passes(const kir::Kernel& kernel, const common::CliArgs& args) {
  core::TranslateOptions opt;
  opt.mode = mode_from(args.get("mode", "ft"));
  opt.maxvar = static_cast<int>(args.get_int("maxvar", 1));
  opt.naive_duplication = args.has("naive");
  opt.protect_loop = !args.has("no-loop");
  opt.protect_nonloop = !args.has("no-nonloop");
  if (!apply_plan_flag(args, opt)) return 2;

  core::TranslateOptions eff = opt;
  const core::PassPipeline pipe =
      opt.plan ? core::plan_to_pipeline(*opt.plan, opt, kernel.name, &eff)
               : core::pipeline_for(opt.mode, opt);
  std::printf("pipeline '%s' for kernel '%s':\n", pipe.name().c_str(), kernel.name.c_str());
  int n = 0;
  for (const auto& pn : pipe.pass_names()) std::printf("  %2d. %s\n", ++n, pn.c_str());

  const std::string dump_dir = args.get("dump-passes", "");
  int stage = 0;
  core::PassTraceFn trace;
  if (!dump_dir.empty()) {
    trace = [&](std::string_view st, const kir::Kernel& k, bool mutated) {
      const std::string path =
          dump_dir + "/" + (stage < 10 ? "0" : "") + std::to_string(stage) + "_" +
          std::string(st) + ".kir";
      ++stage;
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
      }
      out << kir::print_kernel(k);
      std::printf("  wrote %s%s\n", path.c_str(), mutated ? "  (pass mutated the AST)" : "");
    };
    std::printf("\nper-pass kernel dumps:\n");
  }

  core::TranslateReport rep;
  core::PassContext ctx(kir::clone_kernel(kernel), eff, rep);
  core::PassManager(std::move(trace)).run(pipe, ctx);

  std::printf("\nremarks (%zu):\n%s", rep.remarks.size(), core::format_remarks(rep).c_str());
  std::printf("\nanalysis cache: %llu hits, %llu misses, %llu invalidations (%.0f%% hit rate)\n",
              static_cast<unsigned long long>(rep.analysis_cache.hits),
              static_cast<unsigned long long>(rep.analysis_cache.misses),
              static_cast<unsigned long long>(rep.analysis_cache.invalidations),
              100.0 * rep.analysis_cache.hit_rate());
  std::printf("remark digest: %016llx\n",
              static_cast<unsigned long long>(core::remark_digest(rep)));
  return 0;
}

void print_sites(const kir::BytecodeProgram& p) {
  std::printf("FI sites (%zu):\n", p.fi_sites.size());
  std::printf("  %-4s %-14s %-4s %-12s %-6s %s\n", "id", "variable", "type", "hw", "loop",
              "window");
  for (const auto& s : p.fi_sites) {
    const char* hw = "?";
    switch (s.hw) {
      case kir::HwComponent::ALU: hw = "ALU"; break;
      case kir::HwComponent::FPU: hw = "FPU"; break;
      case kir::HwComponent::RegisterFile: hw = "RegFile"; break;
      case kir::HwComponent::Scheduler: hw = "Scheduler"; break;
      case kir::HwComponent::Memory: hw = "Memory"; break;
    }
    std::printf("  %-4u %-14s %-4s %-12s %-6s %s\n", s.site_id, s.var_name.c_str(),
                kir::dtype_name(s.type), hw, s.in_loop ? "yes" : "no",
                s.dead_window ? "late" : "live");
  }
}

/// The --lint mode: instrument with the lint stage appended to the pipeline
/// (TranslateOptions::lint) and print the resulting LintReport.
int inspect_lint(const kir::Kernel& kernel, const common::CliArgs& args) {
  core::TranslateOptions opt;
  opt.mode = mode_from(args.get("mode", "ft"));
  opt.maxvar = static_cast<int>(args.get_int("maxvar", 1));
  opt.naive_duplication = args.has("naive");
  opt.lint = true;
  if (!apply_plan_flag(args, opt)) return 2;
  core::TranslateReport rep;
  (void)core::translate(kernel, opt, &rep);
  if (args.has("json"))
    std::fputs(rep.lint.to_json().c_str(), stdout);
  else
    std::fputs(rep.lint.to_string().c_str(), stdout);
  return rep.lint.errors > 0 ? 1 : 0;
}

struct VariantRow {
  const char* name;
  const kir::BytecodeProgram* p;
};

std::vector<VariantRow> variant_rows(const core::KernelVariants& v) {
  return {{"baseline", &v.baseline}, {"profiler", &v.profiler}, {"ft", &v.ft},
          {"fi", &v.fi},             {"fi+ft", &v.fift}};
}

void print_stats(const core::KernelVariants& v) {
  std::printf("variant statistics:\n");
  std::printf("  %-10s %-8s %-8s %-10s %-10s\n", "variant", "instrs", "regs", "detectors",
              "fi-sites");
  for (const auto& r : variant_rows(v))
    std::printf("  %-10s %-8zu %-8u %-10zu %-10zu\n", r.name, r.p->code.size(),
                r.p->register_demand(), r.p->detectors.size(), r.p->fi_sites.size());
  std::printf("  shared memory: %u bytes; translator: %d non-loop vars, %zu loop detectors, "
              "%.3f ms\n",
              v.ft.shared_mem_words * 4, v.ft_report.nonloop_protected,
              v.ft_report.loop_detectors.size(), v.ft_report.transform_seconds * 1e3);
}

/// --what=threaded: each build's threaded stream as a default device
/// compiles it, with FI hooks live ("generic") and — for builds with FI
/// hooks — with them compiled away ("disarmed", every thread a disarmed
/// injector or a trial's unarmed threads run).
void print_threaded(const core::KernelVariants& v) {
  std::printf("threaded streams (default device, FlatGpu):\n");
  std::printf("  %-9s %-9s %-7s %-5s %-9s %-6s %-9s %-8s %s\n", "variant", "stream", "instrs",
              "runs", "run-cover", "fused", "fi-hooks", "dropped", "nop-hooks");
  const gpusim::DeviceProps props;
  for (const auto& r : variant_rows(v)) {
    const auto costs =
        gpusim::instruction_costs(*r.p, gpusim::CostModel{}, props.regs_per_thread, false);
    const kir::DecodedProgram d = kir::decode_program(*r.p, costs);
    for (const bool fi_hooks : {true, false}) {
      const kir::ThreadedProgram tp =
          kir::compile_threaded(d, r.p->num_slots, true, kir::MemInstr::None, fi_hooks);
      if (!fi_hooks && tp.fi_hooks == 0) continue;
      const double cover =
          tp.code.empty() ? 0.0 : 100.0 * tp.run_covered / static_cast<double>(tp.code.size());
      std::printf("  %-9s %-9s %-7zu %-5u %7.1f%%  %-6u %-9u %-8u %u\n", r.name,
                  fi_hooks ? "generic" : "disarmed", tp.code.size(),
                  tp.run_heads, cover, tp.fused_heads, tp.fi_hooks, tp.fi_dropped, tp.fi_nops);
    }
  }
}

/// --what=journal: the golden journal of each build on dataset seed 1 — its
/// segments, first reads and writes, register snapshots, launch-start image
/// words, reader-index entries (global + shared) and net-effect words — and
/// what a disarmed replay of that launch applies segment by segment (the
/// journal without its net effect), and whether the whole journal replays it
/// in one step; then each journal's snapshot table: the
/// snapshots per thread, their spacing in instructions and the table's size
/// (included in the first table's KiB).
void print_journal(const workloads::Workload& w, const core::KernelVariants& v) {
  const workloads::Dataset ds = w.make_dataset(1, workloads::Scale::Small);
  std::printf("golden journals (%s, dataset seed 1, one block worker):\n", w.name().c_str());
  std::vector<std::pair<const char*, gpusim::LaunchJournal>> tables;
  std::printf("  %-9s %-9s %-8s %-12s %-12s %-9s %-8s %-16s %-9s %-10s %s\n", "variant",
              "segments", "threads", "first-reads", "writes", "reg-words", "image", "index(g+s)",
              "net-words", "KiB", "disarmed-applied");
  for (const auto& r : variant_rows(v)) {
    if (r.p == &v.profiler) continue;  // profiling launches run instrumented, never replayed
    gpusim::Device dev;
    auto job = w.make_job(ds);
    const swifi::GoldenRun gold = swifi::golden_run(dev, *r.p, *job, nullptr, 1);
    if (!gold.journal) {
      std::printf("  %-9s (no journal)\n", r.name);
      continue;
    }
    const gpusim::LaunchJournal& j = *gold.journal;
    std::uint64_t reads = 0, writes = 0;
    for (const auto& s : j.segments) {
      reads += s.global_reads + s.shared_reads;
      writes += s.writes + s.shared_writes;
    }
    swifi::InjectingHooks disarmed(*r.p, nullptr);
    gpusim::LaunchJournal each = j;
    each.net = {};
    gpusim::LaunchOptions opts;
    opts.hooks = &disarmed;
    opts.max_workers = 1;
    opts.journal = &each;
    const auto res = dev.launch(*r.p, job->config(), job->setup(dev), opts);
    opts.journal = &j;
    const bool one_step =
        dev.launch(*r.p, job->config(), job->setup(dev), opts).replayed_in_one_step;
    const std::string index =
        std::to_string(j.global_index.size()) + "+" + std::to_string(j.shared_index.size());
    std::printf("  %-9s %-9zu %-8zu %-12llu %-12llu %-9zu %-8zu %-16s %-9zu %-10.1f %.1f%%%s\n",
                r.name, j.segments.size(), j.thread_begin.size() - 1,
                static_cast<unsigned long long>(reads), static_cast<unsigned long long>(writes),
                j.regs.size(), j.start_image.size(), index.c_str(), j.net.words.size(),
                static_cast<double>(j.bytes()) / 1024.0,
                100.0 * static_cast<double>(res.replayed_segments) /
                    static_cast<double>(j.segments.size()),
                one_step ? " (one step)" : "");
    tables.push_back({r.name, j});
  }

  // Snapshot tables: per-thread counts (min/median/max), the instructions
  // between consecutive snapshots of a segment (from its start for the
  // first; median and max), the FI-site count columns and the bytes.
  std::printf("snapshot tables (at most %u per segment, at taken backward jumps):\n",
              gpusim::LaunchJournal::kSnapshotsPerSegment);
  std::printf("  %-9s %-10s %-18s %-20s %-9s %s\n", "variant", "snapshots", "per-thread",
              "spacing(med/max)", "columns", "KiB");
  const auto median = [](std::vector<std::uint64_t> x) -> std::uint64_t {
    if (x.empty()) return 0;
    std::sort(x.begin(), x.end());
    return x[x.size() / 2];
  };
  for (const auto& [name, j] : tables) {
    const gpusim::LaunchJournal::SnapshotTable& t = j.snapshots;
    std::vector<std::uint64_t> per_thread, gaps;
    for (std::size_t slot = 0; slot + 1 < j.thread_begin.size(); ++slot) {
      std::uint64_t n = 0;
      for (std::uint32_t g = j.thread_begin[slot]; g < j.thread_begin[slot + 1]; ++g) {
        if (t.empty()) continue;
        std::uint64_t prev = 0;
        for (std::uint32_t i = t.begin[g]; i < t.end[g]; ++i) {
          gaps.push_back(t.list[i].instructions - prev);
          prev = t.list[i].instructions;
          ++n;
        }
      }
      per_thread.push_back(n);
    }
    const std::string pt = std::to_string(per_thread.empty() ? 0 : *std::min_element(per_thread.begin(), per_thread.end())) +
                           "/" + std::to_string(median(per_thread)) + "/" +
                           std::to_string(per_thread.empty() ? 0 : *std::max_element(per_thread.begin(), per_thread.end()));
    const std::string sp = std::to_string(median(gaps)) + "/" +
                           std::to_string(gaps.empty() ? 0 : *std::max_element(gaps.begin(), gaps.end()));
    std::printf("  %-9s %-10zu %-18s %-20s %-9u %.1f\n", name, t.list.size(), pt.c_str(),
                sp.c_str(), t.width, static_cast<double>(t.bytes()) / 1024.0);
  }

  // Net-effect journals: recorded on a Hsiao device, as a single-bit
  // memory-fault campaign's golden run records them, next to the full
  // journal of the same launch.
  std::printf("net-effect journals (hsiao device, single-bit memory-fault campaigns):\n");
  std::printf("  %-9s %-9s %-10s %-10s %-10s %s\n", "variant", "touched", "net-words", "KiB",
              "full-KiB", "segments");
  gpusim::DeviceProps hsiao;
  hsiao.protection = gpusim::ecc::Scheme::Hsiao;
  for (const auto& r : variant_rows(v)) {
    if (r.p == &v.profiler) continue;
    gpusim::Device dev(hsiao);
    auto job = w.make_job(ds);
    const swifi::GoldenRun net =
        swifi::golden_run(dev, *r.p, *job, nullptr, 1, swifi::GoldenJournal::NetEffect);
    const swifi::GoldenRun full = swifi::golden_run(dev, *r.p, *job, nullptr, 1);
    if (!net.journal || !full.journal) {
      std::printf("  %-9s (no journal)\n", r.name);
      continue;
    }
    const gpusim::LaunchJournal& j = *net.journal;
    std::printf("  %-9s %-9zu %-10zu %-10.1f %-10.1f %llu\n", r.name, j.touched.size(),
                j.net.words.size(), static_cast<double>(j.bytes()) / 1024.0,
                static_cast<double>(full.journal->bytes()) / 1024.0,
                static_cast<unsigned long long>(j.net.segments));
  }
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  const std::string name = args.get("program", "CP");
  const std::string what = args.get("what", "all");

  std::unique_ptr<workloads::Workload> w;
  for (auto& cand : workloads::hpc_suite())
    if (cand->name() == name) w = std::move(cand);
  for (auto& cand : workloads::graphics_suite())
    if (cand && cand->name() == name) w = std::move(cand);
  for (auto& cand : workloads::cpu_suite())
    if (cand && cand->name() == name) w = std::move(cand);
  if (!w && name == "cpu-matmul") w = workloads::make_cpu_matmul();
  if (!w) {
    std::fprintf(stderr, "unknown program '%s'\n", name.c_str());
    return 1;
  }

  const auto kernel = w->build_kernel(workloads::Scale::Small);
  if (args.has("print-passes") || args.has("dump-passes")) return inspect_passes(kernel, args);
  if (args.has("lint")) return inspect_lint(kernel, args);
  core::TranslateOptions topt;
  if (!apply_plan_flag(args, topt)) return 2;
  const auto v = core::build_variants(kernel, topt);
  const bool all = what == "all";

  if (all || what == "source")
    std::printf("=== source ===\n%s\n", kir::print_kernel(kernel).c_str());
  if (all || what == "ft")
    std::printf("=== Hauberk FT source ===\n%s\n", kir::print_kernel(v.ft_source).c_str());
  if (all || what == "dataflow") {
    kir::Analysis an(kernel);
    for (const auto& ln : an.loops())
      if (ln.parent == kir::kNoLoop)
        std::printf("=== %s", kir::print_loop_dataflow(kernel, an.loop_dataflow(ln.id)).c_str());
    std::printf("\n");
  }
  if (what == "disasm")  // verbose: only on request
    std::printf("=== baseline disassembly ===\n%s\n", kir::disassemble(v.baseline).c_str());
  if (all || what == "sites") print_sites(v.fi);
  if (all || what == "stats") print_stats(v);
  if (what == "threaded") print_threaded(v);  // compiler view: only on request
  if (what == "journal") print_journal(*w, v);  // runs the golden launches: only on request
  return 0;
}
