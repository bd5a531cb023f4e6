#include "hauberk/translator.hpp"

#include <chrono>
#include <stdexcept>

#include "hauberk/cost.hpp"
#include "hauberk/passes/pass_manager.hpp"
#include "hauberk/plan.hpp"

namespace hauberk::core {

using namespace hauberk::kir;

const char* lib_mode_name(LibMode m) noexcept {
  switch (m) {
    case LibMode::None: return "baseline";
    case LibMode::Profiler: return "profiler";
    case LibMode::FT: return "ft";
    case LibMode::FI: return "fi";
    case LibMode::FIFT: return "fi+ft";
  }
  return "?";
}

namespace {

bool any_internal(const StmtList& body) {
  for (const auto& s : body) {
    if (s->hauberk_internal) return true;
    if (any_internal(s->body) || any_internal(s->else_body)) return true;
  }
  return false;
}

void fnv(std::uint64_t& h, const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
}

void fnv_str(std::uint64_t& h, const std::string& s) noexcept {
  const std::uint64_t len = s.size();
  fnv(h, &len, sizeof len);
  fnv(h, s.data(), s.size());
}

}  // namespace

bool is_instrumented(const Kernel& k) { return any_internal(k.body); }

std::uint64_t remark_digest(const TranslateReport& report) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  fnv_str(h, report.pipeline);
  for (const PassRemark& r : report.remarks) {
    fnv_str(h, r.pass);
    fnv_str(h, r.message);
    fnv(h, &r.loop_id, sizeof r.loop_id);
    fnv(h, &r.var, sizeof r.var);
    fnv(h, &r.detector, sizeof r.detector);
  }
  return h;
}

std::string format_remarks(const TranslateReport& report) {
  std::string out;
  for (const PassRemark& r : report.remarks) {
    out += "[";
    out += r.pass;
    out += "] ";
    out += r.message;
    out += "\n";
  }
  return out;
}

Kernel translate(const Kernel& input, const TranslateOptions& opt, TranslateReport* report) {
  const auto t0 = std::chrono::steady_clock::now();
  if (is_instrumented(input))
    throw std::invalid_argument("hauberk: kernel '" + input.name +
                                "' already carries Hauberk instrumentation; "
                                "re-instrumenting would double-place detectors");
  TranslateReport local;
  TranslateReport& rep = report ? *report : local;
  // Resolve the structured hardening plan (if any) into effective options
  // before the pipeline is composed.
  TranslateOptions eff = opt;
  PassPipeline pipeline;
  if (opt.plan) {
    pipeline = plan_to_pipeline(*opt.plan, opt, input.name, &eff);
  } else {
    pipeline = pipeline_for(opt.mode, opt);
  }
  PassContext ctx(clone_kernel(input), eff, rep);
  PassManager().run(pipeline, ctx);
  rep.cost = cost::kernel_static_breakdown(ctx.kernel, ctx.am);
  rep.analysis_cache = ctx.am.stats();
  rep.transform_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return std::move(ctx.kernel);
}

}  // namespace hauberk::core
