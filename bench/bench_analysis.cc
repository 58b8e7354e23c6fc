// Experiment: static-analysis subsystem cost.
//
// Two questions: (1) how fast are the bytecode passes (CFG construction,
// liveness, reaching definitions, lints) over generated programs -- they run
// on the generator's hot path as a pre-verifier filter, so per-program cost
// matters; (2) what does the indicator-#3 abstract-state audit cost a whole
// campaign -- the acceptance bar is < 15% throughput regression with the
// audit enabled.
//
// Results go to stdout as a table and to bench_analysis.json for tooling.

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/analysis/cfg.h"
#include "src/analysis/lints.h"
#include "src/analysis/liveness.h"
#include "src/analysis/reaching_defs.h"

namespace bvf {
namespace {

constexpr int kCorpusSize = 500;
constexpr int kPassRepeats = 20;
constexpr uint64_t kCampaignIterations = 1500;

struct PassTimings {
  double cfg_us = 0;
  double liveness_us = 0;
  double reaching_us = 0;
  double lint_us = 0;
  uint64_t insns = 0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

PassTimings MeasurePasses(const std::vector<FuzzCase>& corpus) {
  PassTimings t;
  for (int repeat = 0; repeat < kPassRepeats; ++repeat) {
    for (const FuzzCase& the_case : corpus) {
      if (repeat == 0) t.insns += the_case.prog.insns.size();
      double start = Now();
      const Cfg cfg = BuildCfg(the_case.prog);
      t.cfg_us += Now() - start;

      start = Now();
      ComputeLiveness(the_case.prog, cfg);
      t.liveness_us += Now() - start;

      start = Now();
      ComputeReachingDefs(the_case.prog, cfg);
      t.reaching_us += Now() - start;

      start = Now();
      LintProgram(the_case.prog);
      t.lint_us += Now() - start;
    }
  }
  const double denom = 1e-6 * kPassRepeats * corpus.size();  // -> us/program
  t.cfg_us /= denom;
  t.liveness_us /= denom;
  t.reaching_us /= denom;
  t.lint_us /= denom;
  return t;
}

double MeasureCampaign(bool audit, uint64_t* findings) {
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = bpf::BugConfig::All();
  options.iterations = kCampaignIterations;
  options.seed = 1;
  options.audit_state = audit;
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const double start = Now();
  const CampaignStats stats = fuzzer.Run();
  const double seconds = Now() - start;
  *findings = stats.findings.size();
  return seconds;
}

}  // namespace
}  // namespace bvf

int main() {
  using namespace bvf;
  PrintHeader("static analysis: per-program pass cost and campaign audit overhead");

  // Corpus: whatever the structured generator emits (the filter sees exactly
  // this distribution, accepted or not).
  std::vector<FuzzCase> corpus;
  StructuredGenerator generator(bpf::KernelVersion::kBpfNext);
  bpf::Rng rng(7);
  corpus.reserve(kCorpusSize);
  for (int i = 0; i < kCorpusSize; ++i) {
    corpus.push_back(generator.Generate(rng));
  }

  const PassTimings passes = MeasurePasses(corpus);
  const double avg_insns = static_cast<double>(passes.insns) / kCorpusSize;
  printf("corpus: %d generated programs, %.1f insns on average\n\n", kCorpusSize,
         avg_insns);
  printf("%-24s %12s\n", "pass", "us/program");
  PrintRule(38);
  printf("%-24s %12.2f\n", "cfg construction", passes.cfg_us);
  printf("%-24s %12.2f\n", "liveness", passes.liveness_us);
  printf("%-24s %12.2f\n", "reaching definitions", passes.reaching_us);
  printf("%-24s %12.2f\n", "lints (all of the above)", passes.lint_us);

  uint64_t findings_off = 0;
  uint64_t findings_on = 0;
  const double base = MeasureCampaign(/*audit=*/false, &findings_off);
  const double audited = MeasureCampaign(/*audit=*/true, &findings_on);
  const double overhead = 100 * (audited / base - 1);

  printf("\ncampaign (%" PRIu64 " iterations, all bugs): %.2fs -> %.2fs with audit"
         " (%+.1f%%, acceptance bar < 15%%)\n",
         kCampaignIterations, base, audited, overhead);
  printf("findings: %" PRIu64 " -> %" PRIu64 " with the state audit on\n",
         findings_off, findings_on);

  FILE* json = fopen("bench_analysis.json", "w");
  if (json) {
    fprintf(json,
            "{\n"
            "  \"corpus_programs\": %d,\n"
            "  \"avg_insns\": %.1f,\n"
            "  \"us_per_program\": {\n"
            "    \"cfg\": %.3f,\n"
            "    \"liveness\": %.3f,\n"
            "    \"reaching_defs\": %.3f,\n"
            "    \"lints\": %.3f\n"
            "  },\n"
            "  \"campaign\": {\n"
            "    \"iterations\": %" PRIu64 ",\n"
            "    \"seconds_audit_off\": %.4f,\n"
            "    \"seconds_audit_on\": %.4f,\n"
            "    \"audit_overhead_pct\": %.2f,\n"
            "    \"findings_audit_off\": %" PRIu64 ",\n"
            "    \"findings_audit_on\": %" PRIu64 "\n"
            "  }\n"
            "}\n",
            kCorpusSize, avg_insns, passes.cfg_us, passes.liveness_us,
            passes.reaching_us, passes.lint_us, kCampaignIterations, base, audited,
            overhead, findings_off, findings_on);
    fclose(json);
    printf("wrote bench_analysis.json\n");
  }
  return overhead < 15 ? 0 : 1;
}
