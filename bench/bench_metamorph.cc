// Experiment: metamorphic oracle overhead and digest invisibility
// (DESIGN.md §11).
//
// The oracle executes K semantics-preserving variants of every accepted case
// through a fresh substrate (PROG_LOAD + test runs, both engines' witness
// fields), so --metamorph buys its divergence checking with extra work per
// accepted case. This bench prices that work and pins the two digest
// contracts the feature ships with:
//
//   1. Overhead: the same jobs=1 campaign (all bugs, sanitize + audit on —
//      the realistic hunting shape) is timed with --metamorph off (the PR 4
//      baseline path: the oracle is never constructed) and with
//      --metamorph-k=2. Acceptance bar (ISSUE 5): on/off wall-clock ratio
//      <= 2.5x at K=2.
//   2. Oracle invisibility: on a correct kernel (no injected bugs) no
//      transform may diverge, so the K=2 campaign's StatsDigest must be
//      bit-identical to the metamorph-off digest — the oracle contributes
//      nothing but divergences, and a correct verifier yields none.
//   3. Base-campaign invariance: with --metamorph off, the campaign must
//      agree digest-for-digest at --jobs=1 and --jobs=4, i.e. the metamorph
//      plumbing (options, counters, checkpoint lines, barrier merges) is
//      invisible to the base campaign it rides on.
//
// The overhead campaign also reports the divergence counters: with all bugs
// injected the const-remat transform flips bug13's mov-imm/ld_imm64 verdict
// asymmetry, so a healthy run shows nonzero verdict divergences — evidence
// the paid-for oracle actually fires.
//
// Results go to stdout as a table and to bench_metamorph.json for tooling.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/core/checkpoint.h"
#include "src/core/parallel.h"

namespace bvf {
namespace {

constexpr uint64_t kIterations = 400;
constexpr uint64_t kSeed = 7;
constexpr int kBestOf = 3;  // damp scheduler noise

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CampaignOptions BaseOptions(bool all_bugs) {
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = all_bugs ? bpf::BugConfig::All() : bpf::BugConfig::None();
  options.iterations = kIterations;
  options.seed = kSeed;
  return options;
}

struct CampaignRun {
  double seconds = 0;  // best-of-kBestOf wall time
  std::string digest;
  CampaignStats stats;
};

CampaignRun RunTimed(CampaignOptions options, int metamorph_k) {
  options.metamorph = metamorph_k > 0;
  options.metamorph_k = metamorph_k;
  CampaignRun run;
  for (int attempt = 0; attempt < kBestOf; ++attempt) {
    StructuredGenerator generator(options.version);
    ParallelFuzzer fuzzer(generator, options);
    const double start = Now();
    const CampaignStats stats = fuzzer.Run();
    const double seconds = Now() - start;
    if (attempt == 0 || seconds < run.seconds) {
      run.seconds = seconds;
    }
    run.digest = StatsDigest(stats);
    run.stats = stats;
  }
  return run;
}

std::string RunDigest(CampaignOptions options, int jobs) {
  options.jobs = jobs;
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  return StatsDigest(fuzzer.Run());
}

}  // namespace
}  // namespace bvf

int main() {
  using namespace bvf;
  PrintHeader("metamorphic oracle: K=2 overhead and digest invisibility");
  printf("campaign: %" PRIu64 " iterations, seed %" PRIu64
         ", jobs=1, best of %d\n\n",
         kIterations, kSeed, kBestOf);

  // ---- 1. Overhead on the realistic hunting campaign (all bugs). ----
  const CampaignRun off = RunTimed(BaseOptions(/*all_bugs=*/true), 0);
  const CampaignRun k1 = RunTimed(BaseOptions(/*all_bugs=*/true), 1);
  const CampaignRun k2 = RunTimed(BaseOptions(/*all_bugs=*/true), 2);
  const double overhead_k2 = k2.seconds / off.seconds;

  printf("%-18s %10s %10s %12s %12s\n", "config", "seconds", "overhead",
         "variants", "divergences");
  PrintRule(68);
  const CampaignRun* runs[] = {&off, &k1, &k2};
  const char* labels[] = {"metamorph off", "metamorph k=1", "metamorph k=2"};
  for (int i = 0; i < 3; ++i) {
    const CampaignStats& s = runs[i]->stats;
    printf("%-18s %10.3f %9.2fx %12" PRIu64 " %12" PRIu64 "\n", labels[i],
           runs[i]->seconds, runs[i]->seconds / off.seconds,
           s.metamorph_variants,
           s.metamorph_verdict_divergences + s.metamorph_witness_divergences +
               s.metamorph_sanitizer_divergences);
  }
  printf("\nk=2 overhead: %.2fx (acceptance bar <= 2.5x)\n", overhead_k2);
  const uint64_t k2_divergences = k2.stats.metamorph_verdict_divergences +
                                  k2.stats.metamorph_witness_divergences +
                                  k2.stats.metamorph_sanitizer_divergences;
  printf("k=2 divergences on injected bugs: %" PRIu64 " (bug13 evidence)\n",
         k2_divergences);

  // ---- 2. Oracle invisibility on a correct kernel. ----
  const CampaignRun clean_off = RunTimed(BaseOptions(/*all_bugs=*/false), 0);
  const CampaignRun clean_k2 = RunTimed(BaseOptions(/*all_bugs=*/false), 2);
  const bool invisible = clean_off.digest == clean_k2.digest;
  printf("\ncorrect kernel digest, metamorph off %s / k=2 %s: %s\n",
         clean_off.digest.c_str(), clean_k2.digest.c_str(),
         invisible ? "identical" : "DIVERGED");

  // ---- 3. Base campaign unperturbed with --metamorph off. ----
  // |off| is the jobs=1 leg.
  const std::string off_jobs4 = RunDigest(BaseOptions(/*all_bugs=*/true), 4);
  const bool base_equal = off.digest == off_jobs4;
  printf("base campaign digest, jobs=1 %s / jobs=4 %s: %s\n", off.digest.c_str(),
         off_jobs4.c_str(), base_equal ? "identical" : "DIVERGED");

  FILE* json = fopen("bench_metamorph.json", "w");
  if (json) {
    fprintf(json,
            "{\n"
            "  \"iterations\": %" PRIu64 ",\n"
            "  \"seed\": %" PRIu64 ",\n"
            "  \"best_of\": %d,\n"
            "  \"seconds_off\": %.3f,\n"
            "  \"seconds_k1\": %.3f,\n"
            "  \"seconds_k2\": %.3f,\n"
            "  \"overhead_k1\": %.3f,\n"
            "  \"overhead_k2\": %.3f,\n"
            "  \"k2_variants\": %" PRIu64 ",\n"
            "  \"k2_divergences\": %" PRIu64 ",\n"
            "  \"clean_digest_invisible\": %s,\n"
            "  \"base_digest_off\": \"%s\",\n"
            "  \"base_digest_jobs_invariant\": %s\n"
            "}\n",
            kIterations, kSeed, kBestOf, off.seconds, k1.seconds, k2.seconds,
            k1.seconds / off.seconds, overhead_k2, k2.stats.metamorph_variants,
            k2_divergences, invisible ? "true" : "false", off.digest.c_str(),
            base_equal ? "true" : "false");
    fclose(json);
    printf("wrote bench_metamorph.json\n");
  }

  if (!invisible || !base_equal) {
    return 1;
  }
  if (overhead_k2 > 2.5) {
    return 1;
  }
  return 0;
}
