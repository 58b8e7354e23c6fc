// Experiment: the verifier's own walk, fingerprint fast path on vs off
// (DESIGN.md §13.2, EXPERIMENTS.md "Verifier walk").
//
// Times VerifyProgram alone — no load path, no caches — on three shapes:
//   loop-to-limit — a counting loop whose state never repeats, so the walk
//                   runs to the complexity limit and ends in E2BIG (the shape
//                   a loop whose body or mutation broke its counter took,
//                   before the generator kept loops bounded);
//   accepted mix  — structured-generator programs the all-bugs verifier
//                   accepts;
//   rejected mix  — the generated programs it rejects.
// Each program is verified with the fast path on and off (the plain
// StateEqual scan), in alternating order, so host-speed drift cancels
// between the two columns. The verifier runs as the campaign drives it:
// all bugs injected, per-instruction state claims collected.
//
// Two bars, enforced here:
//   - both paths return the same verdict, log, insns_processed,
//     states_pruned and peak_states for every program. A faster path that
//     changes any of them is a correctness failure;
//   - no generated program ends in E2BIG (rejected_mix.e2big == 0): the
//     generator's loops are bounded by construction, so a walk to the
//     complexity limit means a loop frame lost its bound.
//
// Results go to stdout as a table and to BENCH_verify.json.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/ebpf/builder.h"
#include "src/runtime/bpf_syscall.h"
#include "src/verifier/verifier.h"

namespace bvf {
namespace {

constexpr int kGenerated = 600;  // structured programs, seed 1
// Timed verifications per program and path. Even, so each path goes first
// equally often.
constexpr int kMixRepeats = 4;
constexpr int kLoopRepeats = 16;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// rC = N; body; rC -= 1; if rC != 0 goto body — the generator's counting
// loop with a bound far beyond what the walk can reach.
bpf::Program LoopToLimit() {
  using namespace bpf;
  ProgramBuilder b;
  b.Mov(kR0, 0);
  b.Mov(kR6, 1 << 30);
  b.Mov(kR7, kR6);
  b.And(kR7, 0xff);
  b.Add(kR0, kR7);
  b.Store(kSizeDw, kR10, kR7, -8);
  b.Sub(kR6, 1);
  b.JmpIf(kJmpJne, kR6, 0, -6);
  b.Ret();
  return b.Build();
}

// The verifier environment ProgLoad builds for |kernel|, with the state
// claims a campaign's state audit collects.
bpf::VerifierEnv EnvFor(bpf::Kernel& kernel) {
  bpf::VerifierEnv env;
  env.maps = &kernel.maps();
  env.btf = &kernel.btf();
  env.version = kernel.version();
  env.bugs = kernel.bugs();
  env.map_obj_addr = [&kernel](int map_id) {
    bpf::Map* map = kernel.maps().Find(map_id);
    return map != nullptr ? map->obj_addr() : 0ull;
  };
  env.btf_obj_addr = [&kernel](int btf_id) { return kernel.BtfObjAddr(btf_id); };
  env.collect_state_claims = true;
  return env;
}

struct Shape {
  const char* name;
  int programs = 0;
  int e2big = 0;
  double seconds[2] = {0, 0};  // [fast path off, on]
  int verifications = 0;       // per path

  double UsPerVerify(int on) const {
    return verifications > 0 ? 1e6 * seconds[on] / verifications : 0;
  }
};

bool SameResult(const bpf::VerifierResult& a, const bpf::VerifierResult& b) {
  return a.err == b.err && a.log == b.log && a.insns_processed == b.insns_processed &&
         a.states_pruned == b.states_pruned && a.peak_states == b.peak_states;
}

// One program's measurement: each path's reference result from an untimed
// first pass (which also warms the caches the timed passes then share), and
// the timed passes' seconds per path.
struct Measurement {
  bpf::VerifierResult reference[2];  // [fast path off, on]
  double seconds[2] = {0, 0};
  bool same = true;  // every result matched the fast path's reference
};

Measurement Measure(const bpf::Program& prog, bpf::VerifierEnv& env, int repeats) {
  Measurement m;
  for (int on = 0; on < 2; ++on) {
    bpf::SetPruneFingerprintEnabled(on == 1);
    m.reference[on] = bpf::VerifyProgram(prog, env);
  }
  m.same = SameResult(m.reference[0], m.reference[1]);
  for (int r = 0; r < repeats; ++r) {
    for (int k = 0; k < 2; ++k) {
      const int on = (r + k) % 2;  // alternate which path goes first
      bpf::SetPruneFingerprintEnabled(on == 1);
      const double start = Now();
      const bpf::VerifierResult result = bpf::VerifyProgram(prog, env);
      m.seconds[on] += Now() - start;
      m.same = m.same && SameResult(result, m.reference[1]);
    }
  }
  bpf::SetPruneFingerprintEnabled(true);
  return m;
}

void Add(const Measurement& m, int repeats, Shape* shape) {
  ++shape->programs;
  shape->e2big += m.reference[1].err == -E2BIG ? 1 : 0;
  shape->seconds[0] += m.seconds[0];
  shape->seconds[1] += m.seconds[1];
  shape->verifications += repeats;
}

}  // namespace
}  // namespace bvf

int main() {
  using namespace bvf;
  PrintHeader("verifier walk: fingerprint index on vs off");
  const unsigned threads = std::thread::hardware_concurrency();
  printf("VerifyProgram only, all bugs, state claims on, %u hardware threads\n\n", threads);

  Shape loop{"loop-to-limit"};
  Shape accepted{"accepted mix"};
  Shape rejected{"rejected mix"};
  bool equal = true;

  {
    bpf::Kernel kernel(bpf::KernelVersion::kBpfNext, bpf::BugConfig::All());
    bpf::VerifierEnv env = EnvFor(kernel);
    const Measurement m = Measure(LoopToLimit(), env, kLoopRepeats);
    if (m.reference[1].err != -E2BIG) {
      fprintf(stderr, "loop-to-limit ended with err %d, not E2BIG:\n%s\n", m.reference[1].err,
              m.reference[1].log.c_str());
      return 1;
    }
    equal = equal && m.same;
    Add(m, kLoopRepeats, &loop);
  }

  StructuredGenerator generator(bpf::KernelVersion::kBpfNext);
  bpf::Rng rng(1);
  for (int i = 0; i < kGenerated; ++i) {
    const FuzzCase the_case = generator.Generate(rng);
    bpf::Kernel kernel(bpf::KernelVersion::kBpfNext, bpf::BugConfig::All());
    bpf::Bpf bpf(kernel);
    for (const bpf::MapDef& def : the_case.maps) {
      bpf.MapCreate(def);
    }
    bpf::VerifierEnv env = EnvFor(kernel);
    const Measurement m = Measure(the_case.prog, env, kMixRepeats);
    if (!m.same) {
      fprintf(stderr, "program %d: results differ between the two paths\n", i);
      equal = false;
    }
    Add(m, kMixRepeats, m.reference[1].ok() ? &accepted : &rejected);
  }

  printf("%-14s %8s %6s %12s %12s %8s\n", "shape", "programs", "E2BIG", "us/verify on",
         "us/verify off", "off/on");
  PrintRule(66);
  for (const Shape* shape : {&loop, &accepted, &rejected}) {
    printf("%-14s %8d %6d %12.1f %12.1f %7.2fx\n", shape->name, shape->programs, shape->e2big,
           shape->UsPerVerify(1), shape->UsPerVerify(0),
           shape->UsPerVerify(0) / std::max(shape->UsPerVerify(1), 1e-9));
  }
  printf("\nresults identical between the two paths: %s\n", equal ? "yes" : "NO");
  const bool bounded = accepted.e2big == 0 && rejected.e2big == 0;
  printf("generated programs ending in E2BIG: %d (bar: 0)\n", rejected.e2big + accepted.e2big);

  FILE* json = fopen("BENCH_verify.json", "w");
  if (json) {
    fprintf(json, "{\n  \"hardware_threads\": %u,\n", threads);
    for (const Shape* shape : {&loop, &accepted, &rejected}) {
      std::string key = shape->name;
      std::replace(key.begin(), key.end(), ' ', '_');
      std::replace(key.begin(), key.end(), '-', '_');
      fprintf(json,
              "  \"%s\": {\"programs\": %d, \"e2big\": %d, \"verifications_per_path\": %d, "
              "\"us_per_verify_on\": %.1f, \"us_per_verify_off\": %.1f},\n",
              key.c_str(), shape->programs, shape->e2big, shape->verifications,
              shape->UsPerVerify(1), shape->UsPerVerify(0));
    }
    fprintf(json, "  \"results_identical\": %s\n}\n", equal ? "true" : "false");
    fclose(json);
    printf("wrote BENCH_verify.json\n");
  }
  return equal && bounded ? 0 : 1;
}
