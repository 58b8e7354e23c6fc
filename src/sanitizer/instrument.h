// BVF's dispatch-based memory-access sanitation pass (paper §4.2, Fig. 5).
//
// Runs inside the verifier's rewrite phase (the bpf_misc_fixup hook): every
// necessary load/store in the verified program is rewritten into
//
//     *(u64 *)(r10 - 520) = r0        ; extended-stack backup of R0
//     r11 = r1                        ; aux-register backup of R1
//     r1 = <target address>
//     call bpf_asan_loadN             ; KASAN-instrumented dispatch
//     r1 = r11
//     r0 = *(u64 *)(r10 - 520)
//     <original instruction>
//
// and pointer/scalar ALU instructions gain runtime alu_limit assertions.
// Instruction-count reduction strategies from the paper are implemented:
// accesses through R10 with constant offsets are skipped (validated against
// the fixed stack bound at verification time), as are instructions emitted
// by other rewrite passes.

#ifndef SRC_SANITIZER_INSTRUMENT_H_
#define SRC_SANITIZER_INSTRUMENT_H_

#include <cstdint>
#include <vector>

#include "src/ebpf/program.h"
#include "src/verifier/verifier.h"

namespace bvf {

struct SanitizerOptions {
  bool sanitize_mem = true;   // load/store dispatch (patches 1 & 2)
  bool sanitize_alu = true;   // alu_limit runtime checks (patch 3)
  bool skip_fp_const = true;  // reduction: skip R10-relative constant accesses
  bool skip_rewritten = true; // reduction: skip insns added by other passes
};

struct SanitizerStats {
  size_t programs = 0;
  size_t insns_before = 0;
  size_t insns_after = 0;
  size_t mem_sites = 0;      // load/store sites instrumented
  size_t alu_sites = 0;      // alu_limit checks emitted
  size_t skipped_fp = 0;     // sites skipped by the R10 optimization
  size_t skipped_rewritten = 0;

  double Footprint() const {
    return insns_before == 0 ? 1.0
                             : static_cast<double>(insns_after) /
                                   static_cast<double>(insns_before);
  }

  // Counter-wise accumulation (parallel-campaign merge).
  void Add(const SanitizerStats& other) {
    programs += other.programs;
    insns_before += other.insns_before;
    insns_after += other.insns_after;
    mem_sites += other.mem_sites;
    alu_sites += other.alu_sites;
    skipped_fp += other.skipped_fp;
    skipped_rewritten += other.skipped_rewritten;
  }

  // Counter-wise delta against an earlier snapshot of the same sanitizer.
  SanitizerStats Since(const SanitizerStats& before) const {
    SanitizerStats delta;
    delta.programs = programs - before.programs;
    delta.insns_before = insns_before - before.insns_before;
    delta.insns_after = insns_after - before.insns_after;
    delta.mem_sites = mem_sites - before.mem_sites;
    delta.alu_sites = alu_sites - before.alu_sites;
    delta.skipped_fp = skipped_fp - before.skipped_fp;
    delta.skipped_rewritten = skipped_rewritten - before.skipped_rewritten;
    return delta;
  }
};

// Rewrites |prog| in place, extending |aux| in lockstep (inserted
// instructions are marked `rewritten`). Branch offsets and pseudo-call
// targets are re-linked across insertions.
class Sanitizer {
 public:
  explicit Sanitizer(SanitizerOptions options = {}) : options_(options) {}

  void Instrument(bpf::Program& prog, std::vector<bpf::InsnAux>& aux);

  // Binds this sanitizer as a verifier-env instrumentation hook.
  std::function<void(bpf::Program&, std::vector<bpf::InsnAux>&)> Hook() {
    return [this](bpf::Program& prog, std::vector<bpf::InsnAux>& aux) {
      Instrument(prog, aux);
    };
  }

  const SanitizerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SanitizerStats{}; }
  // Campaign resume: reinstate counters saved in a checkpoint.
  void RestoreStats(const SanitizerStats& stats) { stats_ = stats; }

 private:
  SanitizerOptions options_;
  SanitizerStats stats_;
};

}  // namespace bvf

#endif  // SRC_SANITIZER_INSTRUMENT_H_
