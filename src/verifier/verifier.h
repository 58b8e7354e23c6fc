// The eBPF verifier: path-sensitive abstract interpretation of eBPF programs,
// modelled on kernel/bpf/verifier.c.
//
// Pipeline (mirroring bpf_check()):
//   1. encoding validation (src/ebpf/program.h)
//   2. CFG check: reachability, jump sanity, subprogram discovery
//   3. do_check(): simulate every path, tracking per-register abstract state
//      (bounds, tnums, pointer provenance), stack slots, helper contracts
//   4. fixup/rewrite: resolve pseudo instructions (map fds, BTF ids) and run
//      the registered instrumentation hook (BVF's sanitation patches in
//      bpf_misc_fixup)
//
// Injectable historical bugs (BugConfig) gate specific checks; see
// DESIGN.md §5.

#ifndef SRC_VERIFIER_VERIFIER_H_
#define SRC_VERIFIER_VERIFIER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/ebpf/program.h"
#include "src/kernel/btf.h"
#include "src/maps/map.h"
#include "src/verifier/bug_registry.h"
#include "src/verifier/helper_protos.h"
#include "src/verifier/kernel_version.h"
#include "src/verifier/verifier_state.h"

namespace bpf {

// Registers covered by abstract-state claims: R0..R9 (R10 is always a frame
// pointer and never carries a scalar claim).
inline constexpr int kClaimRegs = 10;

// Per-instruction auxiliary data produced by verification and consumed by the
// rewrite/instrumentation passes (kernel: struct bpf_insn_aux_data).
struct InsnAux {
  bool seen = false;        // reached by do_check
  bool rewritten = false;   // inserted by a rewrite pass; sanitation skips it
  // Memory-access metadata for load/store instructions.
  RegType mem_ptr_type = RegType::kNotInit;
  bool fp_const_access = false;  // access via R10 + const off (sanitation skips)
  // ALU sanitation info for ptr<op>scalar instructions: the verifier's
  // believed signed range of the scalar operand at this point. The sanitizer
  // turns this into a runtime assert (paper §4.2: assert(offset < alu_limit)).
  bool alu_check = false;
  uint8_t alu_scalar_reg = 0;
  int64_t alu_smin = 0;
  int64_t alu_smax = 0;
  // Abstract-state claims for R0..R9 immediately before this instruction,
  // joined over every explored path. Empty unless
  // VerifierEnv::collect_state_claims is set; audited against concrete
  // register witnesses by src/analysis/state_audit (Indicator #3).
  std::vector<RegClaim> claims;
  // Bit r set while claims[r] is not yet permanently invalid. Observing an
  // invalid claim is a no-op, so the recording loop skips those registers;
  // most claims invalidate on first visit (non-scalar or uninitialized).
  uint16_t live_claims = 0;
};

struct VerifierResult {
  int err = 0;  // 0 on success, negative errno otherwise
  std::string log;

  // Rewritten program + aux (parallel arrays), valid when err == 0.
  Program prog;
  std::vector<InsnAux> aux;

  // Statistics.
  uint32_t insns_processed = 0;
  uint32_t peak_states = 0;
  uint32_t states_pruned = 0;

  // Behavioural summary used by attach-time policy checks.
  std::vector<int32_t> helpers_used;
  std::vector<int32_t> kfuncs_used;
  bool uses_lock_helper = false;
  bool uses_printk_helper = false;
  bool uses_signal_helper = false;
  bool uses_irqwork_helper = false;

  bool ok() const { return err == 0; }
};

// Everything the verifier needs from the surrounding kernel. The runtime
// layer fills this in; tests can provide minimal stubs.
struct VerifierEnv {
  MapRegistry* maps = nullptr;
  const BtfRegistry* btf = nullptr;
  KernelVersion version = KernelVersion::kBpfNext;
  BugConfig bugs;

  // Guest address resolution for the fixup pass.
  std::function<uint64_t(int map_id)> map_obj_addr;
  std::function<uint64_t(int btf_struct_id)> btf_obj_addr;

  // Instrumentation hook run at the end of the rewrite phase (BVF patches).
  std::function<void(Program&, std::vector<InsnAux>&)> instrument;

  // Export per-instruction abstract-state claims into InsnAux::claims for the
  // witness-containment audit (Indicator #3).
  bool collect_state_claims = false;

  bool verbose_log = false;  // per-insn state dump in the log
};

// Context-field descriptors per program type.
struct CtxField {
  const char* name;
  int off;
  int size;
  bool writable;
  enum class Special { kNone, kPktData, kPktEnd } special = Special::kNone;
};

struct CtxDescriptor {
  int size;
  std::vector<CtxField> fields;

  const CtxField* FieldAt(int off, int size) const;
};

const CtxDescriptor& CtxDescriptorFor(ProgType type);

// Runs the full pipeline on |prog|.
VerifierResult VerifyProgram(const Program& prog, VerifierEnv& env);

// Process-wide switch for the pruning-loop fingerprint fast path: back-edge
// arrivals look their StateFingerprint up in a per-prune-point index and
// confirm candidates with the exact StateEqual, instead of scanning the
// explored list with StateEqual. On by default; equality outcomes are
// identical either way, so this only exists so benchmarks can measure the
// unaccelerated walk and tests can cross-check the two paths. Not
// thread-safe against in-flight verifications; flip it only between
// campaigns.
void SetPruneFingerprintEnabled(bool enabled);
bool PruneFingerprintEnabled();

// ---- Abstract transfer functions, exposed for tooling and property tests ----

// Applies the scalar ALU transfer function of |insn| (class+op) to dst/src
// abstract values, as adjust_scalar_min_max_vals does during verification.
void ScalarAluTransfer(const Insn& insn, RegState& dst, RegState src_val);

// Branch-outcome evaluation from bounds: 1 = always taken, 0 = never,
// -1 = unknown (is_branch_taken).
int BranchOutcome(const RegState& reg, uint64_t val, uint8_t jmp_op, bool is32);

// Refines |reg| under the assumption that `reg <jmp_op> val` holds
// (reg_set_min_max).
void RefineScalarAgainstConst(RegState& reg, uint8_t jmp_op, uint64_t val, bool is32);

}  // namespace bpf

#endif  // SRC_VERIFIER_VERIFIER_H_
