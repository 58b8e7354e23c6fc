// Decode-once micro-op execution engine (DESIGN.md §10).
//
// The legacy interpreter re-derives everything about an instruction — class,
// op, operand source, jump target, helper binding — from the raw Insn bytes
// on every step of every run, while the campaign executes the same accepted
// program many times (ProgTestRun repeats, attach events, confirmation runs,
// fault replays). DecodeProgram lowers a verified, sanitizer-rewritten
// program once, at BPF_PROG_LOAD time, into a dense array of micro-ops:
//
//   * the opcode is resolved to a flat UopCode (one dispatch, no nested
//     class/op/mode switches),
//   * ld_imm64 pairs are folded into a single uop carrying the full 64-bit
//     immediate (the high slot keeps a kInvalid placeholder so uop indices
//     stay equal to instruction indices and jumps into the pair behave
//     exactly like the legacy engine),
//   * jump offsets become absolute uop indices; any target outside the
//     program maps to a trailing kPcOob sentinel that reproduces the legacy
//     "pc out of range" abort,
//   * bpf_asan_{load,store}{8,16,32,64}, the BTF load variants, and the alu
//     guards — the hot sanitizer dispatch targets — are recognized by id and
//     lowered to dedicated uops that inline the checked-access semantics
//     (src/sanitizer/asan_check.h) with size/null_ok precomputed, skipping
//     the id->std::function table entirely, and
//   * per-insn flags the hot loop needs (witness recording, PTR_TO_BTF_ID
//     exception handling) are baked into the uop.
//
// RunDecoded executes the array with computed-goto threaded dispatch when the
// toolchain supports it (portable switch fallback behind the
// BVF_THREADED_DISPATCH cmake option). The engine is digest-invisible: it
// shares its per-instruction semantics with the legacy interpreter
// (src/runtime/interp_ops.h), runs the identical budget/watchdog/witness
// prologue on every uop, and a uop is exactly one legacy loop iteration, so
// ExecResult (r0, errno, insns_executed, abort_reason), reports, sanitizer
// stats, and fault-injection points are bit-identical — see
// tests/interp_parity_test.cc for the differential gate.
//
// DecodeProgram runs once per accepted load; LoadedProgram holds the result
// through a shared_ptr so the JIT tier and case reset never outlive it.

#ifndef SRC_RUNTIME_DECODED_PROG_H_
#define SRC_RUNTIME_DECODED_PROG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/runtime/exec_context.h"
#include "src/verifier/verifier.h"

namespace bpf {

class Kernel;

enum class UopCode : uint8_t {
  kAlu64Imm,
  kAlu64Reg,
  kAlu32Imm,
  kAlu32Reg,
  kNeg64,
  kNeg32,
  kEndian,      // bswap / to_le mask; flag = to_be, imm = width
  kLdImm64,     // folded pair; imm = full 64-bit immediate, target = pc + 2
  kLoad,        // BPF_LDX|BPF_MEM[SX]; flag = PTR_TO_BTF_ID, sext = BPF_MEMSX
  kStoreReg,
  kStoreImm,
  kAtomic,
  kJa,
  kJmpImm,
  kJmpReg,
  kJmp32Imm,
  kJmp32Reg,
  kExit,
  kCallSubprog,   // target = callee entry uop
  kCallHelper,    // imm = helper id
  kCallKfunc,     // imm = kfunc id
  kCallInternal,  // imm = internal func id (generic table dispatch)
  kAsanLoad,      // inlined bpf_asan_load{8..64}[_btf]; flag = null_ok
  kAsanStore,     // inlined bpf_asan_store{8..64}
  kAsanAluPos,    // inlined bpf_asan_alu_check_pos
  kAsanAluNeg,    // inlined bpf_asan_alu_check_neg
  kInvalid,       // legacy "unknown opcode" (-EINVAL)
  kPcOob,         // sentinel: legacy "pc out of range" (-EFAULT)
};

inline constexpr size_t kNumUopCodes = static_cast<size_t>(UopCode::kPcOob) + 1;

struct Uop {
  UopCode code = UopCode::kInvalid;
  uint8_t subop = 0;    // raw ALU/JMP op for the shared semantic helpers
  uint8_t dst = 0;
  uint8_t src = 0;
  uint8_t size = 0;     // memory/asan access bytes
  bool flag = false;    // btf_load / null_ok / to_be
  bool sext = false;    // kLoad: BPF_MEMSX sign-extending fill
  bool witness = false; // record a register witness before executing
  int16_t off = 0;      // memory offset
  int32_t target = 0;   // absolute uop index: taken branch / callee / skip
  int32_t orig_pc = 0;  // original instruction index (witness entries)
  int64_t imm = 0;      // sign-extended imm / folded imm64 / call id
};

// One verified program, lowered. uops[i] corresponds to insns[i] for
// i < insn_count; uops[insn_count] is the kPcOob sentinel every out-of-range
// control transfer lands on. Immutable after decode and kernel-agnostic, so
// one instance is safely shared across substrates, workers, and rebuilds.
struct DecodedProgram {
  std::vector<Uop> uops;
  size_t insn_count = 0;
};

// Lowers |prog| (the rewritten instruction stream) with its per-insn verifier
// metadata |aux| into micro-ops. Never fails: encodings the legacy engine
// would reject at runtime lower to kInvalid uops that abort identically.
std::shared_ptr<const DecodedProgram> DecodeProgram(const Program& prog,
                                                    const std::vector<InsnAux>& aux);

// Executes a decoded program. Behaviorally identical to
// Interpreter::RunLegacy on the program it was decoded from.
ExecResult RunDecoded(Kernel& kernel, const DecodedProgram& decoded, ExecContext& ctx,
                      const ExecLimits& limits);

}  // namespace bpf

#endif  // SRC_RUNTIME_DECODED_PROG_H_
