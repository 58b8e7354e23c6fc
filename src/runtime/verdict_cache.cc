#include "src/runtime/verdict_cache.h"

#include "src/runtime/kernel.h"

namespace bpf {

namespace {

// Two independent FNV-1a streams; different offset bases decorrelate them.
struct Digest2 {
  uint64_t lo = 14695981039346656037ull;
  uint64_t hi = 0xcbf29ce484222325ull ^ 0x9e3779b97f4a7c15ull;

  void Byte(uint8_t b) {
    lo = (lo ^ b) * 1099511628211ull;
    hi = (hi ^ b) * 0x100000001b3ull;
    hi = (hi << 7) | (hi >> 57);
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      Byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
};

}  // namespace

VerdictKey MakeVerdictKey(const Program& prog, Kernel& kernel, bool instrumented,
                          bool collect_claims) {
  Digest2 d;
  d.Byte(2);  // key-format version (2: bug13 joined the packed bug bits)
  d.U32(static_cast<uint32_t>(kernel.version()));
  const BugConfig& bugs = kernel.bugs();
  const bool bug_bits[] = {
      bugs.bug1_nullness_propagation, bugs.bug2_task_struct_bounds,
      bugs.bug3_kfunc_backtrack,      bugs.bug4_trace_printk_recursion,
      bugs.bug5_contention_begin,     bugs.bug6_send_signal,
      bugs.bug7_dispatcher_sync,      bugs.bug8_kmemdup,
      bugs.bug9_bucket_iteration,     bugs.bug10_irq_work,
      bugs.bug11_xdp_offload,         bugs.bug12_jmp32_signed_refine,
      bugs.cve_2022_23222,            bugs.bug13_ld_imm64_pessimize,
  };
  uint32_t packed = 0;
  for (size_t i = 0; i < sizeof(bug_bits) / sizeof(bug_bits[0]); ++i) {
    packed |= bug_bits[i] ? (1u << i) : 0;
  }
  d.U32(packed);
  d.Byte(instrumented ? 1 : 0);
  d.Byte(collect_claims ? 1 : 0);
  d.U32(static_cast<uint32_t>(prog.type));
  d.Byte(prog.offload_requested ? 1 : 0);
  d.U64(prog.insns.size());
  for (const Insn& insn : prog.insns) {
    d.Byte(insn.opcode);
    d.Byte(insn.dst);
    d.Byte(insn.src);
    d.U32(static_cast<uint32_t>(static_cast<uint16_t>(insn.off)));
    d.U32(static_cast<uint32_t>(insn.imm));
  }
  // Map definitions, in id order: pseudo map-fd references resolve against
  // these, and key/value sizes feed helper-argument and access checks.
  const auto& maps = kernel.maps().maps();
  d.U64(maps.size());
  for (const auto& map : maps) {
    d.U32(static_cast<uint32_t>(map->id()));
    d.U32(static_cast<uint32_t>(map->def().type));
    d.U32(map->def().key_size);
    d.U32(map->def().value_size);
    d.U32(map->def().max_entries);
  }
  return VerdictKey{d.lo, d.hi};
}

}  // namespace bpf
