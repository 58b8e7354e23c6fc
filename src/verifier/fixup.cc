// Rewrite phase (kernel: convert_pseudo_ld_imm64 + do_misc_fixups): resolves
// pseudo ld_imm64 operands to runtime guest addresses and invokes the
// registered instrumentation hook — the point where BVF's sanitation patches
// plug in (paper §5: "conducted in the bpf_misc_fixup() phase in conjunction
// with other rewrite passes").

#include <cerrno>
#include <utility>

#include "src/kernel/coverage.h"
#include "src/verifier/checker.h"

namespace bpf {

int Checker::Fixup() {
  res_.prog = prog_;
  std::vector<Insn>& insns = res_.prog.insns;

  for (size_t i = 0; i < insns.size(); ++i) {
    Insn& insn = insns[i];
    if (!insn.IsLdImm64()) {
      continue;
    }
    const uint64_t imm64 =
        (static_cast<uint64_t>(static_cast<uint32_t>(insns[i + 1].imm)) << 32) |
        static_cast<uint32_t>(insn.imm);
    uint64_t addr = 0;
    switch (insn.src) {
      case 0:
        ++i;
        continue;
      case kPseudoMapFd: {
        BVF_COV();
        if (env_.map_obj_addr) {
          addr = env_.map_obj_addr(static_cast<int>(imm64));
        }
        break;
      }
      case kPseudoMapValue: {
        BVF_COV();
        const Map* map = FindMap(static_cast<int>(imm64 & 0xffffffff));
        if (map != nullptr) {
          addr = map->ValuesAddr() + (imm64 >> 32);
        }
        break;
      }
      case kPseudoBtfId: {
        BVF_COV();
        if (env_.btf_obj_addr) {
          addr = env_.btf_obj_addr(static_cast<int>(imm64));
        }
        break;
      }
      default:
        Log("fixup: unexpected pseudo src %d at insn %zu", insn.src, i);
        return -EINVAL;
    }
    // Note: a BTF object address may legitimately be 0 (e.g. a kernel
    // thread's mm); PTR_TO_BTF_ID loads are exception-handled at runtime.
    insn.src = 0;
    insn.imm = static_cast<int32_t>(addr & 0xffffffffu);
    insns[i + 1].imm = static_cast<int32_t>(addr >> 32);
    ++i;
  }

  // Instrumentation hook: BVF's memory-access sanitation runs here, after all
  // other rewrites, so it sees the final instruction stream.
  if (env_.instrument) {
    BVF_COV();
    env_.instrument(res_.prog, aux_);
  }

  res_.aux = std::move(aux_);  // the last use: Run() returns after Fixup
  return 0;
}

}  // namespace bpf
