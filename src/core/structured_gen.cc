#include "src/core/structured_gen.h"

#include <algorithm>

#include "src/analysis/lints.h"
#include "src/analysis/reaching_defs.h"
#include "src/ebpf/builder.h"
#include "src/kernel/btf.h"
#include "src/verifier/helper_protos.h"
#include "src/verifier/verifier.h"

namespace bvf {

using bpf::Insn;
using bpf::KernelFeatures;
using bpf::MapDef;
using bpf::MapType;
using bpf::ProgType;
using bpf::Rng;
using bpf::TracepointId;

namespace {

// Generation-time register model: a coarse mirror of the verifier's types.
enum class GK : uint8_t {
  kUninit,
  kScalar,        // unknown scalar
  kScalarSmall,   // scalar refined into [0, bound]
  kMapPtr,        // CONST_PTR_TO_MAP
  kMapValue,      // non-null map value pointer
  kMapValueNull,  // map_value_or_null (pre null-check)
  kStack,         // R10 copy (possibly offset)
  kCtx,
  kTaskBtf,       // PTR_TO_BTF_ID task_struct
  kBtfPtr,        // other PTR_TO_BTF_ID
};

struct GReg {
  GK kind = GK::kUninit;
  int map = -1;       // map index (fd - 1) for kMapPtr/kMapValue*
  int btf = 0;        // BTF struct id for kBtfPtr
  int64_t bound = 0;  // for kScalarSmall
};

struct GenCtx {
  Rng* rng;
  KernelFeatures features;
  bpf::KernelVersion version;
  const StructuredGenOptions* options;

  ProgType type = ProgType::kSocketFilter;
  std::vector<MapDef> maps;

  GReg regs[11];
  bool stack_init[bpf::kStackSlots] = {};  // slot 0 = fp-8
  // Registers no emitted instruction may write: a jump frame pins its loop
  // counter while it emits the body, so the loop stays bounded. Reads stay
  // allowed.
  uint16_t pinned = 0;

  std::vector<Insn> out;

  // Pseudo eBPF functions (paper: call targets besides helpers/kfuncs).
  // Bodies are appended after the end section; call imms patched then.
  std::vector<std::vector<Insn>> subprogs;
  struct PendingCall {
    size_t call_idx;
    size_t subprog;
  };
  std::vector<PendingCall> pending_calls;

  // ---- emission helpers ----
  void Emit(const Insn& insn) { out.push_back(insn); }
  void EmitLdImm64(uint8_t dst, uint64_t value, uint8_t pseudo = 0) {
    Emit(bpf::LdImm64Lo(dst, pseudo, value));
    Emit(bpf::LdImm64Hi(value));
  }

  bool Chance(double p) { return rng->Chance(p); }
  int64_t Range(int64_t lo, int64_t hi) { return rng->Range(lo, hi); }

  // Picks a register matching |pred|; returns -1 when none matches.
  template <typename Pred>
  int PickReg(Pred pred) {
    int candidates[11];
    int n = 0;
    for (int r = 0; r <= 10; ++r) {
      if (pred(r, regs[r])) {
        candidates[n++] = r;
      }
    }
    if (n == 0) {
      return -1;
    }
    return candidates[rng->Below(n)];
  }

  bool Pinned(int r) const { return (pinned >> r) & 1; }

  int PickScalar() {
    return PickReg([](int r, const GReg& g) {
      return r != 10 && (g.kind == GK::kScalar || g.kind == GK::kScalarSmall);
    });
  }
  // A scalar the next instruction may overwrite in place.
  int PickScalarDest() {
    return PickReg([this](int r, const GReg& g) {
      return r != 10 && !Pinned(r) && (g.kind == GK::kScalar || g.kind == GK::kScalarSmall);
    });
  }
  // A register that is free to clobber (prefers caller-saved temporaries).
  int PickDest(bool callee_saved_ok = true) {
    const int r = PickReg([&](int reg, const GReg& g) {
      if (reg == 10 || reg == 0 || Pinned(reg)) {
        return false;
      }
      const bool callee_saved = reg >= 6 && reg <= 9;
      if (callee_saved && !callee_saved_ok) {
        return false;
      }
      // Avoid clobbering the only ctx copy.
      return g.kind != GK::kCtx || reg == 1;
    });
    return r;
  }

  int FindKind(GK kind) {
    return PickReg([kind](int, const GReg& g) { return g.kind == kind; });
  }

  int FindMapOfType(MapType type) {
    std::vector<int> hits;
    for (size_t i = 0; i < maps.size(); ++i) {
      if (maps[i].type == type) {
        hits.push_back(static_cast<int>(i));
      }
    }
    if (hits.empty()) {
      return -1;
    }
    return hits[rng->Below(hits.size())];
  }

  // Initializes |bytes| bytes of stack at fp-|neg_off| via 8-byte stores.
  // Returns the (negative) offset used.
  int InitStack(int bytes) {
    const int slots = (bytes + 7) / 8;
    const int max_first = bpf::kStackSlots - slots;
    const int first = static_cast<int>(rng->Below(std::min(max_first, 8) + 1));
    for (int s = 0; s < slots; ++s) {
      const int slot = first + s;
      const int16_t off = static_cast<int16_t>(-8 * (slot + 1));
      Emit(bpf::StoreMemImm(bpf::kSizeDw, bpf::kR10, off,
                            static_cast<int32_t>(rng->Below(3) == 0 ? rng->Next() & 0xff : 0)));
      stack_init[slot] = true;
    }
    return -8 * (first + slots);
  }

  // Loads a stack pointer (fp + off) into |dst|.
  void StackPtrTo(uint8_t dst, int off) {
    Emit(bpf::MovReg(dst, bpf::kR10));
    if (off != 0) {
      Emit(bpf::AluImm(bpf::kAluAdd, dst, off));
    }
    regs[dst] = GReg{GK::kStack};
  }
};

uint8_t RandomSize(Rng& rng) {
  static constexpr uint8_t kSizes[] = {bpf::kSizeB, bpf::kSizeH, bpf::kSizeW, bpf::kSizeDw};
  return kSizes[rng.Below(4)];
}

int SizeBytes(uint8_t size) {
  switch (size) {
    case bpf::kSizeB:
      return 1;
    case bpf::kSizeH:
      return 2;
    case bpf::kSizeW:
      return 4;
    default:
      return 8;
  }
}

// ---------- init header ----------

void EmitInitHeader(GenCtx& g) {
  g.regs[1] = GReg{GK::kCtx};
  g.regs[10] = GReg{GK::kStack};

  if (!g.options->init_header) {
    return;
  }

  // Save the context pointer into a callee-saved register: calls clobber R1.
  if (g.Chance(0.8)) {
    g.Emit(bpf::MovReg(bpf::kR6, bpf::kR1));
    g.regs[6] = GReg{GK::kCtx};
  }

  // Candidate loads for the remaining callee-saved registers (paper Fig. 4
  // (1): map fds, map values, BTF ids, random 64-bit immediates).
  for (uint8_t r = 7; r <= 9; ++r) {
    if (g.Chance(0.25)) {
      continue;  // leave uninitialized (never read afterwards)
    }
    switch (g.rng->Below(5)) {
      case 0: {  // map fd
        const int map = static_cast<int>(g.rng->Below(g.maps.size()));
        g.EmitLdImm64(r, static_cast<uint64_t>(map + 1), bpf::kPseudoMapFd);
        g.regs[r] = GReg{GK::kMapPtr, map};
        break;
      }
      case 1:  // random 64-bit immediate
        g.EmitLdImm64(r, g.rng->Next());
        g.regs[r] = GReg{GK::kScalar};
        break;
      case 2:  // small immediate
        g.Emit(bpf::MovImm(r, static_cast<int32_t>(g.rng->Below(64))));
        g.regs[r] = GReg{GK::kScalarSmall, -1, 0, 63};
        break;
      case 3:  // stack pointer
        g.StackPtrTo(r, -static_cast<int>(8 * (1 + g.rng->Below(8))));
        break;
      case 4: {  // BTF object (ksym-style load)
        if (g.features.kfunc_calls || g.features.task_btf_helpers) {
          static constexpr int kBtfIds[] = {bpf::kBtfTaskStruct, bpf::kBtfMmStruct,
                                            bpf::kBtfFile, bpf::kBtfCgroup};
          const int btf = kBtfIds[g.rng->Below(4)];
          g.EmitLdImm64(r, static_cast<uint64_t>(btf), bpf::kPseudoBtfId);
          g.regs[r] =
              btf == bpf::kBtfTaskStruct ? GReg{GK::kTaskBtf} : GReg{GK::kBtfPtr, -1, btf};
        } else {
          g.Emit(bpf::MovImm(r, 1));
          g.regs[r] = GReg{GK::kScalarSmall, -1, 0, 1};
        }
        break;
      }
    }
  }

  // Pre-initialize a little stack so later frames can pass keys around.
  g.InitStack(16);
}

// ---------- basic frame ----------

void EmitBasicOp(GenCtx& g);

// Emits a guarded dereference body for a map-value register.
void EmitMapValueOps(GenCtx& g, int reg) {
  const MapDef& def = g.maps[g.regs[reg].map];
  const int count = static_cast<int>(1 + g.rng->Below(3));
  for (int i = 0; i < count; ++i) {
    const uint8_t size = RandomSize(*g.rng);
    const int bytes = SizeBytes(size);
    int max_off = static_cast<int>(def.value_size) - bytes;
    if (max_off < 0) {
      max_off = 0;
    }
    int16_t off = static_cast<int16_t>(g.rng->Below(max_off + 1));
    if (g.options->risky && g.Chance(0.12)) {
      off = static_cast<int16_t>(def.value_size - bytes + 1 + g.rng->Below(16));  // OOB try
    }
    if (g.Chance(0.5)) {
      const int dst = g.PickDest();
      if (dst >= 0) {
        g.Emit(bpf::LoadMem(size, static_cast<uint8_t>(dst), static_cast<uint8_t>(reg), off));
        g.regs[dst] = GReg{GK::kScalar};
      }
    } else if (g.Chance(0.7)) {
      g.Emit(bpf::StoreMemImm(size, static_cast<uint8_t>(reg), off,
                              static_cast<int32_t>(g.rng->Next() & 0xffff)));
    } else {
      const int src = g.PickScalar();
      if (src >= 0) {
        g.Emit(bpf::StoreMemReg(size, static_cast<uint8_t>(reg), static_cast<uint8_t>(src),
                                off));
      }
    }
  }
  // Variable-offset access pattern: mask a scalar and use it as an index —
  // exercises the bounds tracking + alu_limit machinery.
  if (g.Chance(0.35)) {
    const int idx = g.PickScalarDest();
    const int dst = g.PickDest();
    if (idx >= 0 && dst >= 0 && dst != reg && idx != dst && def.value_size >= 16) {
      g.Emit(bpf::AluImm(bpf::kAluAnd, static_cast<uint8_t>(idx),
                         static_cast<int32_t>(def.value_size / 2 - 8)));
      g.Emit(bpf::MovReg(static_cast<uint8_t>(dst), static_cast<uint8_t>(reg)));
      g.Emit(bpf::AluReg(bpf::kAluAdd, static_cast<uint8_t>(dst), static_cast<uint8_t>(idx)));
      g.Emit(bpf::LoadMem(bpf::kSizeDw, static_cast<uint8_t>(dst), static_cast<uint8_t>(dst),
                          0));
      g.regs[idx] = GReg{GK::kScalarSmall, -1, 0, static_cast<int64_t>(def.value_size / 2 - 8)};
      g.regs[dst] = GReg{GK::kScalar};
    }
  }
}

void EmitCtxLoad(GenCtx& g) {
  const int ctx = g.FindKind(GK::kCtx);
  const int dst = g.PickDest();
  if (ctx < 0 || dst < 0) {
    return;
  }
  const bpf::CtxDescriptor& desc = bpf::CtxDescriptorFor(g.type);
  const bpf::CtxField& field = g.rng->Pick(desc.fields);
  if (field.special != bpf::CtxField::Special::kNone) {
    return;  // packet fields handled by the packet pattern
  }
  const uint8_t size = field.size == 8 ? bpf::kSizeDw : bpf::kSizeW;
  g.Emit(bpf::LoadMem(size, static_cast<uint8_t>(dst), static_cast<uint8_t>(ctx),
                      static_cast<int16_t>(field.off)));
  g.regs[dst] = GReg{GK::kScalar};
  if (g.options->risky && g.Chance(0.05) && field.writable) {
    const int src = g.PickScalar();
    if (src >= 0) {
      g.Emit(bpf::StoreMemReg(bpf::kSizeW, static_cast<uint8_t>(ctx),
                              static_cast<uint8_t>(src), static_cast<int16_t>(field.off)));
    }
  }
}

void EmitBtfLoads(GenCtx& g) {
  const int reg = g.PickReg([](int, const GReg& r) {
    return r.kind == GK::kTaskBtf || r.kind == GK::kBtfPtr;
  });
  const int dst = g.PickDest();
  if (reg < 0 || dst < 0) {
    return;
  }
  const bool is_task = g.regs[reg].kind == GK::kTaskBtf;
  // task_struct field table (src/kernel/btf.cc): pointer fields chain.
  struct FieldPick {
    int16_t off;
    uint8_t size;
    GK result;
    int btf;
  };
  static constexpr FieldPick kTaskFields[] = {
      {16, bpf::kSizeW, GK::kScalar, 0},                    // pid
      {20, bpf::kSizeW, GK::kScalar, 0},                    // tgid
      {40, bpf::kSizeDw, GK::kBtfPtr, bpf::kBtfMmStruct},   // mm (NULL at runtime!)
      {48, bpf::kSizeDw, GK::kBtfPtr, bpf::kBtfFile},       // files
      {64, bpf::kSizeDw, GK::kScalar, 0},                   // start_time
      {112, bpf::kSizeDw, GK::kTaskBtf, 0},                 // parent
  };
  FieldPick pick{0, bpf::kSizeDw, GK::kScalar, 0};
  if (is_task) {
    pick = kTaskFields[g.rng->Below(6)];
    if (g.options->risky && g.Chance(0.2)) {
      // Offsets running toward/past the end of the 192-byte task_struct:
      // the tail of the window is legal only under bug #2's page-sized
      // bound and lands in the allocation's redzone at runtime.
      pick = FieldPick{static_cast<int16_t>(160 + 8 * g.rng->Below(8)), bpf::kSizeDw,
                       GK::kScalar, 0};
    }
  } else {
    pick.off = static_cast<int16_t>(8 * g.rng->Below(8));
    pick.size = bpf::kSizeDw;
  }
  g.Emit(bpf::LoadMem(pick.size, static_cast<uint8_t>(dst), static_cast<uint8_t>(reg),
                      pick.off));
  g.regs[dst] = pick.result == GK::kBtfPtr ? GReg{GK::kBtfPtr, -1, pick.btf}
                                           : GReg{pick.result};
}

void EmitBasicOp(GenCtx& g) {
  switch (g.rng->Below(8)) {
    case 0: {  // scalar ALU
      const int dst = g.PickScalarDest();
      if (dst < 0) {
        break;
      }
      static constexpr uint8_t kOps[] = {bpf::kAluAdd, bpf::kAluSub, bpf::kAluMul,
                                         bpf::kAluAnd, bpf::kAluOr,  bpf::kAluXor,
                                         bpf::kAluLsh, bpf::kAluRsh, bpf::kAluArsh};
      const uint8_t op = kOps[g.rng->Below(9)];
      const bool shift = op == bpf::kAluLsh || op == bpf::kAluRsh || op == bpf::kAluArsh;
      if (g.Chance(0.5)) {
        const int32_t imm = shift ? static_cast<int32_t>(g.rng->Below(64))
                                  : static_cast<int32_t>(g.rng->Next());
        if (g.Chance(0.3)) {
          g.Emit(bpf::Alu32Imm(op, static_cast<uint8_t>(dst),
                               shift ? imm % 32 : imm));
        } else {
          g.Emit(bpf::AluImm(op, static_cast<uint8_t>(dst), imm));
        }
      } else {
        const int src = g.PickScalar();
        if (src >= 0) {
          g.Emit(bpf::AluReg(op, static_cast<uint8_t>(dst), static_cast<uint8_t>(src)));
        }
      }
      g.regs[dst] = GReg{GK::kScalar};
      break;
    }
    case 1: {  // stack store
      const int slot = static_cast<int>(g.rng->Below(12));
      const int16_t off = static_cast<int16_t>(-8 * (slot + 1));
      if (g.Chance(0.5)) {
        g.Emit(bpf::StoreMemImm(bpf::kSizeDw, bpf::kR10, off,
                                static_cast<int32_t>(g.rng->Next() & 0xffff)));
      } else {
        const int src = g.PickReg([](int r, const GReg& reg) {
          return r != 10 && reg.kind != GK::kUninit;
        });
        if (src < 0) {
          break;
        }
        g.Emit(bpf::StoreMemReg(bpf::kSizeDw, bpf::kR10, static_cast<uint8_t>(src), off));
      }
      g.stack_init[slot] = true;
      break;
    }
    case 2: {  // stack load
      int slot = -1;
      for (int s = 0; s < 12; ++s) {
        if (g.stack_init[s] && g.Chance(0.5)) {
          slot = s;
          break;
        }
      }
      if (slot < 0 && g.options->risky && g.Chance(0.15)) {
        slot = static_cast<int>(g.rng->Below(12));  // possibly uninitialized
      }
      if (slot < 0) {
        break;
      }
      const int dst = g.PickDest();
      if (dst < 0) {
        break;
      }
      g.Emit(bpf::LoadMem(bpf::kSizeDw, static_cast<uint8_t>(dst), bpf::kR10,
                          static_cast<int16_t>(-8 * (slot + 1))));
      g.regs[dst] = GReg{GK::kScalar};
      break;
    }
    case 3: {  // map value ops (requires a checked map-value register)
      const int mv = g.FindKind(GK::kMapValue);
      if (mv >= 0) {
        EmitMapValueOps(g, mv);
      }
      break;
    }
    case 4:
      EmitCtxLoad(g);
      break;
    case 5:
      EmitBtfLoads(g);
      break;
    case 6: {  // atomic op on an initialized stack slot
      int slot = -1;
      for (int s = 0; s < 12; ++s) {
        if (g.stack_init[s]) {
          slot = s;
          break;
        }
      }
      const int src = g.PickScalar();
      if (slot < 0 || src < 0) {
        break;
      }
      static constexpr int32_t kAtomicOps[] = {bpf::kAtomicAdd, bpf::kAtomicOr,
                                               bpf::kAtomicAnd, bpf::kAtomicXor,
                                               bpf::kAtomicAdd | bpf::kAtomicFetch};
      const int32_t op = kAtomicOps[g.rng->Below(5)];
      if ((op & bpf::kAtomicFetch) != 0 && g.Pinned(src)) {
        break;  // a fetch writes the old slot value back into |src|
      }
      g.Emit(bpf::AtomicOp(bpf::kSizeDw, bpf::kR10, static_cast<uint8_t>(src),
                           static_cast<int16_t>(-8 * (slot + 1)), op));
      break;
    }
    case 7: {  // scalar refinement via masking (feeds variable-offset uses)
      const int reg = g.PickScalarDest();
      if (reg < 0) {
        break;
      }
      const int64_t bound = 7 + 8 * static_cast<int64_t>(g.rng->Below(8));
      g.Emit(bpf::AluImm(bpf::kAluAnd, static_cast<uint8_t>(reg),
                         static_cast<int32_t>(bound)));
      g.regs[reg] = GReg{GK::kScalarSmall, -1, 0, bound};
      break;
    }
  }
}

void EmitBasicFrame(GenCtx& g) {
  const int ops = static_cast<int>(1 + g.rng->Below(4));
  for (int i = 0; i < ops; ++i) {
    EmitBasicOp(g);
  }
}

// ---------- call frame ----------

void EmitCallFrame(GenCtx& g);
void EmitFrames(GenCtx& g, int budget, int depth);

// Emits `r0 = map_lookup(map, key-on-stack)` + optional null check + uses.
void EmitMapLookupPattern(GenCtx& g, int map) {
  const MapDef& def = g.maps[map];
  const int key_off = g.InitStack(static_cast<int>(def.key_size));
  // Sometimes force a guaranteed-miss key so the OR_NULL branch is real.
  if (g.Chance(0.5)) {
    g.Emit(bpf::StoreMemImm(bpf::kSizeDw, bpf::kR10, static_cast<int16_t>(key_off), 77));
  }
  g.EmitLdImm64(bpf::kR1, static_cast<uint64_t>(map + 1), bpf::kPseudoMapFd);
  g.StackPtrTo(bpf::kR2, key_off);
  g.Emit(bpf::CallHelper(bpf::kHelperMapLookupElem));
  for (int r = 1; r <= 5; ++r) {
    g.regs[r] = GReg{GK::kUninit};
  }
  g.regs[0] = GReg{GK::kMapValueNull, map};

  // CVE-2022-23222 pattern: arithmetic on the nullable pointer before the
  // null check. Rejected by fixed verifiers, loadable under the CVE.
  const bool cve_pattern = g.options->risky && g.Chance(0.05);
  if (cve_pattern) {
    // Nonzero delta: at runtime a missed lookup leaves r0 == delta != 0, so
    // the null check takes the "non-null" branch with a garbage pointer.
    g.Emit(bpf::AluImm(bpf::kAluAdd, bpf::kR0,
                       static_cast<int32_t>(8 * (1 + g.rng->Below(3)))));
  }

  if (!g.options->risky || !g.Chance(0.10)) {
    // Null check guarding a body that dereferences the value.
    std::vector<Insn> saved = std::move(g.out);
    g.out.clear();
    g.regs[0].kind = GK::kMapValue;
    EmitMapValueOps(g, 0);
    std::vector<Insn> body = std::move(g.out);
    g.out = std::move(saved);
    g.Emit(bpf::JmpImm(bpf::kJmpJeq, bpf::kR0, 0, static_cast<int16_t>(body.size())));
    for (const Insn& insn : body) {
      g.Emit(insn);
    }
    g.regs[0] = GReg{GK::kScalar};  // merged: value-or-zero
    // Keep a map-value copy alive across later frames occasionally.
    if (g.Chance(0.3)) {
      // Re-check and stash in a callee-saved register.
      g.Emit(bpf::MovReg(bpf::kR7, bpf::kR0));
      g.regs[7] = GReg{GK::kScalar};
    }
  } else {
    // Risky: dereference without a null check (rejected unless buggy).
    const int dst = g.PickDest();
    if (dst >= 0) {
      g.Emit(bpf::LoadMem(bpf::kSizeDw, static_cast<uint8_t>(dst), bpf::kR0, 0));
      g.regs[dst] = GReg{GK::kScalar};
    }
    g.regs[0] = GReg{GK::kScalar};
  }
}

// Bug #1 shape (Listing 2): compare a nullable map value against a trusted
// PTR_TO_BTF_ID that is NULL at runtime, then dereference in the equal path.
void EmitNullnessPropagationPattern(GenCtx& g) {
  const int hash = g.FindMapOfType(MapType::kHash);
  if (hash < 0) {
    return;
  }
  // r8 = task->mm (PTR_TO_BTF_ID, runtime NULL for kernel threads)
  g.EmitLdImm64(bpf::kR8, static_cast<uint64_t>(bpf::kBtfMmStruct), bpf::kPseudoBtfId);
  g.regs[8] = GReg{GK::kBtfPtr, -1, bpf::kBtfMmStruct};

  const MapDef& def = g.maps[hash];
  const int key_off = g.InitStack(static_cast<int>(def.key_size));
  g.Emit(bpf::StoreMemImm(bpf::kSizeDw, bpf::kR10, static_cast<int16_t>(key_off), 7777));
  g.EmitLdImm64(bpf::kR1, static_cast<uint64_t>(hash + 1), bpf::kPseudoMapFd);
  g.StackPtrTo(bpf::kR2, key_off);
  g.Emit(bpf::CallHelper(bpf::kHelperMapLookupElem));
  for (int r = 1; r <= 5; ++r) {
    g.regs[r] = GReg{GK::kUninit};
  }
  // if r0 != r8 goto +1  -> the fall-through is the "equal" path where the
  // buggy verifier marks r0 non-null; at runtime both are NULL.
  g.Emit(bpf::JmpReg(bpf::kJmpJne, bpf::kR0, bpf::kR8, 1));
  g.Emit(bpf::LoadMem(bpf::kSizeDw, bpf::kR9, bpf::kR0, 0));
  g.regs[9] = GReg{GK::kScalar};
  g.regs[0] = GReg{GK::kScalar};
}

// Bug #3 shape: refine a caller-saved scalar, call a kfunc pair, then use
// the (actually clobbered) register as a map-value offset. No helper call
// may sit between the kfunc and the use — helpers legitimately scratch the
// argument registers in both worlds.
void EmitKfuncStaleBoundsPattern(GenCtx& g) {
  const int map = g.FindMapOfType(MapType::kArray);
  if (map < 0 || g.maps[map].value_size < 16) {
    return;
  }
  // The task pointer must survive the helper call below: callee-saved only.
  int task = g.PickReg(
      [](int r, const GReg& reg) { return r >= 6 && r <= 9 && reg.kind == GK::kTaskBtf; });
  if (task < 0) {
    g.EmitLdImm64(bpf::kR7, static_cast<uint64_t>(bpf::kBtfTaskStruct), bpf::kPseudoBtfId);
    g.regs[7] = GReg{GK::kTaskBtf};
    task = 7;
  }
  // Map value into r8 (callee-saved) behind a null check that skips the
  // whole pattern tail.
  const int key_off = g.InitStack(4);
  g.Emit(bpf::StoreMemImm(bpf::kSizeW, bpf::kR10, static_cast<int16_t>(key_off), 0));
  g.EmitLdImm64(bpf::kR1, static_cast<uint64_t>(map + 1), bpf::kPseudoMapFd);
  g.StackPtrTo(bpf::kR2, key_off);
  g.Emit(bpf::CallHelper(bpf::kHelperMapLookupElem));
  g.Emit(bpf::JmpImm(bpf::kJmpJeq, bpf::kR0, 0, 9));
  g.Emit(bpf::MovReg(bpf::kR8, bpf::kR0));
  // Variable bounded caller-saved scalar (a constant would be folded and
  // carry no alu_limit check), then an acquire/release kfunc pair.
  g.Emit(bpf::LoadMem(bpf::kSizeW, bpf::kR3, bpf::kR8, 0));
  g.Emit(bpf::AluImm(bpf::kAluAnd, bpf::kR3, 7));
  g.Emit(bpf::MovReg(bpf::kR1, static_cast<uint8_t>(task)));
  g.Emit(bpf::CallKfunc(bpf::kKfuncTaskAcquire));
  g.Emit(bpf::MovReg(bpf::kR1, bpf::kR0));
  g.Emit(bpf::CallKfunc(bpf::kKfuncTaskRelease));
  // Stale-bound use: the fixed verifier sees r3 uninitialized here; bug #3
  // keeps the pre-call [0,8) range while the native call left garbage.
  g.Emit(bpf::AluReg(bpf::kAluAdd, bpf::kR8, bpf::kR3));
  g.Emit(bpf::LoadMem(bpf::kSizeDw, bpf::kR9, bpf::kR8, 0));
  for (int r = 0; r <= 5; ++r) {
    g.regs[r] = r == 0 ? GReg{GK::kScalar} : GReg{GK::kUninit};
  }
  g.regs[8] = GReg{GK::kScalar};
  g.regs[9] = GReg{GK::kScalar};
}

void EmitCallFrame(GenCtx& g) {
  const std::vector<int32_t> helpers = bpf::AvailableHelpers(g.version, g.type);
  if (helpers.empty()) {
    return;
  }

  // RCU read-side critical section around a basic frame (kfunc pair).
  if (g.features.kfunc_calls && g.Chance(0.05)) {
    g.Emit(bpf::CallKfunc(bpf::kKfuncRcuReadLock));
    for (int r = 0; r <= 5; ++r) {
      g.regs[r] = GReg{GK::kUninit};
    }
    EmitBasicFrame(g);
    g.Emit(bpf::CallKfunc(bpf::kKfuncRcuReadUnlock));
    for (int r = 0; r <= 5; ++r) {
      g.regs[r] = GReg{GK::kUninit};
    }
    return;
  }

  // Occasionally emit one of the targeted bug shapes.
  if (g.options->risky && g.features.nullness_propagation && g.Chance(0.08)) {
    EmitNullnessPropagationPattern(g);
    return;
  }
  if (g.options->risky && g.features.kfunc_calls && g.Chance(0.08)) {
    EmitKfuncStaleBoundsPattern(g);
    return;
  }

  // Pseudo eBPF function call: a small leaf subprogram taking one scalar.
  if (g.Chance(0.08) && g.subprogs.size() < 3) {
    std::vector<Insn> body;
    body.push_back(bpf::MovReg(bpf::kR0, bpf::kR1));
    const int ops = static_cast<int>(1 + g.rng->Below(3));
    for (int i = 0; i < ops; ++i) {
      static constexpr uint8_t kOps[] = {bpf::kAluAdd, bpf::kAluXor, bpf::kAluMul,
                                         bpf::kAluRsh};
      const uint8_t op = kOps[g.rng->Below(4)];
      body.push_back(bpf::AluImm(op, bpf::kR0,
                                 op == bpf::kAluRsh
                                     ? static_cast<int32_t>(g.rng->Below(16))
                                     : static_cast<int32_t>(g.rng->Below(1024))));
    }
    // Subprograms may also use their own stack frame.
    if (g.Chance(0.5)) {
      body.push_back(bpf::StoreMemReg(bpf::kSizeDw, bpf::kR10, bpf::kR0, -8));
      body.push_back(bpf::LoadMem(bpf::kSizeDw, bpf::kR0, bpf::kR10, -8));
    }
    body.push_back(bpf::Exit());
    g.subprogs.push_back(std::move(body));

    const int scalar = g.PickScalar();
    if (scalar >= 0 && scalar != bpf::kR1) {
      g.Emit(bpf::MovReg(bpf::kR1, static_cast<uint8_t>(scalar)));
    } else if (scalar < 0) {
      g.Emit(bpf::MovImm(bpf::kR1, static_cast<int32_t>(g.rng->Below(128))));
    }
    g.pending_calls.push_back(
        GenCtx::PendingCall{g.out.size(), g.subprogs.size() - 1});
    g.Emit(bpf::CallPseudoFunc(0));  // imm patched after the end section
    for (int r = 1; r <= 5; ++r) {
      g.regs[r] = GReg{GK::kUninit};
    }
    g.regs[0] = GReg{GK::kScalar};
    return;
  }

  const int32_t helper = helpers[g.rng->Below(helpers.size())];
  const bool tracing =
      g.type == ProgType::kKprobe || g.type == ProgType::kTracepoint;

  switch (helper) {
    case bpf::kHelperMapLookupElem: {
      EmitMapLookupPattern(g, static_cast<int>(g.rng->Below(g.maps.size())));
      return;
    }
    case bpf::kHelperMapUpdateElem: {
      const int map = static_cast<int>(g.rng->Below(g.maps.size()));
      const MapDef& def = g.maps[map];
      if (def.value_size > 64) {
        return;
      }
      const int key_off = g.InitStack(static_cast<int>(def.key_size));
      const int val_off = g.InitStack(static_cast<int>(def.value_size));
      g.EmitLdImm64(bpf::kR1, static_cast<uint64_t>(map + 1), bpf::kPseudoMapFd);
      g.StackPtrTo(bpf::kR2, key_off);
      g.StackPtrTo(bpf::kR3, val_off);
      g.Emit(bpf::MovImm(bpf::kR4, 0));
      g.regs[4] = GReg{GK::kScalarSmall, -1, 0, 0};
      g.Emit(bpf::CallHelper(helper));
      break;
    }
    case bpf::kHelperMapDeleteElem: {
      const int map = static_cast<int>(g.rng->Below(g.maps.size()));
      const int key_off = g.InitStack(static_cast<int>(g.maps[map].key_size));
      g.EmitLdImm64(bpf::kR1, static_cast<uint64_t>(map + 1), bpf::kPseudoMapFd);
      g.StackPtrTo(bpf::kR2, key_off);
      g.Emit(bpf::CallHelper(helper));
      break;
    }
    case bpf::kHelperTracePrintk: {
      const int fmt_off = g.InitStack(8);
      g.StackPtrTo(bpf::kR1, fmt_off);
      g.Emit(bpf::MovImm(bpf::kR2, static_cast<int32_t>(1 + g.rng->Below(8))));
      g.Emit(bpf::MovImm(bpf::kR3, 0));
      g.Emit(bpf::CallHelper(helper));
      break;
    }
    case bpf::kHelperGetCurrentComm: {
      const int buf_off = g.InitStack(16);
      g.StackPtrTo(bpf::kR1, buf_off);
      g.Emit(bpf::MovImm(bpf::kR2, 16));
      g.Emit(bpf::CallHelper(helper));
      break;
    }
    case bpf::kHelperPerfEventOutput: {
      const int ctx = g.FindKind(GK::kCtx);
      if (ctx < 0) {
        return;
      }
      const int data_off = g.InitStack(16);
      g.Emit(bpf::MovReg(bpf::kR1, static_cast<uint8_t>(ctx)));
      const int map = g.FindMapOfType(MapType::kArray);
      g.EmitLdImm64(bpf::kR2, static_cast<uint64_t>((map < 0 ? 0 : map) + 1),
                    bpf::kPseudoMapFd);
      g.Emit(bpf::MovImm(bpf::kR3, 0));
      g.StackPtrTo(bpf::kR4, data_off);
      g.Emit(bpf::MovImm(bpf::kR5, 16));
      g.Emit(bpf::CallHelper(helper));
      break;
    }
    case bpf::kHelperSendSignal:
      g.Emit(bpf::MovImm(bpf::kR1, 9));
      g.Emit(bpf::CallHelper(helper));
      break;
    case bpf::kHelperGetCurrentTaskBtf:
      g.Emit(bpf::CallHelper(helper));
      for (int r = 1; r <= 5; ++r) {
        g.regs[r] = GReg{GK::kUninit};
      }
      g.regs[0] = GReg{GK::kTaskBtf};
      if (g.Chance(0.6)) {
        g.Emit(bpf::MovReg(bpf::kR9, bpf::kR0));
        g.regs[9] = GReg{GK::kTaskBtf};
      }
      return;
    case bpf::kHelperRingbufOutput: {
      const int map = g.FindMapOfType(MapType::kRingbuf);
      if (map < 0) {
        return;
      }
      const int data_off = g.InitStack(16);
      g.EmitLdImm64(bpf::kR1, static_cast<uint64_t>(map + 1), bpf::kPseudoMapFd);
      g.StackPtrTo(bpf::kR2, data_off);
      g.Emit(bpf::MovImm(bpf::kR3, 16));
      g.Emit(bpf::MovImm(bpf::kR4, 0));
      g.Emit(bpf::CallHelper(helper));
      break;
    }
    case bpf::kHelperTaskStorageGet:
    case bpf::kHelperTaskStorageDelete: {
      if (!tracing) {
        return;
      }
      const int hash = g.FindMapOfType(MapType::kHash);
      int task = g.FindKind(GK::kTaskBtf);
      if (hash < 0) {
        return;
      }
      if (task < 0) {
        if (!g.features.task_btf_helpers) {
          return;
        }
        g.Emit(bpf::CallHelper(bpf::kHelperGetCurrentTaskBtf));
        g.Emit(bpf::MovReg(bpf::kR9, bpf::kR0));
        g.regs[9] = GReg{GK::kTaskBtf};
        task = 9;
      }
      g.EmitLdImm64(bpf::kR1, static_cast<uint64_t>(hash + 1), bpf::kPseudoMapFd);
      g.Emit(bpf::MovReg(bpf::kR2, static_cast<uint8_t>(task)));
      if (helper == bpf::kHelperTaskStorageGet) {
        g.Emit(bpf::MovImm(bpf::kR3, 0));
        g.Emit(bpf::MovImm(bpf::kR4, 1));  // BPF_LOCAL_STORAGE_GET_F_CREATE
      }
      g.Emit(bpf::CallHelper(helper));
      for (int r = 1; r <= 5; ++r) {
        g.regs[r] = GReg{GK::kUninit};
      }
      g.regs[0] = helper == bpf::kHelperTaskStorageGet ? GReg{GK::kMapValueNull, hash}
                                                       : GReg{GK::kScalar};
      if (helper == bpf::kHelperTaskStorageGet) {
        // Null check so the state stays clean.
        g.Emit(bpf::JmpImm(bpf::kJmpJeq, bpf::kR0, 0, 1));
        g.Emit(bpf::LoadMem(bpf::kSizeDw, bpf::kR8, bpf::kR0, 0));
        g.regs[8] = GReg{GK::kScalar};
        g.regs[0] = GReg{GK::kScalar};
      }
      return;
    }
    default:
      // Nullary scalar helpers: ktime, prandom, smp id, pid/tgid, task.
      if (g.options->risky && g.Chance(0.05)) {
        // Bad argument on purpose (unknown state / wrong type).
        g.Emit(bpf::MovReg(bpf::kR1, bpf::kR10));
      }
      g.Emit(bpf::CallHelper(helper));
      break;
  }
  for (int r = 1; r <= 5; ++r) {
    g.regs[r] = GReg{GK::kUninit};
  }
  g.regs[0] = GReg{GK::kScalar};
}

// ---------- jump frame ----------

void MergeStates(GenCtx& g, const GReg before[11], const bool stack_before[bpf::kStackSlots]) {
  for (int r = 0; r <= 10; ++r) {
    if (g.regs[r].kind == before[r].kind && g.regs[r].map == before[r].map &&
        g.regs[r].btf == before[r].btf) {
      if (g.regs[r].kind == GK::kScalarSmall) {
        g.regs[r].bound = std::max(g.regs[r].bound, before[r].bound);
      }
      continue;
    }
    if (g.regs[r].kind == GK::kUninit || before[r].kind == GK::kUninit) {
      g.regs[r] = GReg{GK::kUninit};
    } else {
      g.regs[r] = GReg{GK::kScalar};
    }
  }
  for (int s = 0; s < bpf::kStackSlots; ++s) {
    g.stack_init[s] = g.stack_init[s] && stack_before[s];
  }
}

void EmitJumpFrame(GenCtx& g, int depth) {
  // Back-edge (bounded loop) with small probability; forward skip otherwise.
  if (g.Chance(0.25)) {
    // rC = N; body; rC -= 1; if rC != 0 goto -(len+2). The body may read
    // rC but never write it, so the loop runs exactly N times.
    const uint8_t counter = static_cast<uint8_t>(6 + g.rng->Below(4));
    const int iters = static_cast<int>(2 + g.rng->Below(3));
    g.Emit(bpf::MovImm(counter, iters));
    g.regs[counter] = GReg{GK::kScalarSmall, -1, 0, iters};
    std::vector<Insn> saved = std::move(g.out);
    g.out.clear();
    g.pinned |= static_cast<uint16_t>(1u << counter);
    EmitBasicFrame(g);
    g.pinned &= static_cast<uint16_t>(~(1u << counter));
    std::vector<Insn> body = std::move(g.out);
    g.out = std::move(saved);
    for (const Insn& insn : body) {
      g.Emit(insn);
    }
    g.Emit(bpf::AluImm(bpf::kAluSub, counter, 1));
    g.Emit(bpf::JmpImm(bpf::kJmpJne, counter, 0,
                       static_cast<int16_t>(-(static_cast<int>(body.size()) + 2))));
    g.regs[counter] = GReg{GK::kScalarSmall, -1, 0, iters};
    return;
  }

  // Forward conditional over a nested body.
  int cond = g.PickScalar();
  if (cond < 0) {
    const uint8_t tmp = 5;
    g.Emit(bpf::MovImm(tmp, static_cast<int32_t>(g.rng->Below(16))));
    g.regs[tmp] = GReg{GK::kScalarSmall, -1, 0, 15};
    cond = tmp;
  }
  GReg before[11];
  bool stack_before[bpf::kStackSlots];
  std::copy(std::begin(g.regs), std::end(g.regs), before);
  std::copy(std::begin(g.stack_init), std::end(g.stack_init), stack_before);

  std::vector<Insn> saved = std::move(g.out);
  g.out.clear();
  const size_t pending_before = g.pending_calls.size();
  const int inner = static_cast<int>(1 + g.rng->Below(2));
  EmitFrames(g, inner, depth + 1);
  std::vector<Insn> body = std::move(g.out);
  g.out = std::move(saved);
  // Pending subprogram calls recorded inside the body carry body-relative
  // indices; rebase them to the final stream (body lands after the jump).
  const size_t body_start = g.out.size() + 1;
  for (size_t k = pending_before; k < g.pending_calls.size(); ++k) {
    g.pending_calls[k].call_idx += body_start;
  }

  static constexpr uint8_t kCmpOps[] = {bpf::kJmpJeq,  bpf::kJmpJne,  bpf::kJmpJgt,
                                        bpf::kJmpJlt,  bpf::kJmpJsgt, bpf::kJmpJset};
  const uint8_t op = kCmpOps[g.rng->Below(6)];
  if (g.Chance(0.25)) {
    // JMP32 variant: compares the subregisters, refining 32-bit bounds.
    g.Emit(bpf::Jmp32Imm(op, static_cast<uint8_t>(cond),
                         static_cast<int32_t>(g.rng->Below(32)),
                         static_cast<int16_t>(body.size())));
  } else {
    g.Emit(bpf::JmpImm(op, static_cast<uint8_t>(cond), static_cast<int32_t>(g.rng->Below(32)),
                       static_cast<int16_t>(body.size())));
  }
  for (const Insn& insn : body) {
    g.Emit(insn);
  }
  MergeStates(g, before, stack_before);
}

void EmitFrames(GenCtx& g, int budget, int depth) {
  for (int i = 0; i < budget; ++i) {
    // Paper §4.1: frame kinds are selected with equal probability.
    int choice = static_cast<int>(g.rng->Below(3));
    if (choice == 1 && (!g.options->call_frames || g.out.size() > 400)) {
      choice = 0;
    }
    if (choice == 2 && (!g.options->jump_frames || depth >= g.options->max_jump_depth)) {
      choice = 0;
    }
    switch (choice) {
      case 0:
        EmitBasicFrame(g);
        break;
      case 1:
        EmitCallFrame(g);
        break;
      case 2:
        EmitJumpFrame(g, depth);
        break;
    }
  }
}

void EmitEndSection(GenCtx& g) {
  const int32_t ret =
      g.type == ProgType::kXdp ? static_cast<int32_t>(g.rng->Below(5)) : 0;
  g.Emit(bpf::MovImm(bpf::kR0, ret));
  g.Emit(bpf::Exit());
}

std::vector<MapDef> GenerateMaps(Rng& rng) {
  std::vector<MapDef> maps;
  MapDef array;
  array.type = MapType::kArray;
  array.key_size = 4;
  array.value_size = static_cast<uint32_t>(8 * (1 + rng.Below(8)));
  array.max_entries = static_cast<uint32_t>(1 + rng.Below(8));
  maps.push_back(array);

  MapDef hash;
  hash.type = MapType::kHash;
  hash.key_size = rng.OneIn(2) ? 4 : 8;
  hash.value_size = static_cast<uint32_t>(8 * (1 + rng.Below(8)));
  hash.max_entries = static_cast<uint32_t>(2 + rng.Below(14));
  maps.push_back(hash);

  if (rng.OneIn(3)) {
    MapDef extra;
    if (rng.OneIn(2)) {
      extra.type = MapType::kPercpuArray;
      extra.key_size = 4;
      extra.value_size = 16;
      extra.max_entries = 4;
    } else {
      extra.type = MapType::kRingbuf;
      extra.key_size = 4;
      extra.value_size = 8;
      extra.max_entries = 256;  // ring bytes
    }
    maps.push_back(extra);
  }
  return maps;
}

}  // namespace

FuzzCase StructuredGenerator::Generate(bpf::Rng& rng) {
  FuzzCase the_case = GenerateOnce(rng);
  // Lint filter: a program the CFG/dataflow lints prove unverifiable is a
  // guaranteed -EINVAL; spend at most two regenerations trying to do better
  // (structured output is almost always lint-clean, so this rarely fires).
  for (int attempt = 0; options_.lint_filter && attempt < 2; ++attempt) {
    if (!LintProgram(the_case.prog).CertainReject()) {
      break;
    }
    the_case = GenerateOnce(rng);
  }
  return the_case;
}

FuzzCase StructuredGenerator::GenerateOnce(bpf::Rng& rng) {
  FuzzCase the_case;

  GenCtx g;
  g.rng = &rng;
  g.features = KernelFeatures::For(version_);
  g.version = version_;
  g.options = &options_;

  static constexpr ProgType kTypes[] = {ProgType::kSocketFilter, ProgType::kKprobe,
                                        ProgType::kTracepoint, ProgType::kXdp};
  g.type = kTypes[rng.Below(4)];
  g.maps = GenerateMaps(rng);

  EmitInitHeader(g);
  EmitFrames(g, static_cast<int>(1 + rng.Below(options_.max_body_frames)), 0);
  // Occasional large straight-line block (unrolled-loop shape); stores go
  // through a copied stack pointer, so sanitation inflates them — the size
  // pressure that reaches the kmemdup limit (bug #8).
  if (rng.OneIn(48)) {
    g.Emit(bpf::MovReg(bpf::kR5, bpf::kR10));
    g.Emit(bpf::AluImm(bpf::kAluAdd, bpf::kR5, -8));
    g.Emit(bpf::StoreMemImm(bpf::kSizeDw, bpf::kR10, -8, 0));
    g.regs[5] = GReg{GK::kStack};
    const int pad = static_cast<int>(200 + rng.Below(400));
    for (int i = 0; i < pad; ++i) {
      if (rng.OneIn(4)) {
        EmitBasicOp(g);
      } else {
        if (g.regs[5].kind != GK::kStack) {  // a basic op may have clobbered r5
          g.Emit(bpf::MovReg(bpf::kR5, bpf::kR10));
          g.Emit(bpf::AluImm(bpf::kAluAdd, bpf::kR5, -8));
          g.regs[5] = GReg{GK::kStack};
        }
        g.Emit(bpf::StoreMemImm(bpf::kSizeDw, bpf::kR5, 0, i));
      }
    }
  }
  EmitEndSection(g);

  // Materialize pseudo eBPF functions after the end section and patch the
  // pending call targets.
  std::vector<size_t> subprog_starts;
  for (const std::vector<Insn>& body : g.subprogs) {
    subprog_starts.push_back(g.out.size());
    for (const Insn& insn : body) {
      g.Emit(insn);
    }
  }
  for (const GenCtx::PendingCall& call : g.pending_calls) {
    g.out[call.call_idx].imm = static_cast<int32_t>(subprog_starts[call.subprog]) -
                               (static_cast<int32_t>(call.call_idx) + 1);
  }

  the_case.prog.type = g.type;
  the_case.prog.insns = std::move(g.out);
  the_case.maps = g.maps;
  the_case.test_runs = static_cast<int>(1 + rng.Below(3));

  const bool tracing = g.type == ProgType::kKprobe || g.type == ProgType::kTracepoint;
  if (tracing && rng.Chance(0.5)) {
    the_case.do_attach = true;
    static constexpr TracepointId kTargets[] = {
        TracepointId::kContentionBegin, TracepointId::kTracePrintk,
        TracepointId::kSchedSwitch, TracepointId::kSysEnter};
    the_case.attach_target = kTargets[rng.Below(4)];
    the_case.events.push_back(the_case.attach_target);
    if (rng.OneIn(2)) {
      the_case.events.push_back(kTargets[rng.Below(4)]);
    }
  }
  if (g.type == ProgType::kXdp) {
    the_case.do_xdp_install = rng.Chance(0.6);
    the_case.prog.offload_requested = rng.Chance(0.15);
  }
  the_case.do_map_batch = rng.Chance(0.3);
  return the_case;
}

void StructuredGenerator::Mutate(bpf::Rng& rng, FuzzCase& the_case) {
  if (the_case.prog.insns.empty() || rng.OneIn(3)) {
    the_case = Generate(rng);
    return;
  }
  // Keep the pre-mutation case so a lint-rejected mutation can be undone
  // without consuming more randomness (campaign determinism).
  const FuzzCase before = options_.lint_filter ? the_case : FuzzCase{};
  const int kind = static_cast<int>(rng.Below(3));
  auto& insns = the_case.prog.insns;
  // Kinds 0 and 1 leave loop control (a back edge's init, step and test)
  // alone: a tweaked bound or a doubled step can make a bounded loop skip its
  // exit, and the verifier then walks it to the complexity limit.
  const std::vector<bool> control =
      kind <= 1 ? LoopControlInsns(the_case.prog) : std::vector<bool>{};
  switch (kind) {
    case 0: {  // immediate tweak on a random ALU instruction
      for (int attempt = 0; attempt < 8; ++attempt) {
        const size_t pos = rng.Below(insns.size());
        Insn& insn = insns[pos];
        if (insn.IsAlu() && !insn.SrcIsReg() && insn.AluOp() != bpf::kAluEnd && !control[pos]) {
          insn.imm = static_cast<int32_t>(insn.imm + static_cast<int32_t>(rng.Range(-8, 8)));
          const bool shift = insn.AluOp() == bpf::kAluLsh || insn.AluOp() == bpf::kAluRsh ||
                             insn.AluOp() == bpf::kAluArsh;
          if (shift) {
            insn.imm &= insn.Class() == bpf::kClassAlu64 ? 63 : 31;
          }
          if ((insn.AluOp() == bpf::kAluDiv || insn.AluOp() == bpf::kAluMod) &&
              insn.imm == 0) {
            insn.imm = 1;
          }
          break;
        }
      }
      break;
    }
    case 1: {  // adjacent-instruction duplication (paper: unrolled loops)
      for (int attempt = 0; attempt < 8; ++attempt) {
        const size_t pos = rng.Below(insns.size());
        const Insn& insn = insns[pos];
        if ((insn.IsAlu() || insn.IsMemStore()) && !control[pos]) {
          InsertInsnPatched(the_case.prog, pos, insn);
          break;
        }
      }
      break;
    }
    case 2: {  // offset tweak on a random memory access
      for (int attempt = 0; attempt < 8; ++attempt) {
        Insn& insn = insns[rng.Below(insns.size())];
        if (insn.IsMemLoad() || insn.IsMemStore()) {
          insn.off = static_cast<int16_t>(insn.off + 8 * rng.Range(-2, 2));
          break;
        }
      }
      break;
    }
  }
  if (options_.lint_filter && LintProgram(the_case.prog).CertainReject()) {
    the_case = before;  // undo a mutation the verifier is certain to reject
  }
}

}  // namespace bvf
