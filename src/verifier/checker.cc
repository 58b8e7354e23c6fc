// Verifier driver: CFG validation, the do_check() path-exploration loop,
// state pruning, ld_imm64 resolution, and exit checks.

#include "src/verifier/checker.h"

#include <atomic>
#include <cerrno>
#include <cstdio>

#include "src/kernel/coverage.h"

namespace bpf {

namespace {
std::atomic<bool> g_prune_fingerprint{true};
}  // namespace

void SetPruneFingerprintEnabled(bool enabled) {
  g_prune_fingerprint.store(enabled, std::memory_order_relaxed);
}

bool PruneFingerprintEnabled() {
  return g_prune_fingerprint.load(std::memory_order_relaxed);
}

VerifierResult VerifyProgram(const Program& prog, VerifierEnv& env) {
  VerifierResult result;
  Checker checker(prog, env, result);
  checker.Run();
  return result;
}

Checker::Checker(const Program& prog, VerifierEnv& env, VerifierResult& result)
    : prog_(prog), env_(env), res_(result), features_(KernelFeatures::For(env.version)) {
  aux_.resize(prog.insns.size());
  explored_.resize(prog.insns.size());
  loop_index_.resize(prog.insns.size());
  prune_point_.assign(prog.insns.size(), 0);
  reachable_.assign(prog.insns.size(), 0);
}

void Checker::Log(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  res_.log.append(buf);
  res_.log.push_back('\n');
}

void Checker::LogState(const VerifierState& state) {
  if (env_.verbose_log) {
    res_.log.append(state.ToString());
    res_.log.push_back('\n');
  }
}

const Map* Checker::FindMap(int map_id) const {
  if (env_.maps == nullptr) {
    return nullptr;
  }
  return env_.maps->Find(map_id);
}

int Checker::Run() {
  int err = CheckEncoding(prog_, &res_.log);
  if (err != 0) {
    BVF_COV();
    res_.err = err;
    return err;
  }
  err = CheckCfg();
  if (err != 0) {
    BVF_COV();
    res_.err = err;
    return err;
  }
  err = DoCheck();
  res_.insns_processed = insns_processed_;
  if (err != 0) {
    BVF_COV();
    res_.err = err;
    return err;
  }
  err = Fixup();
  if (err != 0) {
    BVF_COV();
    res_.err = err;
    return err;
  }
  BVF_COV();
  res_.err = 0;
  return 0;
}

// Depth-first reachability over the CFG; rejects unreachable instructions,
// jumps into the middle of ld_imm64, and calls to invalid targets.
int Checker::CheckCfg() {
  const size_t n = prog_.insns.size();
  std::vector<uint8_t> ld64_hi(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (prog_.insns[i].IsLdImm64()) {
      ld64_hi[i + 1] = 1;
      ++i;
    }
  }

  std::vector<int> work;
  work.push_back(0);
  reachable_[0] = 1;
  auto visit = [&](int target, int from) -> int {
    if (target < 0 || target >= static_cast<int>(n)) {
      BVF_COV();
      Log("insn %d: jump target %d out of range", from, target);
      return -EINVAL;
    }
    if (ld64_hi[target]) {
      BVF_COV();
      Log("insn %d: jump into the middle of ld_imm64 at %d", from, target);
      return -EINVAL;
    }
    if (!reachable_[target]) {
      reachable_[target] = 1;
      work.push_back(target);
    }
    return 0;
  };

  while (!work.empty()) {
    const int i = work.back();
    work.pop_back();
    const Insn& insn = prog_.insns[i];
    if (insn.IsExit()) {
      BVF_COV();
      continue;
    }
    if (insn.IsLdImm64()) {
      if (int err = visit(i + 2, i); err != 0) {
        return err;
      }
      continue;
    }
    if (insn.IsBpfToBpfCall()) {
      BVF_COV();
      const int target = i + 1 + insn.imm;
      if (int err = visit(target, i); err != 0) {
        return err;
      }
      if (target >= 0 && target < static_cast<int>(n)) {
        prune_point_[target] = 1;
      }
      if (int err = visit(i + 1, i); err != 0) {
        return err;
      }
      continue;
    }
    if (insn.IsJmp() && insn.JmpOp() == kJmpJa) {
      const int target = i + 1 + insn.off;
      if (int err = visit(target, i); err != 0) {
        return err;
      }
      if (target >= 0 && target < static_cast<int>(n)) {
        prune_point_[target] = 1;
      }
      continue;
    }
    if (insn.IsJmp() && insn.JmpOp() != kJmpCall && insn.JmpOp() != kJmpExit) {
      BVF_COV();
      const int target = i + 1 + insn.off;
      if (int err = visit(target, i); err != 0) {
        return err;
      }
      if (target >= 0 && target < static_cast<int>(n)) {
        prune_point_[target] = 1;
      }
      if (int err = visit(i + 1, i); err != 0) {
        return err;
      }
      continue;
    }
    // Fallthrough (ALU, mem, helper calls).
    if (int err = visit(i + 1, i); err != 0) {
      return err;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (!reachable_[i] && !ld64_hi[i]) {
      BVF_COV();
      Log("unreachable insn %zu", i);
      return -EINVAL;
    }
  }
  return 0;
}

VerifierState Checker::CloneState(const VerifierState& src) {
  if (state_pool_.empty()) {
    return src;
  }
  VerifierState out = std::move(state_pool_.back());
  state_pool_.pop_back();
  out = src;  // assignment into recycled capacity; no allocation
  return out;
}

void Checker::RecycleState(VerifierState&& state) {
  constexpr size_t kMaxPooledStates = 64;
  if (state_pool_.size() < kMaxPooledStates) {
    state_pool_.push_back(std::move(state));
  }
}

void Checker::PushBranch(int idx, VerifierState state, bool back_edge) {
  stack_.push_back(Pending{idx, std::move(state), back_edge});
  if (stack_.size() > res_.peak_states) {
    res_.peak_states = static_cast<uint32_t>(stack_.size());
  }
}

bool Checker::TryPrune(int idx, VerifierState& state, bool via_back_edge, int* err) {
  std::vector<VerifierState>& seen = explored_[idx];
  // With the fast path on, a back-edge arrival hashes its state once and
  // looks it up in the prune point's fingerprint index: an absent
  // fingerprint proves no explored state equals it, and each present one is
  // confirmed by the exact StateEqual, so the verdict is the plain scan's.
  const bool use_index = via_back_edge && !seen.empty() && PruneFingerprintEnabled();
  const uint64_t fp = use_index ? StateFingerprint(state) : 0;
  if (via_back_edge) {
    // Loop detection: only an exactly repeated state proves the walk does
    // not terminate. Pruning a back-edge arrival against a wider state would
    // accept loops with no termination proof (the kernel's
    // states_maybe_looping guard), so subsumption is not tried here.
    bool repeat = false;
    if (use_index) {
      repeat = RepeatsExploredState(idx, state, fp);
    } else {
      for (const VerifierState& old_state : seen) {
        if (StateEqual(old_state, state)) {
          repeat = true;
          break;
        }
      }
    }
    if (repeat) {
      BVF_COV();
      Log("infinite loop detected at insn %d", idx);
      *err = -EINVAL;
      return true;
    }
  } else {
    // Subsumption pruning applies to forward (converging) arrivals only.
    for (const VerifierState& old_state : seen) {
      if (StateSubsumes(old_state, state)) {
        BVF_COV();
        ++res_.states_pruned;
        return true;
      }
    }
  }
  if (seen.size() < kMaxExploredPerInsn) {
    seen.push_back(CloneState(state));
    if (use_index) {
      loop_index_[idx]->Append(fp);  // the lookup indexed every earlier entry
    }
  }
  return false;
}

bool Checker::RepeatsExploredState(int idx, const VerifierState& state, uint64_t fp) {
  const std::vector<VerifierState>& seen = explored_[idx];
  std::unique_ptr<LoopIndex>& index = loop_index_[idx];
  if (index == nullptr) {
    index.reset(new LoopIndex);  // default-init: fingerprint slots stay unwritten
  }
  while (index->indexed < seen.size()) {
    index->Append(StateFingerprint(seen[index->indexed]));
  }
  for (size_t slot = fp & (LoopIndex::kSlots - 1); index->entry[slot] != 0;
       slot = (slot + 1) & (LoopIndex::kSlots - 1)) {
    if (index->fingerprint[slot] == fp && StateEqual(seen[index->entry[slot] - 1], state)) {
      return true;
    }
  }
  return false;
}

int Checker::DoCheck() {
  PushBranch(0, VerifierState::Entry(), /*back_edge=*/false);

  while (!stack_.empty()) {
    Pending pending = std::move(stack_.back());
    stack_.pop_back();
    int idx = pending.idx;
    VerifierState state = std::move(pending.state);
    bool via_back_edge = pending.back_edge;

    while (true) {
      if (insns_processed_++ > kMaxInsnsProcessed) {
        BVF_COV();
        Log("BPF program is too large: processed %u insns", insns_processed_);
        return -E2BIG;
      }
      if (idx < 0 || idx >= static_cast<int>(prog_.insns.size())) {
        Log("invalid insn idx %d", idx);
        return -EFAULT;
      }
      aux_[idx].seen = true;

      int err = 0;
      if (prune_point_[idx] && TryPrune(idx, state, via_back_edge, &err)) {
        if (err != 0) {
          return err;
        }
        break;  // path pruned
      }
      via_back_edge = false;

      // Record claims only for non-pruned arrivals: a pruned state is
      // subsumed by an already-recorded one, so the join stays an
      // over-approximation of every concrete execution.
      if (env_.collect_state_claims) {
        RecordStateClaims(state, idx);
      }

      if (env_.verbose_log) {
        Log("%d: %s", idx, Disassemble(prog_.insns[idx]).c_str());
        LogState(state);
      }

      int next = idx + 1;
      err = ProcessInsn(state, idx, &next);
      if (err != 0) {
        return err;
      }
      if (next == kPathEnd) {
        break;
      }
      if (next <= idx) {
        via_back_edge = true;
      }
      idx = next;
    }
    RecycleState(std::move(state));

    if (stack_.size() > kMaxPendingStates) {
      BVF_COV();
      Log("too many branch states");
      return -E2BIG;
    }
  }
  return 0;
}

void Checker::RecordStateClaims(const VerifierState& state, int idx) {
  InsnAux& aux = aux_[idx];
  std::vector<RegClaim>& claims = aux.claims;
  if (claims.empty()) {
    claims.resize(kClaimRegs);
    aux.live_claims = (1u << kClaimRegs) - 1;
  }
  const RegState* regs = state.regs();
  uint32_t live = aux.live_claims;
  for (uint32_t m = live; m != 0; m &= m - 1) {
    const int r = __builtin_ctz(m);
    RegClaim& claim = claims[r];
    claim.Observe(regs[r]);
    if (claim.status == RegClaim::Status::kInvalid) {
      live &= ~(1u << r);
    }
  }
  aux.live_claims = static_cast<uint16_t>(live);
}

int Checker::ProcessInsn(VerifierState& state, int idx, int* next) {
  const Insn& insn = prog_.insns[idx];
  switch (insn.Class()) {
    case kClassAlu:
    case kClassAlu64:
      BVF_COV();
      return CheckAluOp(state, insn, idx);
    case kClassLd:
      if (insn.IsLdImm64()) {
        BVF_COV();
        *next = idx + 2;
        return CheckLdImm64(state, insn, idx);
      }
      Log("insn %d: unsupported BPF_LD", idx);
      return -EINVAL;
    case kClassLdx:
      BVF_COV();
      return CheckMemAccess(state, insn, idx, insn.src, insn.dst, /*is_store=*/false);
    case kClassSt:
      BVF_COV();
      return CheckMemAccess(state, insn, idx, insn.dst, -1, /*is_store=*/true);
    case kClassStx:
      if (insn.IsAtomic()) {
        BVF_COV();
        return CheckMemAccess(state, insn, idx, insn.dst, insn.src, /*is_store=*/true,
                              /*is_atomic=*/true);
      }
      BVF_COV();
      return CheckMemAccess(state, insn, idx, insn.dst, insn.src, /*is_store=*/true);
    case kClassJmp:
    case kClassJmp32:
      switch (insn.JmpOp()) {
        case kJmpCall:
          if (insn.IsHelperCall()) {
            BVF_COV();
            return CheckHelperCall(state, insn, idx);
          }
          if (insn.IsKfuncCall()) {
            BVF_COV();
            return CheckKfuncCall(state, insn, idx);
          }
          BVF_COV();
          return CheckPseudoCall(state, insn, idx, next);
        case kJmpExit:
          BVF_COV();
          return CheckExit(state, idx, next);
        case kJmpJa:
          BVF_COV();
          *next = idx + 1 + insn.off;
          return 0;
        default:
          return CheckCondJmp(state, insn, idx, next);
      }
    default:
      Log("insn %d: unknown class", idx);
      return -EINVAL;
  }
}

int Checker::CheckExit(VerifierState& state, int idx, int* next) {
  if (state.frame_depth() > 1) {
    // Returning from a bpf-to-bpf subprogram: R0 flows back to the caller,
    // R1-R5 are scratched, callee frame is discarded.
    BVF_COV();
    if (int err = CheckRegRead(state, kR0, idx); err != 0) {
      return err;
    }
    RegState ret = state.regs()[kR0];
    const int callsite = state.cur().callsite;
    state.frames.pop_back();
    state.regs()[kR0] = ret;
    for (int r = kR1; r <= kR5; ++r) {
      state.regs()[r] = RegState::NotInit();
    }
    *next = callsite + 1;
    return 0;
  }

  // Main-frame exit: R0 must hold a scalar return value.
  if (int err = CheckRegRead(state, kR0, idx); err != 0) {
    return err;
  }
  if (state.regs()[kR0].type != RegType::kScalar) {
    BVF_COV();
    Log("insn %d: R0 is not a scalar at exit (type=%s)", idx,
        RegTypeName(state.regs()[kR0].type));
    return -EACCES;
  }
  if (!state.acquired_refs.empty()) {
    BVF_COV();
    Log("insn %d: reference leak: %zu acquired object(s) not released", idx,
        state.acquired_refs.size());
    return -EINVAL;
  }
  *next = kPathEnd;
  return 0;
}

int Checker::CheckLdImm64(VerifierState& state, const Insn& insn, int idx) {
  const uint64_t imm64 = (static_cast<uint64_t>(
                              static_cast<uint32_t>(prog_.insns[idx + 1].imm))
                          << 32) |
                         static_cast<uint32_t>(insn.imm);
  RegState& dst = Reg(state, insn.dst);
  if (int err = CheckRegWrite(state, insn.dst, idx); err != 0) {
    return err;
  }
  switch (insn.src) {
    case 0:
      BVF_COV();
      if (env_.bugs.bug13_ld_imm64_pessimize && imm64 >= 1 && imm64 <= 255) {
        // Bug #13 model: the wide-immediate path loses constant tracking for
        // small values. mov-imm of the same constant stays exact, so the two
        // materializations verify asymmetrically — a spurious rejection shape
        // only the metamorphic oracle can see (the program never runs wrong,
        // it merely fails to load in one of its equivalent spellings).
        dst.MarkUnknown();
        return 0;
      }
      dst.MarkKnown(imm64);
      return 0;
    case kPseudoMapFd: {
      const Map* map = FindMap(static_cast<int>(imm64));
      if (map == nullptr) {
        BVF_COV();
        Log("insn %d: map fd %d not found", idx, static_cast<int>(imm64));
        return -EBADF;
      }
      BVF_COV();
      dst = RegState::Pointer(RegType::kConstPtrToMap);
      dst.map_id = map->id();
      return 0;
    }
    case kPseudoMapValue: {
      const Map* map = FindMap(static_cast<int>(imm64 & 0xffffffff));
      if (map == nullptr || map->def().type != MapType::kArray) {
        BVF_COV();
        Log("insn %d: direct map value load needs an array map", idx);
        return -EBADF;
      }
      BVF_COV();
      dst = RegState::Pointer(RegType::kPtrToMapValue);
      dst.map_id = map->id();
      dst.id = NextId();
      return 0;
    }
    case kPseudoBtfId: {
      const int btf_struct = static_cast<int>(imm64);
      if (env_.btf == nullptr || env_.btf->Find(btf_struct) == nullptr) {
        BVF_COV();
        Log("insn %d: unknown BTF id %d", idx, btf_struct);
        return -ENOENT;
      }
      BVF_COV();
      dst = RegState::Pointer(RegType::kPtrToBtfId);
      dst.btf_id = btf_struct;
      return 0;
    }
    default:
      Log("insn %d: unsupported ld_imm64 pseudo src %d", idx, insn.src);
      return -EINVAL;
  }
}

int Checker::CheckRegRead(VerifierState& state, int regno, int idx) {
  if (regno < 0 || regno >= kNumProgRegs) {
    Log("insn %d: invalid register R%d", idx, regno);
    return -EINVAL;
  }
  if (state.regs()[regno].type == RegType::kNotInit) {
    BVF_COV();
    Log("insn %d: R%d !read_ok (uninitialized register)", idx, regno);
    return -EACCES;
  }
  return 0;
}

int Checker::CheckRegWrite(VerifierState& state, int regno, int idx) {
  if (regno == kR10) {
    BVF_COV();
    Log("insn %d: frame pointer R10 is read only", idx);
    return -EACCES;
  }
  return 0;
}

}  // namespace bpf
