#include "src/analysis/reaching_defs.h"

#include <utility>

#include "src/analysis/dataflow.h"
#include "src/analysis/liveness.h"

namespace bvf {

namespace {

using bpf::Insn;
using bpf::kNumProgRegs;

struct DefUniverse {
  std::vector<Def> defs;
  // Per instruction: ids of the defs it generates.
  std::vector<std::vector<int>> insn_defs;
  // Per subprogram: ids of its synthetic entry defs.
  std::vector<std::vector<int>> entry_defs;
  // Per register: bitset (over def ids) of every def of that register.
  std::vector<std::vector<uint64_t>> kill;
  int words = 0;

  void SetBit(std::vector<uint64_t>& bits, int id) const {
    bits[id / 64] |= uint64_t{1} << (id % 64);
  }
};

DefUniverse BuildUniverse(const bpf::Program& prog, const Cfg& cfg) {
  DefUniverse u;
  const int n = static_cast<int>(prog.insns.size());
  u.insn_defs.resize(n);
  u.entry_defs.resize(cfg.subprog_entry.size());

  for (size_t sp = 0; sp < cfg.subprog_entry.size(); ++sp) {
    for (int r = 0; r < kNumProgRegs; ++r) {
      Def d;
      d.reg = r;
      if (sp == 0) {
        d.uninit = !(r == bpf::kR1 || r == bpf::kR10);
      } else {
        d.uninit = !((r >= bpf::kR1 && r <= bpf::kR5) || r == bpf::kR10);
      }
      u.entry_defs[sp].push_back(static_cast<int>(u.defs.size()));
      u.defs.push_back(d);
    }
  }

  for (int i = 0; i < n; ++i) {
    if (i > 0 && prog.insns[i - 1].IsLdImm64()) continue;  // data slot
    const Insn& insn = prog.insns[i];
    const RegMask mask = InsnDefMask(insn);
    for (int r = 0; r < kNumProgRegs; ++r) {
      if (!(mask & RegBit(r))) continue;
      Def d;
      d.insn = i;
      d.reg = r;
      // A call's R1-R5 writes are clobbers, not values the program may read.
      d.uninit = insn.IsCall() && r != bpf::kR0;
      u.insn_defs[i].push_back(static_cast<int>(u.defs.size()));
      u.defs.push_back(d);
    }
  }

  const int ndefs = static_cast<int>(u.defs.size());
  u.words = (ndefs + 63) / 64;
  u.kill.assign(kNumProgRegs, std::vector<uint64_t>(u.words, 0));
  for (int id = 0; id < ndefs; ++id) u.SetBit(u.kill[u.defs[id].reg], id);
  return u;
}

struct ReachingDomain {
  using Value = std::vector<uint64_t>;
  static constexpr bool kForward = true;

  const bpf::Program* prog;
  const DefUniverse* u;

  Value Boundary() const { return Value(u->words, 0); }
  Value Init() const { return Value(u->words, 0); }
  bool Join(Value& into, const Value& from) const {
    bool changed = false;
    for (int w = 0; w < u->words; ++w) {
      const uint64_t merged = into[w] | from[w];
      changed |= merged != into[w];
      into[w] = merged;
    }
    return changed;
  }
  Value Transfer(const Cfg& cfg, int block, const Value& in) const {
    Value v = in;
    const BasicBlock& bb = cfg.blocks[block];
    // Synthetic entry defs are generated (without killing -- a loop back to
    // the entry legitimately carries real defs) at the top of entry blocks.
    if (cfg.IsEntryBlock(block)) {
      const int sp = bb.subprog;
      for (int id : u->entry_defs[sp]) u->SetBit(v, id);
    }
    for (int i = bb.first; i <= bb.last; ++i) {
      if (i > 0 && prog->insns[i - 1].IsLdImm64()) continue;
      for (int id : u->insn_defs[i]) {
        const std::vector<uint64_t>& kill = u->kill[u->defs[id].reg];
        for (int w = 0; w < u->words; ++w) v[w] &= ~kill[w];
        u->SetBit(v, id);
      }
    }
    return v;
  }
};

}  // namespace

bool ReachingDefs::UninitReaches(int insn, int reg) const {
  if (insn < 0 || insn >= num_insns_) return false;
  for (size_t id = 0; id < defs_.size(); ++id) {
    if (defs_[id].reg == reg && defs_[id].uninit &&
        Bit(insn, static_cast<int>(id))) {
      return true;
    }
  }
  return false;
}

std::vector<int> ReachingDefs::DefsReaching(int insn, int reg) const {
  std::vector<int> ids;
  if (insn < 0 || insn >= num_insns_) return ids;
  for (size_t id = 0; id < defs_.size(); ++id) {
    if (defs_[id].reg == reg && Bit(insn, static_cast<int>(id))) {
      ids.push_back(static_cast<int>(id));
    }
  }
  return ids;
}

ReachingDefs ComputeReachingDefs(const bpf::Program& prog, const Cfg& cfg) {
  ReachingDefs res;
  const int n = static_cast<int>(prog.insns.size());
  res.num_insns_ = n;
  if (n == 0 || cfg.blocks.empty()) return res;

  DefUniverse u = BuildUniverse(prog, cfg);
  ReachingDomain domain{&prog, &u};
  DataflowResult<ReachingDomain> solved = Solve(cfg, domain);

  res.defs_ = u.defs;
  res.words_ = u.words;
  res.in_.assign(static_cast<size_t>(n) * u.words, 0);

  // Re-walk each block to materialize per-instruction in-sets.
  for (int b = 0; b < static_cast<int>(cfg.blocks.size()); ++b) {
    const BasicBlock& bb = cfg.blocks[b];
    std::vector<uint64_t> v = solved.in[b];
    if (cfg.IsEntryBlock(b)) {
      for (int id : u.entry_defs[bb.subprog]) u.SetBit(v, id);
    }
    for (int i = bb.first; i <= bb.last; ++i) {
      if (i > 0 && prog.insns[i - 1].IsLdImm64()) continue;
      for (int w = 0; w < u.words; ++w) res.in_[i * u.words + w] = v[w];
      if (prog.insns[i].IsLdImm64() && i + 1 < n) {
        for (int w = 0; w < u.words; ++w) {
          res.in_[(i + 1) * u.words + w] = v[w];
        }
      }
      for (int id : u.insn_defs[i]) {
        const std::vector<uint64_t>& kill = u.kill[u.defs[id].reg];
        for (int w = 0; w < u.words; ++w) v[w] &= ~kill[w];
        u.SetBit(v, id);
      }
    }
  }
  return res;
}

namespace {

bool IsBackwardCondJump(const Insn& insn) {
  return insn.IsJmp() && !insn.IsCall() && !insn.IsExit() && insn.JmpOp() != bpf::kJmpJa &&
         insn.off < 0;
}

}  // namespace

std::vector<bool> LoopControlInsns(const bpf::Program& prog) {
  const int n = static_cast<int>(prog.insns.size());
  std::vector<bool> control(n, false);
  std::vector<std::pair<int, int>> work;  // (instruction, register) uses to resolve
  for (int i = 0; i < n; ++i) {
    if (i > 0 && prog.insns[i - 1].IsLdImm64()) continue;  // data slot
    const Insn& insn = prog.insns[i];
    if (IsBackwardCondJump(insn)) {
      control[i] = true;
      work.emplace_back(i, insn.dst);
      if (insn.SrcIsReg()) work.emplace_back(i, insn.src);
    }
  }
  if (work.empty()) return control;

  const Cfg cfg = BuildCfg(prog);
  const ReachingDefs rd = ComputeReachingDefs(prog, cfg);
  while (!work.empty()) {
    const auto [use, reg] = work.back();
    work.pop_back();
    for (const int id : rd.DefsReaching(use, reg)) {
      const int at = rd.defs()[id].insn;
      if (at < 0 || control[at]) continue;
      control[at] = true;
      const Insn& def = prog.insns[at];
      if (!def.IsCall() && (InsnUseMask(def) & RegBit(reg))) work.emplace_back(at, reg);
    }
  }
  return control;
}

}  // namespace bvf
