// Forward reaching-definitions over R0..R10 with explicit "uninitialized"
// definitions, so a use reached by an uninit def is a definite bug candidate
// (the uninit-read lint, src/analysis/lints.h).
//
// The def universe holds one real def per (instruction, register) write plus
// synthetic entry defs per subprogram:
//   - main entry: R1 (context pointer) and R10 (frame pointer) initialized,
//     R0 and R2-R9 uninitialized;
//   - other subprogram entries: R1-R5 (arguments) and R10 initialized,
//     R0 and R6-R9 uninitialized (callee-saved regs belong to the caller's
//     frame and must be treated as garbage intraprocedurally).
// Helper/kfunc/bpf-to-bpf calls add uninit defs for the clobbered R1-R5 and a
// real def for R0.

#ifndef SRC_ANALYSIS_REACHING_DEFS_H_
#define SRC_ANALYSIS_REACHING_DEFS_H_

#include <cstdint>
#include <vector>

#include "src/analysis/cfg.h"

namespace bvf {

struct Def {
  int insn = -1;  // defining instruction index, or -1 for an entry def
  int reg = 0;
  bool uninit = false;  // the value is garbage (entry junk or call clobber)
};

class ReachingDefs {
 public:
  const std::vector<Def>& defs() const { return defs_; }

  // True if any definition of |reg| reaching |insn| (just before it executes)
  // is an uninitialized one.
  bool UninitReaches(int insn, int reg) const;

  // Ids (indices into defs()) of the definitions of |reg| reaching |insn|.
  std::vector<int> DefsReaching(int insn, int reg) const;

 private:
  friend ReachingDefs ComputeReachingDefs(const bpf::Program& prog,
                                          const Cfg& cfg);

  bool Bit(int insn, int def_id) const {
    return (in_[insn * words_ + def_id / 64] >> (def_id % 64)) & 1;
  }

  std::vector<Def> defs_;
  std::vector<uint64_t> in_;  // per-insn reaching set, words_ words each
  int words_ = 0;
  int num_insns_ = 0;
};

ReachingDefs ComputeReachingDefs(const bpf::Program& prog, const Cfg& cfg);

// Loop control: each backward conditional jump, plus every definition of a
// register it tests that reaches it, followed through definitions that read
// the register they write (`rC -= 1` reads rC) back to ones that set it
// outright. For the structured generator's bounded-loop frame
// `rC = N; body; rC -= 1; if rC != 0 goto body` that is the init, the step
// and the test. Indexed by instruction; all false (and no CFG is built) when
// the program has no backward conditional jump.
std::vector<bool> LoopControlInsns(const bpf::Program& prog);

}  // namespace bvf

#endif  // SRC_ANALYSIS_REACHING_DEFS_H_
