// Bounded loops stay bounded (DESIGN.md §7). The structured generator's jump
// frame emits `rC = N; body; rC -= 1; if rC != 0 goto body`, a 2-4 trip loop
// the verifier walks in a few iterations. Two things used to break it: a body
// that writes rC, and a mutation that tweaks the init or step or duplicates
// the step. Either can make rC skip 0, and the verifier then walks the loop
// to its complexity limit and rejects with E2BIG. Three properties, each over
// a few thousand deterministic seeds:
//   (a) no generated loop body writes its counter; the step is its only write;
//   (b) chains of Mutate leave every back edge's init, step and test
//       byte-identical;
//   (c) the all-bugs verifier never answers E2BIG on these programs.

#include <gtest/gtest.h>

#include <cerrno>
#include <vector>

#include "src/analysis/liveness.h"
#include "src/core/structured_gen.h"
#include "src/ebpf/builder.h"
#include "src/runtime/bpf_syscall.h"
#include "src/verifier/verifier.h"

namespace bvf {
namespace {

using bpf::Insn;

constexpr int kGeneratedSeeds = 3000;
constexpr int kMutationChains = 600;
constexpr int kChainLength = 12;

// One back edge and its loop control, located without the analysis layer the
// mutator uses: the test is the backward jump, the step the instruction before
// it, the init the last write of the counter before the loop head.
struct LoopFrame {
  int init = -1;
  int head = 0;
  int step = 0;
  int test = 0;
  int counter = 0;
};

bool IsDataSlot(const bpf::Program& prog, int i) {
  return i > 0 && prog.insns[i - 1].IsLdImm64();
}

bool Writes(const Insn& insn, int reg) { return (InsnDefMask(insn) & RegBit(reg)) != 0; }

std::vector<LoopFrame> LoopFrames(const bpf::Program& prog) {
  std::vector<LoopFrame> frames;
  for (int j = 0; j < static_cast<int>(prog.insns.size()); ++j) {
    const Insn& insn = prog.insns[j];
    if (IsDataSlot(prog, j) || !insn.IsJmp() || insn.IsCall() || insn.IsExit() ||
        insn.JmpOp() == bpf::kJmpJa || insn.off >= 0) {
      continue;
    }
    LoopFrame frame;
    frame.test = j;
    frame.step = j - 1;
    frame.head = j + 1 + insn.off;
    frame.counter = insn.dst;
    for (int i = frame.head - 1; i >= 0; --i) {
      if (!IsDataSlot(prog, i) && Writes(prog.insns[i], frame.counter)) {
        frame.init = i;
        break;
      }
    }
    frames.push_back(frame);
  }
  return frames;
}

// Property (a), plus the exact shape the generator emits for the control.
void ExpectBoundedLoops(const bpf::Program& prog, const char* what, int seed) {
  for (const LoopFrame& frame : LoopFrames(prog)) {
    const uint8_t rc = static_cast<uint8_t>(frame.counter);
    ASSERT_GE(frame.init, 0) << what << " seed " << seed << ": counter r" << frame.counter
                             << " never set\n" << prog.Disassemble();
    const Insn& init = prog.insns[frame.init];
    EXPECT_TRUE(init == bpf::MovImm(rc, init.imm) && init.imm >= 2 && init.imm <= 4)
        << what << " seed " << seed << ": init at " << frame.init << "\n" << prog.Disassemble();
    EXPECT_EQ(prog.insns[frame.step], bpf::AluImm(bpf::kAluSub, rc, 1))
        << what << " seed " << seed << ": step at " << frame.step << "\n" << prog.Disassemble();
    EXPECT_EQ(prog.insns[frame.test], bpf::JmpImm(bpf::kJmpJne, rc, 0, prog.insns[frame.test].off))
        << what << " seed " << seed << ": test at " << frame.test << "\n" << prog.Disassemble();
    for (int i = frame.head; i < frame.step; ++i) {
      EXPECT_FALSE(!IsDataSlot(prog, i) && Writes(prog.insns[i], frame.counter))
          << what << " seed " << seed << ": loop body writes r" << frame.counter << " at " << i
          << "\n" << prog.Disassemble();
    }
  }
}

// The init, step and test instructions of every back edge, in program order.
// The test's offset is left out: it follows the body's length, which a
// duplication inside the body legitimately grows.
std::vector<Insn> LoopControl(const bpf::Program& prog) {
  std::vector<Insn> control;
  for (const LoopFrame& frame : LoopFrames(prog)) {
    control.push_back(frame.init >= 0 ? prog.insns[frame.init] : Insn{});
    control.push_back(prog.insns[frame.step]);
    Insn test = prog.insns[frame.test];
    test.off = 0;
    control.push_back(test);
  }
  return control;
}

// Property (c): verified as a campaign load does, against the all-bugs kernel.
int VerifyErr(const FuzzCase& the_case) {
  bpf::Kernel kernel(bpf::KernelVersion::kBpfNext, bpf::BugConfig::All());
  bpf::Bpf bpf(kernel);
  for (const bpf::MapDef& def : the_case.maps) {
    bpf.MapCreate(def);
  }
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
  return bpf::VerifyProgram(the_case.prog, env).err;
}

TEST(BoundedLoopTest, GeneratedLoopBodiesNeverWriteTheirCounter) {
  StructuredGenerator generator(bpf::KernelVersion::kBpfNext);
  int frames = 0;
  for (int seed = 1; seed <= kGeneratedSeeds; ++seed) {
    bpf::Rng rng(static_cast<uint64_t>(seed));
    const FuzzCase the_case = generator.Generate(rng);
    ExpectBoundedLoops(the_case.prog, "generated", seed);
    frames += static_cast<int>(LoopFrames(the_case.prog).size());
    EXPECT_NE(VerifyErr(the_case), -E2BIG) << "seed " << seed << "\n"
                                           << the_case.prog.Disassemble();
  }
  EXPECT_GT(frames, kGeneratedSeeds / 4);  // loop frames are common, not a corner case
}

TEST(BoundedLoopTest, MutationChainsKeepLoopControlByteIdentical) {
  StructuredGenerator generator(bpf::KernelVersion::kBpfNext);
  int mutated_with_loops = 0;
  for (int seed = 1; seed <= kMutationChains; ++seed) {
    bpf::Rng rng(static_cast<uint64_t>(seed) * 7919);
    FuzzCase the_case = generator.Generate(rng);
    for (int step = 0; step < kChainLength; ++step) {
      // Mutate regenerates the case outright on its first draw (one in
      // three); only a mutation in place must keep the old loop control.
      bpf::Rng probe = rng;
      const bool regenerates = the_case.prog.insns.empty() || probe.OneIn(3);
      const std::vector<Insn> before = LoopControl(the_case.prog);
      generator.Mutate(rng, the_case);
      ExpectBoundedLoops(the_case.prog, "mutated", seed);
      if (!regenerates) {
        EXPECT_EQ(LoopControl(the_case.prog), before)
            << "chain " << seed << " step " << step << "\n" << the_case.prog.Disassemble();
        mutated_with_loops += before.empty() ? 0 : 1;
      }
      EXPECT_NE(VerifyErr(the_case), -E2BIG) << "chain " << seed << " step " << step << "\n"
                                             << the_case.prog.Disassemble();
    }
  }
  EXPECT_GT(mutated_with_loops, kMutationChains);
}

}  // namespace
}  // namespace bvf
