// Offset-preserving program surgery, the kernel's bpf_patch_insn_data shape:
// insert or delete one instruction while re-linking every branch and
// pseudo-call whose span crosses the edit point. Shared by the structured
// generator's duplication mutation and reproducer minimization.

#ifndef SRC_ANALYSIS_PATCH_H_
#define SRC_ANALYSIS_PATCH_H_

#include <cstddef>

#include "src/ebpf/program.h"

namespace bvf {

// Inserts |insn| at |pos| in the program, patching every branch and
// pseudo-call offset that spans the insertion point. Jumps that targeted
// |pos| target the shifted original instruction, i.e. they bypass the
// inserted one.
void InsertInsnPatched(bpf::Program& prog, size_t pos, const bpf::Insn& insn);

// Deletes the instruction at |pos| (both slots for ld_imm64), re-linking
// every branch and pseudo-call offset that spans the deletion. The inverse
// of InsertInsnPatched. Jumps targeting the removed instruction fall to its
// successor.
void RemoveInsnPatched(bpf::Program& prog, size_t pos);

}  // namespace bvf

#endif  // SRC_ANALYSIS_PATCH_H_
