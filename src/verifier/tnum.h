// Tristate numbers: the verifier's bitwise abstract domain, a port of the
// Linux kernel's kernel/bpf/tnum.c. A tnum tracks, per bit, whether the bit
// is known-0, known-1, or unknown: `value` holds the known-1 bits and `mask`
// holds the unknown bits (a bit must not be set in both).

#ifndef SRC_VERIFIER_TNUM_H_
#define SRC_VERIFIER_TNUM_H_

#include <cstdint>
#include <string>

namespace bpf {

struct Tnum {
  uint64_t value = 0;
  uint64_t mask = ~0ull;

  bool IsConst() const { return mask == 0; }
  bool IsUnknown() const { return mask == ~0ull; }
  // True if this tnum is fully known to equal |v|.
  bool EqualsConst(uint64_t v) const { return IsConst() && value == v; }
  // True if the concrete value |v| is representable by this tnum.
  bool Contains(uint64_t v) const { return ((v & ~mask) == value); }

  bool operator==(const Tnum& other) const = default;

  std::string ToString() const;
};

// The one-liners below are inline: the verifier's transfer functions and
// state-claim joins call them on every walked instruction.
inline Tnum TnumConst(uint64_t value) { return Tnum{value, 0}; }
inline Tnum TnumUnknown() { return Tnum{0, ~0ull}; }
// Smallest tnum containing every value in [min, max].
Tnum TnumRange(uint64_t min, uint64_t max);

Tnum TnumLshift(Tnum a, uint8_t shift);
Tnum TnumRshift(Tnum a, uint8_t shift);
Tnum TnumArshift(Tnum a, uint8_t shift, uint8_t insn_bitness);
Tnum TnumAdd(Tnum a, Tnum b);
Tnum TnumSub(Tnum a, Tnum b);
Tnum TnumAnd(Tnum a, Tnum b);
Tnum TnumOr(Tnum a, Tnum b);
Tnum TnumXor(Tnum a, Tnum b);
Tnum TnumMul(Tnum a, Tnum b);
Tnum TnumNeg(Tnum a);

// Intersection: both a and b are known to hold; returns the combined
// knowledge (kernel: tnum_intersect).
inline Tnum TnumIntersect(Tnum a, Tnum b) {
  const uint64_t v = a.value | b.value;
  const uint64_t mu = a.mask & b.mask;
  return Tnum{v & ~mu, mu};
}
// Union: either a or b holds (kernel: tnum_union — used at state merges).
inline Tnum TnumUnion(Tnum a, Tnum b) {
  const uint64_t v = a.value & b.value;
  const uint64_t mu = a.mask | b.mask | (a.value ^ b.value);
  return Tnum{v & ~mu, mu};
}

// Truncates to the low |size| bytes.
inline Tnum TnumCast(Tnum a, uint8_t size) {
  if (size >= 8) {
    return a;
  }
  const uint64_t keep = (1ull << (size * 8)) - 1;
  return Tnum{a.value & keep, a.mask & keep};
}

// True if every value of b is representable in a (kernel: tnum_in).
bool TnumIn(Tnum a, Tnum b);

// 32-bit subregister helpers.
inline Tnum TnumSubreg(Tnum a) { return TnumCast(a, 4); }  // low 32 bits
Tnum TnumClearSubreg(Tnum a);               // zero the low 32 bits
Tnum TnumWithSubreg(Tnum reg, Tnum subreg); // splice a 32-bit subreg in
Tnum TnumConstSubreg(Tnum reg, uint32_t value);

}  // namespace bpf

#endif  // SRC_VERIFIER_TNUM_H_
