// Seeded generator of pipe-structured Val programs for compile_many.
//
// Modelled on the property-test generator (tests/generators.hpp) and kept
// apart from it, so that the benchmark's program set does not change when
// the tests do.  Every program has parameters P0, P1 over [0, m+1] and a
// chain of forall and linear for-iter blocks V0.. over [1, m] (for-iter
// blocks over [0, m]), each block using the one before it.  Expressions are
// full trees, so the set's compile cost changes little from seed to seed.
// Two rules keep every generated program's output checkable on every seed:
//   - data-dependent conditions test parameters only, so a companion-scheme
//     reassociation in an earlier block can never flip a branch;
//   - a recurrence's coefficient is 0.3 times a parameter, a constant or
//     0.1 * i, so |coefficient| < 1 and no value overflows.
#pragma once

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

struct GenShape {
  int blocks = 2;    ///< chained blocks, 2..16
  int maxDepth = 4;  ///< expression depth, 1..4
  int m = 32;        ///< manifest extent
};

class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  int pick(int n) { return static_cast<int>(rng_() % static_cast<unsigned>(n)); }

  std::string module(const GenShape& s) {
    shape_ = s;
    std::ostringstream os;
    os << "const m = " << s.m << "\n";
    os << "function gen(P0, P1: array[real] [0, m+1] returns array[real])\n";
    os << "  let\n";
    std::vector<std::string> defined;
    for (int b = 0; b < s.blocks; ++b) {
      const std::string name = "V" + std::to_string(b);
      const bool iter = b > 0 && chance(40);
      os << "    " << name << " : array[real] [" << (iter ? 0 : 1)
         << ", m] := " << (iter ? forIterBlock(defined) : forallBlock(defined))
         << (b + 1 < s.blocks ? ";" : "") << "\n";
      defined.push_back(name);
    }
    os << "  in V" << (s.blocks - 1) << " endlet\nendfun\n";
    return os.str();
  }

 private:
  std::mt19937_64 rng_;
  GenShape shape_;

  bool chance(int percent) { return pick(100) < percent; }

  static std::string fmt(double v) {
    std::ostringstream os;
    os << v;
    std::string s = os.str();
    if (s.find('.') == std::string::npos) s += ".";
    return s;
  }

  std::string param() {
    const int off = pick(3) - 1;  // -1..1, in range for i in [1, m]
    std::string idx = "i";
    if (off > 0) idx += "+1";
    if (off < 0) idx += "-1";
    return "P" + std::to_string(pick(2)) + "[" + idx + "]";
  }

  std::string constant() { return fmt(0.25 + 0.5 * pick(4)); }

  std::string leaf(const std::vector<std::string>& defined) {
    switch (pick(defined.empty() ? 3 : 4)) {
      case 0: return param();
      case 1: return constant();
      case 2: return "(0.1 * i)";
      default: return defined[static_cast<std::size_t>(
                          pick(static_cast<int>(defined.size())))] + "[i]";
    }
  }

  /// A full tree: every operator joins two subtrees, so an expression of
  /// depth d has 2^d leaves and program size follows the shape, not luck.
  std::string expr(const std::vector<std::string>& defined, int depth) {
    if (depth <= 0) return leaf(defined);
    const auto sub = [&] { return expr(defined, depth - 1); };
    switch (pick(6)) {
      case 0: return "(" + sub() + " + " + sub() + ")";
      case 1: return "(" + sub() + " - " + sub() + ")";
      case 2: return "((" + sub() + " + " + sub() + ") * 0.5)";
      case 3: return "((" + sub() + " - " + sub() + ") / 2.)";
      case 4:
        return "(if i < " + std::to_string(1 + pick(shape_.m)) + " then " +
               sub() + " else " + sub() + " endif)";
      default:
        return "(if " + param() + " > 0.5 then " + sub() + " else " + sub() +
               " endif)";
    }
  }

  /// "<previous block>[i] + " for every block but the first: each block
  /// feeds the next, so no block is dead code that pruning would drop and
  /// a program's size follows its shape.
  static std::string chain(const std::vector<std::string>& defined) {
    return defined.empty() ? std::string() : defined.back() + "[i] + ";
  }

  std::string forallBlock(const std::vector<std::string>& defined) {
    std::ostringstream os;
    os << "forall i in [1, m]\n";
    if (chance(60)) {
      os << "      Q : real := " << expr(defined, shape_.maxDepth) << ";\n"
         << "      construct (" << chain(defined) << "Q + "
         << expr(defined, shape_.maxDepth - 1) << ")";
    } else {
      os << "      construct (" << chain(defined)
         << expr(defined, shape_.maxDepth) << ")";
    }
    os << " endall";
    return os.str();
  }

  std::string forIterBlock(const std::vector<std::string>& defined) {
    const std::string alpha =
        "(0.3 * " + (chance(50) ? param() : chance(50) ? constant()
                                                        : std::string("(0.1 * i)")) +
        ")";
    std::ostringstream os;
    os << "for i : integer := 1; T : array[real] := [0: " << fmt(0.5) << "]\n"
       << "      do let P : real := (" << alpha << " * T[i-1] + "
       << chain(defined) << expr(defined, shape_.maxDepth - 1) << ")\n"
       << "         in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer\n"
       << "            else T endif endlet endfor";
    return os.str();
  }
};

}  // namespace perfbench
