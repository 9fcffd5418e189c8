//===- perfbench/src/LoopGen.cpp ------------------------------------------===//

#include "LoopGen.h"

#include <algorithm>

using namespace perfbench;

namespace {

const char *typeName(unsigned ElemBytes) {
  return ElemBytes == 1 ? "i8" : ElemBytes == 2 ? "i16" : "i32";
}

std::string ref(const std::string &Array, int64_t Offset) {
  return Array + "[i+" + std::to_string(Offset) + "]";
}

/// Draws the parts of one loop. With random operators off, every choice
/// except offsets and alignments is fixed by position.
class Drawer {
public:
  Drawer(Rand &R, bool RandomOps) : R(R), RandomOps(RandomOps) {}

  int64_t offset() { return R.range(0, MaxOffset); }

  std::string load(const std::vector<std::string> &Loads, unsigned K) {
    size_t Which = RandomOps ? static_cast<size_t>(R.range(0, 2)) : K % 3;
    return ref(Loads[Which], offset());
  }

  /// An expression over \p NumRefs references to the load arrays.
  std::string expr(const std::vector<std::string> &Loads, unsigned NumRefs) {
    static const char *Ops[] = {" + ", " - ", " * ", " + ", " & ", " ^ ",
                                " | "};
    static const char *FixedOps[] = {" + ", " * ", " - ", " ^ "};
    std::string E = load(Loads, 0);
    for (unsigned K = 1; K < NumRefs; ++K) {
      std::string Next = load(Loads, K);
      if (!RandomOps) {
        E += FixedOps[(K - 1) % 4] + Next;
        continue;
      }
      switch (R.range(0, 8)) {
      case 0:
        E = "min(" + E + ", " + Next + ")";
        break;
      case 1:
        E = "max(" + E + ", " + Next + ")";
        break;
      default:
        E += Ops[R.range(0, 6)] + Next;
        break;
      }
    }
    if (!RandomOps)
      return E + " + 3";
    if (R.chance(0.5))
      E += " + " + std::to_string(R.range(1, 9));
    return E;
  }

  std::string guard(const std::vector<std::string> &Loads) {
    static const char *Cmps[] = {" < ", " > ", " <= ", " >= ", " != "};
    if (!RandomOps)
      return load(Loads, 1) + " < " + load(Loads, 2);
    std::string L = load(Loads, 0);
    const char *Cmp = Cmps[R.range(0, 4)];
    return L + Cmp +
           (R.chance(0.5) ? load(Loads, 1) : std::to_string(R.range(-20, 20)));
  }

  const char *reduceOp() {
    static const char *Ops[] = {" += ", " ^= ", " max= ", " += ", " |= ",
                                " min= "};
    return RandomOps ? Ops[R.range(0, 5)] : " += ";
  }

  Rand &R;
  bool RandomOps;
  static constexpr int64_t MaxOffset = 7;
};

} // namespace

std::string perfbench::makeLoopText(Rand &R, const LoopShape &Shape) {
  Drawer Draw(R, Shape.RandomOps);
  const unsigned D = Shape.ElemBytes;
  const int64_t Size = Shape.Trip + Drawer::MaxOffset + 1;
  auto Align = [&] {
    if (Shape.RuntimeAlign)
      return std::string("?");
    return std::to_string(D * R.range(0, Shape.MaxAlign / D - 1));
  };

  std::string Decls, Body;
  auto Declare = [&](const std::string &Name, int64_t N,
                     const std::string &A) {
    Decls += "array " + Name + " " + typeName(D) + " " + std::to_string(N) +
             " align " + A + "\n";
  };

  std::vector<std::string> Loads;
  for (unsigned K = 0; K < 3; ++K) {
    Loads.push_back("b" + std::to_string(K));
    Declare(Loads.back(), Size, Align());
  }
  for (size_t S = 0; S < Shape.Stmts.size(); ++S) {
    std::string Expr = Draw.expr(Loads, Shape.LoadsPerStmt);
    std::string Store = "a" + std::to_string(S);
    switch (Shape.Stmts[S]) {
    case StmtShape::Assign:
      Declare(Store, Size, Align());
      Body += ref(Store, Draw.offset()) + " = " + Expr + "\n";
      break;
    case StmtShape::If:
      Declare(Store, Size, Align());
      Body += "if (" + Draw.guard(Loads) + ") " + ref(Store, Draw.offset()) +
              " = " + Expr + "\n";
      break;
    case StmtShape::Reduce:
      // Accumulators need a compile-time, natural alignment.
      Declare(Store, 16, std::to_string(D * R.range(0, 16 / D - 1)));
      Body += Store + "[" + std::to_string(R.range(0, 3)) + "]" +
              Draw.reduceOp() + Expr + "\n";
      break;
    }
  }
  return Decls + "loop " + std::to_string(Shape.Trip) + "\n" + Body;
}

std::string perfbench::respell(const std::string &Text, unsigned Variant) {
  std::string Out;
  switch (Variant % 4) {
  case 0:
    return Text;
  case 1: // Doubled blanks.
    for (char C : Text) {
      Out += C;
      if (C == ' ')
        Out += ' ';
    }
    return Out;
  case 2: // A header comment and trailing comments.
    Out = "# respelled\n";
    for (char C : Text)
      Out += C == '\n' ? std::string("  # .\n") : std::string(1, C);
    return Out;
  default: // Blank lines and leading tabs.
    for (char C : Text)
      Out += C == '\n' ? std::string("\n\n\t") : std::string(1, C);
    return Out;
  }
}
