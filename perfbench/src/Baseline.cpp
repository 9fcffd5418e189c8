//===- perfbench/src/Baseline.cpp -----------------------------------------===//

#include "Baseline.h"

#include "ir/Array.h"
#include "ir/Expr.h"
#include "ir/Loop.h"
#include "ir/Stmt.h"
#include "support/Format.h"

#include <map>

using namespace perfbench;
using namespace simdize;

namespace {

/// Emits one function body: locals in SSA style so no subexpression is
/// evaluated twice, every value held in the loop's signed element type
/// (sign-extended when read, as the oracle reads it).
class FunctionEmitter {
public:
  FunctionEmitter(const ir::Loop &L, const BaselineSpec &Spec)
      : L(L), Spec(Spec) {
    unsigned D = L.getElemSize();
    T = D == 1 ? "int8_t" : D == 2 ? "int16_t" : "int32_t";
  }

  std::string emit() {
    std::string Out =
        strf("extern \"C\" void %s_image(unsigned char *Img, const long "
             "*Args) {\n",
             Spec.Name.c_str());
    const auto &Arrays = L.getArrays();
    for (size_t K = 0; K < Arrays.size(); ++K) {
      Names[Arrays[K].get()] = strf("m%zu", K);
      Out += strf("  %s *__restrict m%zu = (%s *)(Img + %lld);\n", T, K, T,
                  static_cast<long long>(Spec.ArrayBases[K]));
    }
    const auto &Params = L.getParams();
    for (size_t K = 0; K < Params.size(); ++K)
      ParamIndex[Params[K].get()] = K;
    Out += strf("  const long ub = Args[%zu];\n", Params.size());

    // Reductions accumulate in a local; no other statement touches the
    // accumulator array (a simdizability precondition).
    const auto &Stmts = L.getStmts();
    for (size_t S = 0; S < Stmts.size(); ++S)
      if (Stmts[S]->isReduce())
        Out += strf("  %s acc%zu = %s[%lld];\n", T, S,
                    Names[Stmts[S]->getStoreArray()].c_str(),
                    static_cast<long long>(Stmts[S]->getStoreOffset()));

    Out += "  for (long i = 0; i < ub; ++i) {\n";
    for (size_t S = 0; S < Stmts.size(); ++S)
      Out += stmt(*Stmts[S], S);
    Out += "  }\n";
    for (size_t S = 0; S < Stmts.size(); ++S)
      if (Stmts[S]->isReduce())
        Out += strf("  %s[%lld] = acc%zu;\n",
                    Names[Stmts[S]->getStoreArray()].c_str(),
                    static_cast<long long>(Stmts[S]->getStoreOffset()), S);
    return Out + "}\n";
  }

private:
  std::string stmt(const ir::Stmt &S, size_t Idx) {
    Body.clear();
    std::string Store = strf("%s[i + %lld]", Names[S.getStoreArray()].c_str(),
                             static_cast<long long>(S.getStoreOffset()));
    switch (S.getKind()) {
    case ir::StmtKind::Assign: {
      std::string V = expr(S.getRHS());
      return Body + strf("    %s = %s;\n", Store.c_str(), V.c_str());
    }
    case ir::StmtKind::If: {
      std::string A = expr(S.getGuardLHS());
      std::string B = expr(S.getGuardRHS());
      std::string Guard = Body;
      Body.clear();
      std::string V = expr(S.getRHS());
      return Guard + strf("    if (%s %s %s) {\n", A.c_str(),
                          cmpOp(S.getCmpKind()), B.c_str()) +
             Body + strf("    %s = %s;\n    }\n", Store.c_str(), V.c_str());
    }
    case ir::StmtKind::Reduce: {
      std::string V = expr(S.getRHS());
      std::string Acc = strf("acc%zu", Idx);
      return Body + strf("    %s = %s;\n", Acc.c_str(),
                         combine(S.getReduceOp(), Acc, V).c_str());
    }
    }
    return "";
  }

  /// Emits \p E into Body and returns the local holding its value.
  std::string expr(const ir::Expr &E) {
    std::string V;
    switch (E.getKind()) {
    case ir::ExprKind::ArrayRef: {
      const auto &R = ir::cast<ir::ArrayRefExpr>(E);
      V = strf("%s[i + %lld]", Names[R.getArray()].c_str(),
               static_cast<long long>(R.getOffset()));
      break;
    }
    case ir::ExprKind::Splat:
      V = strf("(%s)%lldLL", T,
               static_cast<long long>(ir::cast<ir::SplatExpr>(E).getValue()));
      break;
    case ir::ExprKind::Param:
      V = strf("(%s)Args[%zu]", T,
               ParamIndex[ir::cast<ir::ParamExpr>(E).getParam()]);
      break;
    case ir::ExprKind::BinOp: {
      const auto &B = ir::cast<ir::BinOpExpr>(E);
      std::string Lhs = expr(B.getLHS());
      std::string Rhs = expr(B.getRHS());
      V = combine(B.getOp(), Lhs, Rhs);
      break;
    }
    }
    std::string Local = strf("t%u", NextLocal++);
    Body += strf("    const %s %s = %s;\n", T, Local.c_str(), V.c_str());
    return Local;
  }

  std::string combine(ir::BinOpKind Op, const std::string &A,
                      const std::string &B) const {
    auto Wrap = [&](const char *Sym) {
      return strf("(%s)((uint32_t)%s %s (uint32_t)%s)", T, A.c_str(), Sym,
                  B.c_str());
    };
    switch (Op) {
    case ir::BinOpKind::Add:
      return Wrap("+");
    case ir::BinOpKind::Sub:
      return Wrap("-");
    case ir::BinOpKind::Mul:
      return Wrap("*");
    case ir::BinOpKind::Min:
      return strf("(%s < %s ? %s : %s)", A.c_str(), B.c_str(), A.c_str(),
                  B.c_str());
    case ir::BinOpKind::Max:
      return strf("(%s > %s ? %s : %s)", A.c_str(), B.c_str(), A.c_str(),
                  B.c_str());
    case ir::BinOpKind::And:
      return strf("(%s)(%s & %s)", T, A.c_str(), B.c_str());
    case ir::BinOpKind::Or:
      return strf("(%s)(%s | %s)", T, A.c_str(), B.c_str());
    case ir::BinOpKind::Xor:
      return strf("(%s)(%s ^ %s)", T, A.c_str(), B.c_str());
    }
    return A;
  }

  static const char *cmpOp(ir::CmpKind K) {
    switch (K) {
    case ir::CmpKind::LT:
      return "<";
    case ir::CmpKind::LE:
      return "<=";
    case ir::CmpKind::GT:
      return ">";
    case ir::CmpKind::GE:
      return ">=";
    case ir::CmpKind::EQ:
      return "==";
    case ir::CmpKind::NE:
      return "!=";
    }
    return "==";
  }

  const ir::Loop &L;
  const BaselineSpec &Spec;
  const char *T;
  std::map<const ir::Array *, std::string> Names;
  std::map<const ir::Param *, size_t> ParamIndex;
  std::string Body;
  unsigned NextLocal = 0;
};

} // namespace

std::string
perfbench::emitBaselineModule(const std::vector<BaselineSpec> &Specs,
                              bool AutoVectorize) {
  // The pragma applies to every function after it; the compile flags
  // (-O2 plus the width's ISA) come from native::compileAndLoad.
  std::string Out = AutoVectorize
                        ? "#pragma GCC optimize(\"O3\")\n"
                        : "#pragma GCC optimize(\"O3,no-tree-vectorize\")\n";
  Out += "#include <stdint.h>\n\n";
  for (const BaselineSpec &S : Specs)
    Out += FunctionEmitter(*S.Loop, S).emit() + "\n";
  return Out;
}
