#include <regex>
#include <string>

#include "analysis.h"

namespace tamp::analyze {
namespace {

/// Constructs that let the compiler (or the code) fuse a multiply and an
/// add into one rounding: FMA intrinsics and calls, FP-contraction pragmas,
/// and per-function optimize/target overrides that could enable either.
const std::regex& FpContractRegex() {
  static const std::regex re(
      R"((\b_mm(?:256|512)?_(?:fmadd|fnmadd|fmsub|fnmsub|fmaddsub|fmsubadd)_\w+)"
      R"(|\b(?:std\s*::\s*|__builtin_)?fma[fl]?\s*\()"
      R"(|#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON\b)"
      R"(|#\s*pragma\s+GCC\s+(?:optimize|target)\b)"
      R"(|__attribute__\s*\(\(.*\b(?:optimize|target)\s*\()"
      R"(|\bgnu\s*::\s*(?:optimize|target)\s*\())");
  return re;
}

class FpContractRule : public Rule {
 public:
  std::string_view name() const override { return "fp-contract"; }
  std::string_view summary() const override {
    return "no fused multiply-add or FP-contraction overrides in src/";
  }

  void CheckFile(const FileContext& file, const Corpus&,
                 Emitter* emitter) override {
    // The bit-identity contracts (batched vs scalar forecast, the gate
    // kernel vs its scalar oracle, BPTT vs its reference) hold because
    // every product is rounded before it is added; one fused step changes
    // the last bit.
    if (!file.InDir("src/")) return;
    for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
      std::smatch match;
      if (std::regex_search(file.code_lines[i], match, FpContractRegex())) {
        emitter->Report(file, i + 1, *this,
                        "fusing construct '" + match.str(0) +
                            "' rounds a multiply and an add once; keep "
                            "_mm_mul_pd/_mm_add_pd (or a * b + c under "
                            "-ffp-contract=off) so results stay bitwise "
                            "equal to the scalar oracles");
      }
    }
  }
};

TAMP_REGISTER_ANALYSIS_RULE(FpContractRule);

}  // namespace
}  // namespace tamp::analyze
