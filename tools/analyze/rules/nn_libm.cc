#include <regex>
#include <string>

#include "analysis.h"

namespace tamp::analyze {
namespace {

/// Host-libm exponentials and tanh: std:: and bare calls (with their f/l
/// variants) and the GCC builtins. A member call (`x.exp(`, `p->exp(`) or
/// an identifier that merely contains the name (`tanh_c`, `my_exp`) is not
/// a match.
const std::regex& NnLibmRegex() {
  static const std::regex re(
      R"((\bstd\s*::\s*(?:exp|exp2|expm1|tanh)[fl]?\b)"
      R"(|\b__builtin_(?:exp|tanh)\w*)"
      R"(|(?:^|[^\w.>])(?:exp|exp2|expm1|tanh)[fl]?\s*\())");
  return re;
}

class NnLibmRule : public Rule {
 public:
  std::string_view name() const override { return "nn-libm"; }
  std::string_view summary() const override {
    return "no libm exp/expm1/tanh in src/nn: the LSTM runs the repo's "
           "activation kernel";
  }

  void CheckFile(const FileContext& file, const Corpus&,
                 Emitter* emitter) override {
    // The LSTM's gates run nn/activation.h on every host. One libm call
    // would make forecasts and gradients depend on the host's libm again
    // (glibc picks its exp by CPU, and its tanh is not correctly rounded),
    // and would break the bitwise parity with the test oracles.
    if (!file.InDir("src/nn/")) return;
    for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
      std::smatch match;
      if (std::regex_search(file.code_lines[i], match, NnLibmRegex())) {
        // Drop the one non-identifier character a bare call matched before.
        std::string call = match.str(0);
        call.erase(0, call.find_first_of("_abcdefghijklmnopqrstuvwxyz"));
        emitter->Report(file, i + 1, *this,
                        "host-libm '" + call +
                            "' in src/nn/; use SigmoidInPlace/TanhInPlace "
                            "(nn/activation.h) so LSTM results do not depend "
                            "on the host's libm");
      }
    }
  }
};

TAMP_REGISTER_ANALYSIS_RULE(NnLibmRule);

}  // namespace
}  // namespace tamp::analyze
