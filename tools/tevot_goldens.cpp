// tevot_goldens — regenerates or verifies the golden DTA traces in
// tests/golden/ (see src/check/golden.hpp for what a trace pins down).
//
//   tevot_goldens <golden-dir>          rewrite every golden trace
//   tevot_goldens <golden-dir> --check  strict comparison; exit 1 and
//                                       print the first divergence per
//                                       trace when anything drifted
//
// Regenerate (and review the diff!) only when a timing-relevant change
// is intentional; CI runs the --check mode.
#include <cstdio>
#include <exception>
#include <string>

#include "check/golden.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace tevot;
  bool check_mode = false;
  std::string dir;
  util::Flags flags("tevot_goldens",
                    "usage: tevot_goldens <golden-dir> [--check]\n");
  flags.flag("--check", &check_mode).arg("<golden-dir>", util::text(&dir));
  if (!flags.parse(argc, argv)) return flags.usage();

  bool ok = true;
  try {
    for (const check::GoldenSpec& spec : check::defaultGoldenSpecs()) {
      const std::string path = dir + "/" + check::goldenFileName(spec);
      const std::string actual = check::renderGoldenTrace(spec);
      if (!check_mode) {
        check::writeTextFile(path, actual);
        std::printf("wrote %s\n", path.c_str());
        continue;
      }
      std::string expected;
      try {
        expected = check::readTextFile(path);
      } catch (const std::exception& error) {
        std::printf("FAIL %s: %s\n", path.c_str(), error.what());
        ok = false;
        continue;
      }
      const check::GoldenDiff diff =
          check::compareGoldenTrace(expected, actual);
      if (diff.match) {
        std::printf("ok   %s\n", path.c_str());
      } else {
        std::printf("FAIL %s: %s\n", path.c_str(),
                    diff.description.c_str());
        ok = false;
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tevot_goldens: %s\n", error.what());
    return 1;
  }
  if (check_mode && !ok) {
    std::printf("golden traces drifted; regenerate with "
                "`tevot_goldens %s` only if the change is intended\n",
                dir.c_str());
  }
  return ok ? 0 : 1;
}
