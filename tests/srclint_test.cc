// Tests for the V2xx source analyzer (check/srclint.h): one synthetic
// fixture per rule (positive and negative), the baseline round trip, and
// the meta-test that the repository itself scans clean modulo the
// checked-in baseline.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "check/diagnostic.h"
#include "check/srclint.h"

namespace vini::check {
namespace {

const SrcFinding* findCode(const std::vector<SrcFinding>& findings,
                           const std::string& code) {
  for (const SrcFinding& f : findings) {
    if (f.code == code) return &f;
  }
  return nullptr;
}

TEST(SrclintV200, FlagsUnorderedIterationFeedingOutput) {
  const auto findings = lintSource("x.cc",
                                   "void f(std::ostream& os) {\n"
                                   "  std::unordered_map<int, int> m;\n"
                                   "  for (const auto& kv : m) { os << kv.first; }\n"
                                   "}\n");
  const SrcFinding* f = findCode(findings, "V200");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->line, 3);
}

TEST(SrclintV200, OrderInsensitiveBodyIsOnlyAWarning) {
  const auto findings = lintSource("x.cc",
                                   "int f() {\n"
                                   "  std::unordered_set<int> s;\n"
                                   "  int sum = 0;\n"
                                   "  for (int v : s) { sum += v; }\n"
                                   "  return sum;\n"
                                   "}\n");
  const SrcFinding* f = findCode(findings, "V200");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
}

TEST(SrclintV200, ResolvesMembersViaCompanionHeader) {
  const std::string header =
      "class Stack {\n"
      "  std::unordered_map<int, Conn> connections_;\n"
      "};\n";
  const auto findings = lintSource(
      "x.cc",
      "void Stack::dump(std::ostream& os) {\n"
      "  for (const auto& kv : connections_) { os << kv.first; }\n"
      "}\n",
      header);
  EXPECT_NE(findCode(findings, "V200"), nullptr);
}

TEST(SrclintV200, OrderedMapIterationIsClean) {
  const auto findings = lintSource("x.cc",
                                   "void f(std::ostream& os) {\n"
                                   "  std::map<int, int> m;\n"
                                   "  for (const auto& kv : m) { os << kv.first; }\n"
                                   "}\n");
  EXPECT_EQ(findCode(findings, "V200"), nullptr);
}

TEST(SrclintV201, FlagsPointerKeyedContainers) {
  const auto findings =
      lintSource("x.cc", "std::set<Router*> visited;\n");
  EXPECT_NE(findCode(findings, "V201"), nullptr);
  const auto clean =
      lintSource("x.cc", "std::map<std::string, Router*> by_name;\n");
  EXPECT_EQ(findCode(clean, "V201"), nullptr);
}

TEST(SrclintV202, FlagsWallClockReads) {
  const auto findings = lintSource(
      "x.cc", "void f() { auto t = std::chrono::steady_clock::now(); }\n");
  EXPECT_NE(findCode(findings, "V202"), nullptr);
  const auto bare =
      lintSource("x.cc", "long f() { return std::time(nullptr); }\n");
  EXPECT_NE(findCode(bare, "V202"), nullptr);
  // A member named clock (ctx.clock->now()) and a variable named time
  // are not wall-clock reads.
  const auto clean = lintSource(
      "x.cc",
      "void f(Ctx& ctx) { auto t = ctx.clock->now(); double time = 1; }\n");
  EXPECT_EQ(findCode(clean, "V202"), nullptr);
}

TEST(SrclintV203, FlagsGlobalAndUnseededRandomness) {
  EXPECT_NE(findCode(lintSource("x.cc", "int f() { return std::rand(); }\n"),
                     "V203"),
            nullptr);
  EXPECT_NE(findCode(lintSource("x.cc", "std::uint64_t f() {\n"
                                        "  std::random_device rd;\n"
                                        "  return rd();\n"
                                        "}\n"),
                     "V203"),
            nullptr);
  EXPECT_NE(
      findCode(lintSource(
                   "x.cc", "int f() { std::mt19937_64 rng; return (int)rng(); }\n"),
               "V203"),
      nullptr);
}

TEST(SrclintV203, SeededEnginesAndClassMembersAreClean) {
  EXPECT_EQ(findCode(lintSource("x.cc",
                                "int f(std::uint64_t seed) {\n"
                                "  std::mt19937_64 rng(seed);\n"
                                "  return (int)rng();\n"
                                "}\n"),
                     "V203"),
            nullptr);
  // A class-member engine is seeded in the constructor init list.
  EXPECT_EQ(findCode(lintSource("x.cc",
                                "class Random {\n"
                                " public:\n"
                                "  explicit Random(std::uint64_t seed) : engine_(seed) {}\n"
                                " private:\n"
                                "  std::mt19937_64 engine_;\n"
                                "};\n"),
                     "V203"),
            nullptr);
}

TEST(SrclintV203, FlagsLibraryDefinedDistributions) {
  // The standard fixes the engines' output but not the distributions'
  // algorithms, so each of these draws differently per standard library.
  for (const char* source :
       {"double f(std::mt19937_64& g) {\n"
        "  return std::normal_distribution<double>(0.0, 1.0)(g);\n"
        "}\n",
        "double f(std::mt19937_64& g) {\n"
        "  std::uniform_real_distribution<double> unit{0.0, 1.0};\n"
        "  return unit(g);\n"
        "}\n",
        "class R {\n"
        "  std::exponential_distribution<double> exp_;\n"
        "};\n",
        "double f(std::mt19937_64& g) {\n"
        "  return std::generate_canonical<double, 53>(g);\n"
        "}\n"}) {
    const auto findings = lintSource("x.cc", source);
    const SrcFinding* f = findCode(findings, "V203");
    ASSERT_NE(f, nullptr) << source;
    EXPECT_EQ(f->severity, Severity::kError);
  }
  // Drawing through sim::Random, or scaling raw engine bits, is clean.
  EXPECT_EQ(findCode(lintSource("x.cc",
                                "double f(std::mt19937_64& g, Random& r) {\n"
                                "  const double u = (g() >> 11) * 0x1.0p-53;\n"
                                "  return u + r.normal(0.0, 1.0);\n"
                                "}\n"),
                     "V203"),
            nullptr);
}

TEST(SrclintV204, FlagsMutableStaticState) {
  const auto local = lintSource("x.cc",
                                "int next() {\n"
                                "  static int counter = 0;\n"
                                "  return ++counter;\n"
                                "}\n");
  const SrcFinding* f = findCode(local, "V204");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 2);
  const auto global = lintSource("x.cc",
                                 "namespace app {\n"
                                 "Widget* g_current = nullptr;\n"
                                 "}\n");
  EXPECT_NE(findCode(global, "V204"), nullptr);
  // constinit fixes the initializer, not the value.
  const auto member = lintSource("x.h",
                                 "class Q {\n"
                                 "  static inline constinit thread_local int n{};\n"
                                 "};\n");
  EXPECT_NE(findCode(member, "V204"), nullptr);
  const auto pinned = lintSource("x.cc",
                                 "namespace app {\n"
                                 "constinit int g_count = 0;\n"
                                 "}\n");
  EXPECT_NE(findCode(pinned, "V204"), nullptr);
}

TEST(SrclintV204, ConstStaticsAndFunctionDeclsAreClean) {
  const auto findings = lintSource(
      "x.cc",
      "constexpr int kTableSize = 64;\n"
      "const char* name() {\n"
      "  static const std::string kName = \"x\";\n"
      "  return kName.c_str();\n"
      "}\n"
      "class Log {\n"
      " public:\n"
      "  static Log& instance();\n"
      "};\n"
      "void reg() {\n"
      "  static const bool registered = [] { return true; }();\n"
      "  (void)registered;\n"
      "}\n");
  EXPECT_EQ(findCode(findings, "V204"), nullptr);
}

TEST(SrclintV205, FlagsUseCountBranching) {
  EXPECT_NE(findCode(lintSource("x.cc",
                                "void f(std::shared_ptr<int> p) {\n"
                                "  if (p.use_count() == 1) { p.reset(); }\n"
                                "}\n"),
                     "V205"),
            nullptr);
  EXPECT_EQ(findCode(lintSource(
                         "x.cc", "void f(std::shared_ptr<int> p) { p.reset(); }\n"),
                     "V205"),
            nullptr);
}

TEST(SrclintV206, FlagsVolatileButNotAtomic) {
  EXPECT_NE(findCode(lintSource("x.cc", "struct S { volatile bool done_; };\n"),
                     "V206"),
            nullptr);
  EXPECT_EQ(
      findCode(lintSource("x.cc", "struct S { std::atomic<bool> done_; };\n"),
               "V206"),
      nullptr);
}

TEST(SrclintV207, FlagsCrossShardMemberWithoutAnnotation) {
  const auto findings = lintSource("x.h",
                                   "class T {\n"
                                   "  // cross-shard: read by samplers\n"
                                   "  int count_ = 0;\n"
                                   "};\n");
  const SrcFinding* f = findCode(findings, "V207");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 2);
  const auto clean = lintSource("x.h",
                                "class T {\n"
                                "  // cross-shard: read by samplers\n"
                                "  int count_ VINI_GUARDED_BY(shard_) = 0;\n"
                                "};\n");
  EXPECT_EQ(findCode(clean, "V207"), nullptr);
}

TEST(SrclintFormat, FindingFormatsLikeADiagnostic) {
  SrcFinding f{Severity::kError, "V204", "src/app/ping.cc", 7, "boom"};
  EXPECT_EQ(formatFinding(f), "error V204 [src/app/ping.cc:7]: boom");
}

// -- Baseline ---------------------------------------------------------------

TEST(SrclintBaseline, ParsesEntriesAndComments) {
  const Baseline b = parseBaseline(
      "# comment\n"
      "\n"
      "V204 src/sim/log.cc -- deliberate singleton\n"
      "V202 src/sim/event_queue.cc -- profiler wall clock\n");
  ASSERT_EQ(b.entries.size(), 2u);
  EXPECT_EQ(b.entries[0].code, "V204");
  EXPECT_EQ(b.entries[0].path, "src/sim/log.cc");
  EXPECT_EQ(b.entries[0].justification, "deliberate singleton");
}

TEST(SrclintBaseline, RejectsMissingJustification) {
  EXPECT_THROW(parseBaseline("V204 src/sim/log.cc\n"), std::runtime_error);
  EXPECT_THROW(parseBaseline("V204 src/sim/log.cc -- \n"), std::runtime_error);
  EXPECT_THROW(parseBaseline("notacode src/x.cc -- why\n"), std::runtime_error);
}

TEST(SrclintBaseline, EmitApplyRoundTrip) {
  std::vector<SrcFinding> findings;
  findings.push_back({Severity::kError, "V204", "src/x.cc", 7, "m"});
  findings.push_back({Severity::kError, "V204", "src/x.cc", 9, "m"});
  findings.push_back({Severity::kError, "V202", "src/y.cc", 3, "m"});
  std::string text = emitBaseline(findings);
  // One entry per (code, path): the two V204s collapse.
  std::size_t pos;
  while ((pos = text.find("TODO: justify this suppression")) !=
         std::string::npos) {
    text.replace(pos, 30, "because tests");
  }
  const Baseline baseline = parseBaseline(text);
  ASSERT_EQ(baseline.entries.size(), 2u);

  const BaselineResult result = applyBaseline(findings, baseline);
  EXPECT_TRUE(result.unbaselined.empty());
  EXPECT_TRUE(result.stale.empty());
  EXPECT_EQ(result.suppressed.size(), 3u);
}

TEST(SrclintBaseline, DetectsStaleAndUnbaselined) {
  std::vector<SrcFinding> findings;
  findings.push_back({Severity::kError, "V204", "src/x.cc", 7, "m"});
  Baseline baseline;
  baseline.entries.push_back({"V204", "src/gone.cc", "was fixed"});
  const BaselineResult result = applyBaseline(findings, baseline);
  ASSERT_EQ(result.unbaselined.size(), 1u);
  EXPECT_EQ(result.unbaselined[0].path, "src/x.cc");
  ASSERT_EQ(result.stale.size(), 1u);
  EXPECT_EQ(result.stale[0].path, "src/gone.cc");
}

TEST(SrclintReport, BridgesIntoSharedDiagnostics) {
  std::vector<SrcFinding> findings;
  findings.push_back({Severity::kWarning, "V200", "src/x.cc", 4, "m"});
  Report report;
  toReport(findings, report);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_TRUE(report.hasCode("V200"));
  EXPECT_FALSE(report.hasErrors());
}

TEST(SrclintSelfTest, BuiltInFixturesPass) {
  std::ostringstream os;
  EXPECT_TRUE(srclintSelfTest(os)) << os.str();
}

// -- Meta: the repository itself is clean modulo the baseline ---------------

TEST(SrclintMeta, RepoScanIsCleanModuloBaseline) {
  const std::string root = VINI_SOURCE_ROOT;
  const std::vector<SrcFinding> findings = lintTree(root, {"src", "tools"});

  std::ifstream in(root + "/examples/specs/srclint.baseline");
  ASSERT_TRUE(in) << "missing examples/specs/srclint.baseline";
  std::stringstream ss;
  ss << in.rdbuf();
  const Baseline baseline = parseBaseline(ss.str());
  for (const BaselineEntry& entry : baseline.entries) {
    EXPECT_FALSE(entry.justification.empty());
  }

  const BaselineResult result = applyBaseline(findings, baseline);
  for (const SrcFinding& f : result.unbaselined) {
    EXPECT_NE(f.severity, Severity::kError)
        << "unbaselined finding: " << formatFinding(f);
  }
  for (const BaselineEntry& entry : result.stale) {
    ADD_FAILURE() << "stale baseline entry: " << entry.code << " "
                  << entry.path;
  }
}

}  // namespace
}  // namespace vini::check
