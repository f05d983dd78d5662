// Unit tests for the lmk-lint rule matchers (tools/lint) on fixture
// snippets: the determinism rules that gate the simulator core must
// themselves be pinned by tests, or a matcher regression would silently
// turn the gate off.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "lint_rules.hpp"

namespace lmk::lint {
namespace {

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const auto& f : fs) out.push_back(f.rule);
  return out;
}

bool has_rule(const std::vector<Finding>& fs, std::string_view rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [rule](const Finding& f) { return f.rule == rule; });
}

// ----- banned-source -----

TEST(BannedSource, FlagsRandomDevice) {
  auto fs = lint_source("a.cpp", "int x = std::random_device{}();\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "banned-source");
  EXPECT_EQ(fs[0].line, 1);
}

TEST(WallClock, FlagsChronoClocks) {
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp", "auto t = std::chrono::steady_clock::now();\n"),
      "wall-clock"));
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp", "auto t = std::chrono::system_clock::now();\n"),
      "wall-clock"));
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp",
                  "auto t = std::chrono::high_resolution_clock::now();\n"),
      "wall-clock"));
}

TEST(WallClock, FlagsPosixClockReads) {
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp", "clock_gettime(CLOCK_MONOTONIC, &ts);\n"),
      "wall-clock"));
  EXPECT_TRUE(has_rule(lint_source("a.cpp", "gettimeofday(&tv, nullptr);\n"),
                       "wall-clock"));
}

TEST(WallClock, SimilarIdentifiersAreFine) {
  // clockwise_distance (src/common/ring_math.hpp) contains "clock" but
  // is not a clock token.
  EXPECT_TRUE(
      lint_source("a.cpp", "Id d = clockwise_distance(a, b);\n").empty());
}

TEST(BannedSource, FlagsCStyleCalls) {
  EXPECT_TRUE(has_rule(lint_source("a.cpp", "seed = time(nullptr);\n"),
                       "banned-source"));
  EXPECT_TRUE(has_rule(lint_source("a.cpp", "int r = rand();\n"),
                       "banned-source"));
  EXPECT_TRUE(has_rule(lint_source("a.cpp", "srand(42);\n"),
                       "banned-source"));
}

TEST(BannedSource, FlagsUnportableEngines) {
  EXPECT_TRUE(has_rule(lint_source("a.cpp", "std::mt19937 gen(seed);\n"),
                       "banned-source"));
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp", "std::default_random_engine e;\n"),
      "banned-source"));
}

TEST(BannedSource, NoFalsePositiveOnSimilarIdentifiers) {
  // response_time( and SimTime are not time() calls; a member .time()
  // belongs to whatever object defines it, not the C library.
  auto fs = lint_source(
      "a.cpp",
      "SimTime response_time(int x);\n"
      "auto v = stats.response_time(3);\n"
      "double t = obj.time();\n"
      "int runtime = 0; (void)runtime;\n");
  EXPECT_TRUE(fs.empty()) << fs.size() << " findings, first: "
                          << (fs.empty() ? "" : fs[0].message);
}

TEST(BannedSource, IgnoresCommentsAndStrings) {
  auto fs = lint_source(
      "a.cpp",
      "// calling time() here would be wrong\n"
      "const char* s = \"std::random_device\";\n"
      "/* steady_clock in a block comment */\n");
  EXPECT_TRUE(fs.empty());
}

TEST(BannedSource, RngModuleIsExempt) {
  FileOptions opts;
  opts.rng_module = true;
  auto fs = lint_source("src/common/rng.cpp",
                        "std::random_device rd;\n", opts);
  EXPECT_TRUE(fs.empty());
}

TEST(WallClock, BenchMayReadWallClocksButNotEntropy) {
  FileOptions opts;
  opts.bench = true;
  EXPECT_TRUE(lint_source("bench/bench_flagship.cpp",
                          "auto t0 = std::chrono::steady_clock::now();\n",
                          opts)
                  .empty());
  EXPECT_TRUE(has_rule(lint_source("bench/bench_flagship.cpp",
                                   "std::random_device rd;\n", opts),
                       "banned-source"));
}

TEST(WallClock, AllowCommentSuppresses) {
  auto fs = lint_source(
      "a.cpp",
      "// lmk-lint: allow(wall-clock) startup banner only\n"
      "auto t = std::chrono::system_clock::now();\n");
  EXPECT_TRUE(fs.empty());
}

// ----- banned-abort -----

TEST(BannedAbort, FlagsDirectTerminationCalls) {
  EXPECT_TRUE(has_rule(lint_source("a.cpp", "if (bad) std::abort();\n"),
                       "banned-abort"));
  EXPECT_TRUE(has_rule(lint_source("a.cpp", "std::exit(1);\n"),
                       "banned-abort"));
  EXPECT_TRUE(has_rule(lint_source("a.cpp", "abort();\n"), "banned-abort"));
  EXPECT_TRUE(has_rule(lint_source("a.cpp", "quick_exit(0);\n"),
                       "banned-abort"));
}

TEST(BannedAbort, CheckModuleIsExempt) {
  FileOptions opts;
  opts.check_module = true;
  EXPECT_TRUE(lint_source("src/common/check.hpp",
                          "  std::abort();\n", opts)
                  .empty());
}

TEST(BannedAbort, SimilarIdentifiersAndMembersAreFine) {
  // on_exit_requested( is its own identifier; tx.abort() is a member
  // call on whatever tx is; `exit` without a call is a plain name.
  auto fs = lint_source("a.cpp",
                        "void on_exit_requested(int);\n"
                        "tx.abort();\n"
                        "handler->exit();\n"
                        "bool exit_flag = false; (void)exit_flag;\n");
  EXPECT_TRUE(fs.empty()) << fs.size() << " findings, first: "
                          << (fs.empty() ? "" : fs[0].message);
}

TEST(BannedAbort, AllowCommentSuppresses) {
  auto fs = lint_source(
      "a.cpp",
      "std::abort();  // lmk-lint: allow(banned-abort) fuzzer entry\n");
  EXPECT_TRUE(fs.empty());
}

// ----- unordered-iteration -----

TEST(UnorderedIteration, FlagsRangeForOverUnorderedMap) {
  auto fs = lint_source(
      "a.cpp",
      "std::unordered_map<int, double> acc;\n"
      "double total = 0;\n"
      "for (const auto& [k, v] : acc) total += v;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "unordered-iteration");
  EXPECT_EQ(fs[0].line, 3);
}

TEST(UnorderedIteration, FlagsRangeForOverUnorderedSet) {
  auto fs = lint_source("a.cpp",
                        "std::unordered_set<std::uint32_t> terms;\n"
                        "for (std::uint32_t t : terms) use(t);\n");
  EXPECT_EQ(rules_of(fs),
            std::vector<std::string>{"unordered-iteration"});
}

TEST(UnorderedIteration, FlagsIteratorWalk) {
  auto fs = lint_source(
      "a.cpp",
      "std::unordered_map<int, int> m;\n"
      "for (auto it = m.begin(); it != m.end(); ++it) emit(*it);\n");
  EXPECT_EQ(rules_of(fs),
            std::vector<std::string>{"unordered-iteration"});
}

TEST(UnorderedIteration, MultiLineDeclarationAndLoop) {
  auto fs = lint_source(
      "a.cpp",
      "std::unordered_map<std::uint64_t,\n"
      "                   // lmk-lint: allow(pointer-key-unordered) test\n"
      "                   std::unordered_map<const Node*, Reply>>\n"
      "    pending_;\n"
      "for (auto& [qid, replies] :\n"
      "     pending_) {\n"
      "  flush(qid);\n"
      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 5);
}

TEST(UnorderedIteration, JustificationCommentSuppresses) {
  auto fs = lint_source(
      "a.cpp",
      "std::unordered_map<int, double> acc;\n"
      "// lmk-lint: iteration-order-independent\n"
      "for (const auto& [k, v] : acc) check(v);\n");
  EXPECT_TRUE(fs.empty());
  fs = lint_source(
      "a.cpp",
      "std::unordered_set<int> s;\n"
      "for (int v : s) check(v);  // lmk-lint: iteration-order-independent\n");
  EXPECT_TRUE(fs.empty());
}

TEST(UnorderedIteration, OrderedContainersAreFine) {
  auto fs = lint_source("a.cpp",
                        "std::map<int, double> acc;\n"
                        "std::vector<int> v;\n"
                        "for (const auto& [k, x] : acc) out(k, x);\n"
                        "for (int i : v) out2(i);\n");
  EXPECT_TRUE(fs.empty());
}

TEST(UnorderedIteration, MembershipTestsAreFine) {
  auto fs = lint_source("a.cpp",
                        "std::unordered_set<int> seen;\n"
                        "if (seen.count(3) != 0) return;\n"
                        "seen.insert(4);\n");
  EXPECT_TRUE(fs.empty());
}

TEST(UnorderedIteration, CompanionHeaderDeclarationsAreSeen) {
  FileOptions opts;
  opts.companion_decls =
      "class P {\n"
      "  std::unordered_map<const Node*, Store> stores_;\n"
      "};\n";
  auto fs = lint_source("p.cpp",
                        "void P::sweep() {\n"
                        "  for (auto& [n, s] : stores_) visit(s);\n"
                        "}\n",
                        opts);
  EXPECT_EQ(rules_of(fs),
            std::vector<std::string>{"unordered-iteration"});
}

// ----- pointer-key -----

TEST(PointerKey, FlagsPointerKeyedOrderedContainers) {
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp", "std::map<Node*, int> by_node;\n"),
      "pointer-key"));
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp", "std::set<const ChordNode*> probes;\n"),
      "pointer-key"));
}

TEST(PointerKey, PointerValuesAreFine) {
  EXPECT_TRUE(lint_source("a.cpp",
                          "std::map<std::uint64_t, Node*> owner_of;\n")
                  .empty());
}

TEST(PointerKey, AllowCommentSuppresses) {
  auto fs = lint_source(
      "a.cpp",
      "// lmk-lint: allow(pointer-key) diagnostic dump, order not output\n"
      "std::set<Node*> dump;\n");
  EXPECT_TRUE(fs.empty());
}

// ----- pointer-key-unordered -----

TEST(PointerKeyUnordered, FlagsUnjustifiedPointerKeyedHashContainers) {
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp",
                  "std::unordered_map<const ChordNode*, Store> stores_;\n"),
      "pointer-key-unordered"));
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp", "std::unordered_set<ChordNode*> seen;\n"),
      "pointer-key-unordered"));
}

TEST(PointerKeyUnordered, PointerValuesAndIdKeysAreFine) {
  EXPECT_TRUE(
      lint_source("a.cpp",
                  "std::unordered_map<std::uint64_t, Node*> owner_of;\n")
          .empty());
}

TEST(PointerKeyUnordered, AllowCommentSuppresses) {
  auto fs = lint_source(
      "a.cpp",
      "// lmk-lint: allow(pointer-key-unordered) membership test only\n"
      "std::unordered_set<Node*> seen;\n"
      "if (seen.count(p) != 0) return;\n");
  EXPECT_TRUE(fs.empty());
}

// ----- mutable-global -----

TEST(MutableGlobal, FlagsKeywordlessNamespaceScopeVariable) {
  auto fs = lint_source("a.cpp",
                        "namespace lmk {\n"
                        "namespace {\n"
                        "std::mutex g_mu;\n"
                        "std::size_t g_counter = 0;\n"
                        "}  // namespace\n"
                        "}  // namespace lmk\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "mutable-global");
  EXPECT_EQ(fs[0].line, 3);
  EXPECT_EQ(fs[1].line, 4);
}

TEST(MutableGlobal, FlagsStaticLocalAndThreadLocal) {
  EXPECT_TRUE(has_rule(lint_source("a.cpp",
                                   "int next_id() {\n"
                                   "  static int counter = 0;\n"
                                   "  return ++counter;\n"
                                   "}\n"),
                       "mutable-global"));
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp", "thread_local bool g_in_job = false;\n"),
      "mutable-global"));
  // `static thread_local` is one declaration, not two findings.
  auto fs = lint_source("a.cpp", "static thread_local int g_tls = 0;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "mutable-global");
}

TEST(MutableGlobal, ConstFamilyIsFine) {
  EXPECT_TRUE(lint_source("a.cpp",
                          "namespace lmk {\n"
                          "const std::size_t kNodes = 64;\n"
                          "constexpr double kFactor = 1.5;\n"
                          "constexpr double kTable[] = {1.0, 2.0};\n"
                          "}  // namespace lmk\n")
                  .empty());
  EXPECT_TRUE(
      lint_source("a.cpp",
                  "double cached() {\n"
                  "  static const double kOnce = expensive();\n"
                  "  static constexpr int kBits = 12;\n"
                  "  return kOnce + kBits;\n"
                  "}\n")
          .empty());
}

TEST(MutableGlobal, FunctionsMembersAndLocalsAreFine) {
  // Function declarations/definitions, static member functions, class
  // bodies and ordinary locals all carry no static storage.
  EXPECT_TRUE(lint_source("a.cpp",
                          "namespace lmk {\n"
                          "static void helper(int x);\n"
                          "std::vector<int> make_list(std::size_t n);\n"
                          "class Pool {\n"
                          " public:\n"
                          "  static Pool& instance();\n"
                          "  std::size_t threads_ = 0;\n"
                          "};\n"
                          "int run() {\n"
                          "  std::size_t local = 0;\n"
                          "  return static_cast<int>(local);\n"
                          "}\n"
                          "}  // namespace lmk\n")
                  .empty());
}

TEST(MutableGlobal, UsingAliasesAndForwardDeclsAreFine) {
  EXPECT_TRUE(lint_source("a.cpp",
                          "namespace lmk {\n"
                          "using Clock = VirtualClock;\n"
                          "typedef std::uint64_t HostId;\n"
                          "struct Simulator;\n"
                          "class Network;\n"
                          "static_assert(sizeof(int) == 4);\n"
                          "}  // namespace lmk\n")
                  .empty());
}

TEST(MutableGlobal, AllowCommentSuppresses) {
  EXPECT_TRUE(lint_source("a.cpp",
                          "namespace lmk {\n"
                          "namespace {\n"
                          "// lmk-lint: allow(mutable-global) pool guard\n"
                          "std::mutex g_pool_mu;\n"
                          "}  // namespace\n"
                          "}  // namespace lmk\n")
                  .empty());
  EXPECT_TRUE(
      lint_source("a.cpp",
                  "int f() {\n"
                  "  // lmk-lint: allow(mutable-global) call counter\n"
                  "  static int calls = 0;\n"
                  "  return ++calls;\n"
                  "}\n")
          .empty());
}

// ----- infrastructure -----

TEST(Strip, PreservesLayoutAndNewlines) {
  std::string src = "int a; // c1\n\"str\\\"ing\"\n/* b\nb */ int c;\n";
  std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(out.size(), src.size());
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(out.find("c1"), std::string::npos);
  EXPECT_EQ(out.find("str"), std::string::npos);
  EXPECT_NE(out.find("int c;"), std::string::npos);
}

TEST(Strip, DigitSeparatorIsNotACharLiteral) {
  std::string out = strip_comments_and_strings("int x = 1'000'000; f(x);\n");
  EXPECT_NE(out.find("f(x);"), std::string::npos);
}

TEST(CollectVars, FindsLocalsMembersAndInitializers) {
  std::string stripped =
      "std::unordered_map<int, V> a;\n"
      "std::unordered_set<K> b = make();\n"
      "std::unordered_map<K, std::vector<V>> c{};\n"
      "using Alias = std::unordered_map<int, int>;\n";
  auto vars = collect_unordered_vars(stripped);
  EXPECT_NE(std::find(vars.begin(), vars.end(), "a"), vars.end());
  EXPECT_NE(std::find(vars.begin(), vars.end(), "b"), vars.end());
  EXPECT_NE(std::find(vars.begin(), vars.end(), "c"), vars.end());
  EXPECT_EQ(std::find(vars.begin(), vars.end(), "Alias"), vars.end());
}

// ----- hot-alloc -----

TEST(HotAlloc, FlagsNewInsideMarkedRegion) {
  auto fs = lint_source("a.cpp",
                        "// lmk-hot-path\n"
                        "void f() { int* p = new int(3); use(p); }\n"
                        "// lmk-hot-path-end\n");
  EXPECT_TRUE(has_rule(fs, "hot-alloc"));
}

TEST(HotAlloc, OutsideRegionIsFine) {
  auto fs =
      lint_source("a.cpp", "void f() { int* p = new int(3); use(p); }\n");
  EXPECT_FALSE(has_rule(fs, "hot-alloc"));
}

TEST(HotAlloc, PlacementNewAndIncludeAreExempt) {
  auto fs = lint_source("a.cpp",
                        "// lmk-hot-path\n"
                        "#include <new>\n"
                        "void f() { ::new (buf) D(std::move(v)); }\n"
                        "// lmk-hot-path-end\n");
  EXPECT_FALSE(has_rule(fs, "hot-alloc"));
}

TEST(HotAlloc, FlagsMakeUniqueAndStringConstruction) {
  auto fs = lint_source("a.cpp",
                        "// lmk-hot-path\n"
                        "void f() {\n"
                        "  auto p = std::make_unique<int>(3);\n"
                        "  std::string s = name();\n"
                        "}\n"
                        "// lmk-hot-path-end\n");
  auto rules = rules_of(fs);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "hot-alloc"), 2);
}

TEST(HotAlloc, StringViewAndReferencesAreFine) {
  auto fs = lint_source("a.cpp",
                        "// lmk-hot-path\n"
                        "void f(std::string_view name,\n"
                        "       const std::string& ref);\n"
                        "// lmk-hot-path-end\n");
  EXPECT_FALSE(has_rule(fs, "hot-alloc"));
}

TEST(HotAlloc, UnreservedGrowthFlaggedReservedGrowthFine) {
  auto fs = lint_source("a.cpp",
                        "// lmk-hot-path\n"
                        "void f() { xs.push_back(1); }\n"
                        "// lmk-hot-path-end\n");
  EXPECT_TRUE(has_rule(fs, "hot-alloc"));
  auto ok = lint_source("a.cpp",
                        "void setup() { xs.reserve(100); }\n"
                        "// lmk-hot-path\n"
                        "void f() { xs.push_back(1); }\n"
                        "// lmk-hot-path-end\n");
  EXPECT_FALSE(has_rule(ok, "hot-alloc"));
}

TEST(HotAlloc, CompanionHeaderReserveIsSeen) {
  FileOptions opts;
  opts.companion_decls = "void init() { xs.reserve(64); }\n";
  auto fs = lint_source("a.cpp",
                        "// lmk-hot-path\n"
                        "void f() { xs.push_back(1); }\n"
                        "// lmk-hot-path-end\n",
                        opts);
  EXPECT_FALSE(has_rule(fs, "hot-alloc"));
}

TEST(HotAlloc, CuratedHotFileNeedsNoMarkers) {
  FileOptions opts;
  opts.hot_path = true;
  auto fs = lint_source(
      "a.cpp", "void f() { int* p = new int(3); use(p); }\n", opts);
  EXPECT_TRUE(has_rule(fs, "hot-alloc"));
}

TEST(HotAlloc, AllowCommentSuppresses) {
  auto fs = lint_source("a.cpp",
                        "// lmk-hot-path\n"
                        "void f() {\n"
                        "  // lmk-lint: allow(hot-alloc) capacity warmup\n"
                        "  xs.push_back(1);\n"
                        "}\n"
                        "// lmk-hot-path-end\n");
  EXPECT_FALSE(has_rule(fs, "hot-alloc"));
}

// ----- hot-std-function -----

TEST(HotStdFunction, FlagsConstructionInHotRegion) {
  auto fs = lint_source("a.cpp",
                        "// lmk-hot-path\n"
                        "void f() { std::function<void()> cb = g(); }\n"
                        "// lmk-hot-path-end\n");
  EXPECT_TRUE(has_rule(fs, "hot-std-function"));
}

TEST(HotStdFunction, ConstRefParameterIsFine) {
  auto fs = lint_source("a.cpp",
                        "// lmk-hot-path\n"
                        "void run(const std::function<void()>& cb);\n"
                        "// lmk-hot-path-end\n");
  EXPECT_FALSE(has_rule(fs, "hot-std-function"));
}

TEST(HotStdFunction, OutsideRegionIsFine) {
  auto fs = lint_source(
      "a.cpp", "void f() { std::function<void()> cb = g(); }\n");
  EXPECT_FALSE(has_rule(fs, "hot-std-function"));
}

TEST(HotStdFunction, AllowCommentSuppresses) {
  auto fs = lint_source(
      "a.cpp",
      "// lmk-hot-path\n"
      "// lmk-lint: allow(hot-std-function) install-time only\n"
      "using Hook = std::function<void(int)>;\n"
      "// lmk-hot-path-end\n");
  EXPECT_FALSE(has_rule(fs, "hot-std-function"));
}

// ----- arena-escape -----

TEST(ArenaEscape, FlagsStoredEntryViews) {
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp", "std::vector<EntryView> views;\n"),
      "arena-escape"));
  EXPECT_TRUE(has_rule(
      lint_source("a.cpp", "class C { EntryView cached_; };\n"),
      "arena-escape"));
  EXPECT_FALSE(has_rule(
      lint_source("a.cpp", "void f() { EntryView v = store[i]; use(v); }\n"),
      "arena-escape"));
}

TEST(ArenaEscape, AllowCommentSuppresses) {
  auto fs = lint_source(
      "a.cpp",
      "// lmk-lint: allow(arena-escape) consumed before any mutation\n"
      "class C { EntryView cached_; };\n");
  EXPECT_FALSE(has_rule(fs, "arena-escape"));
}

// ----- handler discipline: cross-node-touch -----

TEST(CrossNodeTouch, FlagsOracleCallInMarkedHandlerRegion) {
  auto fs = lint_source("a.cpp",
                        "// lmk-handler\n"
                        "void on_query() { ChordNode* s = "
                        "ring_.oracle_successor(id); }\n"
                        "// lmk-handler-end\n");
  ASSERT_TRUE(has_rule(fs, "cross-node-touch"));
  EXPECT_EQ(fs[0].line, 2);
}

TEST(CrossNodeTouch, OutsideRegionIsFine) {
  auto fs = lint_source(
      "a.cpp",
      "void driver() { ChordNode* s = ring_.oracle_successor(id); }\n");
  EXPECT_FALSE(has_rule(fs, "cross-node-touch"));
}

TEST(CrossNodeTouch, CuratedHandlerFileNeedsNoMarkers) {
  FileOptions opts;
  opts.handler_file = true;
  auto fs = lint_source(
      "a.cpp", "void on_query() { ring_.refresh_all_fingers(); }\n", opts);
  EXPECT_TRUE(has_rule(fs, "cross-node-touch"));
}

TEST(CrossNodeTouch, DeclarationIsNotACall) {
  FileOptions opts;
  opts.handler_file = true;
  // A member named after an oracle token, without a call, is fine.
  auto fs = lint_source("a.cpp", "int fix_fingers = 0;\n", opts);
  EXPECT_FALSE(has_rule(fs, "cross-node-touch"));
}

TEST(CrossNodeTouch, AllowCommentSuppresses) {
  FileOptions opts;
  opts.handler_file = true;
  auto fs = lint_source(
      "a.cpp",
      "// lmk-lint: allow(cross-node-touch) modeled control plane\n"
      "ChordNode* s = ring_.oracle_successor(id);\n",
      opts);
  EXPECT_FALSE(has_rule(fs, "cross-node-touch"));
}

// ----- handler discipline: unforked-rng -----

TEST(UnforkedRng, FlagsSharedMemberStreamDraw) {
  auto fs = lint_source("a.cpp",
                        "// lmk-handler\n"
                        "void on_probe() { std::size_t i = "
                        "rng_.below(peers.size()); }\n"
                        "// lmk-handler-end\n");
  EXPECT_TRUE(has_rule(fs, "unforked-rng"));
}

TEST(UnforkedRng, ForkedLocalStreamIsFine) {
  // fork() is the sanctioned pattern, and draws on the resulting local
  // (no trailing underscore) are not shared state.
  auto fs = lint_source("a.cpp",
                        "// lmk-handler\n"
                        "void on_probe() {\n"
                        "  Rng local = rng_.fork();\n"
                        "  std::size_t i = local.below(n);\n"
                        "}\n"
                        "// lmk-handler-end\n");
  EXPECT_FALSE(has_rule(fs, "unforked-rng"));
}

TEST(UnforkedRng, NonRngReceiverIsFine) {
  // queue_.next() ends in '_' but the receiver is not an rng.
  auto fs = lint_source("a.cpp",
                        "// lmk-handler\n"
                        "void on_tick() { Event e = queue_.next(); }\n"
                        "// lmk-handler-end\n");
  EXPECT_FALSE(has_rule(fs, "unforked-rng"));
}

TEST(UnforkedRng, OutsideRegionIsFine) {
  auto fs = lint_source(
      "a.cpp", "void setup() { std::size_t i = rng_.below(n); }\n");
  EXPECT_FALSE(has_rule(fs, "unforked-rng"));
}

TEST(UnforkedRng, AllowCommentSuppresses) {
  FileOptions opts;
  opts.handler_file = true;
  auto fs = lint_source(
      "a.cpp",
      "// lmk-lint: allow(unforked-rng) single-threaded setup path\n"
      "std::size_t i = query_rng_.below(n);\n",
      opts);
  EXPECT_FALSE(has_rule(fs, "unforked-rng"));
}

// ----- handler discipline: raw-schedule -----

TEST(RawSchedule, FlagsScheduleInsideHandler) {
  auto fs = lint_source("a.cpp",
                        "// lmk-handler\n"
                        "void on_msg() { sim_.schedule_after(d, cb); }\n"
                        "// lmk-handler-end\n");
  EXPECT_TRUE(has_rule(fs, "raw-schedule"));
  auto gs = lint_source("a.cpp",
                        "// lmk-handler\n"
                        "void on_msg() { sim_.schedule_at(t, cb); }\n"
                        "// lmk-handler-end\n");
  EXPECT_TRUE(has_rule(gs, "raw-schedule"));
}

TEST(RawSchedule, DriverCodeOutsideRegionIsFine) {
  auto fs = lint_source(
      "a.cpp", "void run_rounds() { sim_.schedule_after(d, cb); }\n");
  EXPECT_FALSE(has_rule(fs, "raw-schedule"));
}

TEST(RawSchedule, AllowCommentSuppresses) {
  FileOptions opts;
  opts.handler_file = true;
  auto fs = lint_source(
      "a.cpp",
      "// lmk-lint: allow(raw-schedule) node-local retransmit timer\n"
      "sim_.schedule_after(d, cb);\n",
      opts);
  EXPECT_FALSE(has_rule(fs, "raw-schedule"));
}

// ----- lint-module exemption -----

TEST(LintModule, MarkerMentionsDoNotOpenRegions) {
  // The lint's own sources mention the marker strings in comments and
  // doc text; without the exemption those would open phantom regions
  // and flag the quoted token catalogues.
  FileOptions opts;
  opts.lint_module = true;
  auto fs = lint_source("a.cpp",
                        "// Regions open with lmk-handler markers.\n"
                        "void scan() { sim_.schedule_after(d, cb); }\n"
                        "// lmk-hot-path is the other marker.\n"
                        "void f() { auto* p = new int[8]; }\n",
                        opts);
  EXPECT_FALSE(has_rule(fs, "raw-schedule"));
  EXPECT_FALSE(has_rule(fs, "hot-alloc"));
}

// ----- --stats plumbing -----

TEST(LintStats, AccumulatesPerRuleTiming) {
  LintStats stats;
  auto fs = lint_source("a.cpp", "void f() { g(); }\n", FileOptions{},
                        &stats);
  EXPECT_TRUE(fs.empty());
  ASSERT_FALSE(stats.rule_seconds.empty());
  // The shared single-pass tokenization is timed first, then each rule
  // family in run order.
  EXPECT_EQ(stats.rule_seconds.front().first, "scan-index");
  bool has_hot_alloc = false;
  for (const auto& [name, secs] : stats.rule_seconds) {
    if (name == "hot-alloc") has_hot_alloc = true;
    EXPECT_GE(secs, 0.0);
  }
  EXPECT_TRUE(has_hot_alloc);
}

}  // namespace
}  // namespace lmk::lint
