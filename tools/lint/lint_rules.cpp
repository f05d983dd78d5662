#include "lint_rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <memory>
#include <span>

namespace lmk::lint {

namespace {

[[nodiscard]] bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] std::size_t skip_ws(std::string_view s, std::size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i;
}

// ---------------------------------------------------------------------
// Single-pass scan index. The file is tokenized exactly once; every
// rule family then iterates only the recorded positions of its own
// tokens instead of re-searching the full text (the old scheme ran ~30
// full-text find loops per file). Line starts are recorded in the same
// pass so line_of() is a binary search, not a count.
// ---------------------------------------------------------------------

/// Every identifier token any rule cares about, sorted (ASCII) for
/// binary search. Adding a rule means adding its tokens here.
constexpr std::array<std::string_view, 55> kIndexedTokens = {
    "EntryView",     "_Exit",          "abort",
    "alive_count",   "alive_nodes",    "below",
    "bootstrap",     "clock_gettime",  "default_random_engine",
    "emplace",       "emplace_back",   "exit",
    "exponential",   "fix_fingers",    "fix_neighbors",
    "for",           "function",       "getrandom",
    "gettimeofday",  "gmtime",
    "high_resolution_clock",           "localtime",
    "make_shared",   "make_unique",    "map",
    "minstd_rand",   "mt19937",        "mt19937_64",
    "new",           "next",           "normal",
    "oracle_predecessor",              "oracle_successor",
    "push_back",     "quick_exit",     "rand",
    "random_device", "refresh_all_fingers",
    "reserve",       "sample_indices", "schedule_after",
    "schedule_at",   "set",            "shuffle",
    "srand",         "static",         "steady_clock",
    "string",        "system_clock",   "thread_local",
    "time",          "timespec_get",   "uniform",
    "unordered_map", "unordered_set",
};

class ScanIndex {
 public:
  explicit ScanIndex(std::string_view stripped) {
    line_starts_.push_back(0);
    for (std::size_t i = 0; i < stripped.size(); ++i) {
      if (stripped[i] == '\n') line_starts_.push_back(i + 1);
    }
    std::size_t i = 0;
    while (i < stripped.size()) {
      if (!is_ident_char(stripped[i])) {
        ++i;
        continue;
      }
      std::size_t begin = i;
      while (i < stripped.size() && is_ident_char(stripped[i])) ++i;
      std::string_view tok = stripped.substr(begin, i - begin);
      auto it =
          std::lower_bound(kIndexedTokens.begin(), kIndexedTokens.end(), tok);
      if (it != kIndexedTokens.end() && *it == tok) {
        by_token_[static_cast<std::size_t>(it - kIndexedTokens.begin())]
            .push_back(begin);
      }
    }
  }

  /// 1-based line number of byte offset `pos` (raw and stripped text
  /// share line structure: stripping replaces bytes 1:1, keeping '\n').
  [[nodiscard]] int line_of(std::size_t pos) const {
    auto it =
        std::upper_bound(line_starts_.begin(), line_starts_.end(), pos);
    return static_cast<int>(it - line_starts_.begin());
  }

  /// All positions of `token` (as a whole identifier), in file order.
  [[nodiscard]] std::span<const std::size_t> positions(
      std::string_view token) const {
    auto it = std::lower_bound(kIndexedTokens.begin(), kIndexedTokens.end(),
                               token);
    if (it == kIndexedTokens.end() || *it != token) return {};
    return by_token_[static_cast<std::size_t>(it - kIndexedTokens.begin())];
  }

 private:
  std::vector<std::size_t> line_starts_;
  std::array<std::vector<std::size_t>, kIndexedTokens.size()> by_token_;
};

/// The line (1-based) each raw-text suppression comment covers: the
/// comment's own line and the next, so it can sit above the flagged
/// statement or trail it.
struct Suppressions {
  std::vector<int> iteration_ok;              // iteration-order-independent
  std::vector<std::pair<int, std::string>> allow;  // allow(<rule>)
};

[[nodiscard]] Suppressions collect_suppressions(std::string_view raw,
                                                const ScanIndex& idx) {
  Suppressions out;
  static constexpr std::string_view kTag = "lmk-lint:";
  std::size_t pos = 0;
  while ((pos = raw.find(kTag, pos)) != std::string_view::npos) {
    std::size_t after = skip_ws(raw, pos + kTag.size());
    int line = idx.line_of(pos);
    static constexpr std::string_view kIter = "iteration-order-independent";
    static constexpr std::string_view kAllow = "allow(";
    if (raw.compare(after, kIter.size(), kIter) == 0) {
      out.iteration_ok.push_back(line);
    } else if (raw.compare(after, kAllow.size(), kAllow) == 0) {
      std::size_t start = after + kAllow.size();
      std::size_t close = raw.find(')', start);
      if (close != std::string_view::npos) {
        out.allow.emplace_back(line,
                               std::string(raw.substr(start, close - start)));
      }
    }
    pos = after;
  }
  return out;
}

[[nodiscard]] bool iteration_suppressed(const Suppressions& sup, int line) {
  return std::any_of(sup.iteration_ok.begin(), sup.iteration_ok.end(),
                     [line](int l) { return l == line || l + 1 == line; });
}

[[nodiscard]] bool allowed(const Suppressions& sup, int line,
                           std::string_view rule) {
  return std::any_of(sup.allow.begin(), sup.allow.end(),
                     [line, rule](const auto& a) {
                       return (a.first == line || a.first + 1 == line) &&
                              a.second == rule;
                     });
}

/// Find `token` as a whole identifier (no identifier char on either
/// side), starting at `from`. npos when absent. Used for names not in
/// the fixed index (loop variables, companion-header text).
[[nodiscard]] std::size_t find_token(std::string_view text,
                                     std::string_view token,
                                     std::size_t from) {
  std::size_t pos = from;
  while ((pos = text.find(token, pos)) != std::string_view::npos) {
    bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    std::size_t end = pos + token.size();
    bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string_view::npos;
}

/// Skip a balanced <...> starting at the '<' at `i`; returns the index
/// one past the matching '>'. npos when unbalanced.
[[nodiscard]] std::size_t skip_angles(std::string_view s, std::size_t i) {
  int depth = 0;
  for (; i < s.size(); ++i) {
    if (s[i] == '<') {
      ++depth;
    } else if (s[i] == '>') {
      if (--depth == 0) return i + 1;
    } else if (s[i] == ';' || s[i] == '{') {
      break;  // a declaration never crosses these at angle depth > 0
    }
  }
  return std::string_view::npos;
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// True when `expr` (a trimmed range expression) iterates variable
/// `var` directly: `var`, `var.begin()`, or `var.cbegin()`.
[[nodiscard]] bool iterates_var(std::string_view expr, std::string_view var) {
  if (expr == var) return true;
  if (expr.substr(0, var.size()) != var) return false;
  std::string_view rest = expr.substr(var.size());
  return rest == ".begin()" || rest == ".cbegin()";
}

/// True when the token at `pos` is a member access (preceded by `.` or
/// `->`), so free-function rules skip it.
[[nodiscard]] bool is_member_access(std::string_view s, std::size_t pos) {
  return pos >= 1 && (s[pos - 1] == '.' ||
                      (pos >= 2 && s[pos - 2] == '-' && s[pos - 1] == '>'));
}

/// Receiver variable of a member call at `tok_pos` (the position of the
/// method name): the identifier before the `.` / `->`, looking through
/// one trailing `[...]` / `(...)` group (`stores_[n].entries.x` yields
/// "entries"; `table_[k].x` yields "table_"). Empty when there is none.
[[nodiscard]] std::string_view member_receiver(std::string_view s,
                                               std::size_t tok_pos) {
  std::size_t i = tok_pos;
  if (i >= 1 && s[i - 1] == '.') {
    i -= 1;
  } else if (i >= 2 && s[i - 2] == '-' && s[i - 1] == '>') {
    i -= 2;
  } else {
    return {};
  }
  while (i > 0 && std::isspace(static_cast<unsigned char>(s[i - 1])) != 0) {
    --i;
  }
  if (i > 0 && (s[i - 1] == ']' || s[i - 1] == ')')) {
    char close = s[i - 1];
    char open = close == ']' ? '[' : '(';
    int depth = 0;
    while (i > 0) {
      --i;
      if (s[i] == close) ++depth;
      if (s[i] == open && --depth == 0) break;
    }
  }
  std::size_t end = i;
  while (i > 0 && is_ident_char(s[i - 1])) --i;
  return s.substr(i, end - i);
}

/// Marked region byte ranges: marker comments `// <mark>` ...
/// `// <mark>-end` in the raw text (markers live in comments, so the
/// raw, unstripped text is scanned). An unclosed region runs to end of
/// file; `whole_file` covers the whole file (the driver's curated
/// lists). Shared by the hot-path (`lmk-hot-path`) and handler
/// (`lmk-handler`) region families.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
collect_marked_regions(std::string_view raw, std::string_view mark,
                       bool whole_file) {
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  if (whole_file) {
    regions.emplace_back(0, raw.size());
    return regions;
  }
  std::size_t pos = 0;
  std::size_t open = std::string_view::npos;
  while ((pos = raw.find(mark, pos)) != std::string_view::npos) {
    std::size_t after = pos + mark.size();
    if (raw.compare(after, 4, "-end") == 0) {
      if (open != std::string_view::npos) {
        regions.emplace_back(open, pos);
        open = std::string_view::npos;
      }
      pos = after + 4;
    } else {
      if (open == std::string_view::npos) open = pos;
      pos = after;
    }
  }
  if (open != std::string_view::npos) regions.emplace_back(open, raw.size());
  return regions;
}

[[nodiscard]] bool in_region(
    const std::vector<std::pair<std::size_t, std::size_t>>& regions,
    std::size_t pos) {
  return std::any_of(regions.begin(), regions.end(), [pos](const auto& r) {
    return r.first <= pos && pos < r.second;
  });
}

/// Everything one rule family needs, assembled once per file.
struct Ctx {
  std::string_view path;
  std::string_view stripped;
  std::string_view raw;
  const FileOptions* opts = nullptr;
  const ScanIndex* idx = nullptr;
  const Suppressions* sup = nullptr;
  std::vector<std::pair<std::size_t, std::size_t>> hot;
  std::vector<std::pair<std::size_t, std::size_t>> handler;
  std::vector<Finding>* findings = nullptr;

  void report(std::size_t pos, std::string_view rule,
              std::string message) const {
    int line = idx->line_of(pos);
    if (allowed(*sup, line, rule)) return;
    findings->push_back(Finding{std::string(path), line, std::string(rule),
                                std::move(message)});
  }
};

// --- banned-source: environment-seeded randomness ---
void rule_banned_source(const Ctx& ctx) {
  if (ctx.opts->rng_module) return;
  // Tokens banned anywhere they appear (even in the bench harness).
  static constexpr std::array<std::string_view, 6> kPlain = {
      "random_device", "mt19937",     "mt19937_64",
      "minstd_rand",   "default_random_engine", "getrandom"};
  for (std::string_view tok : kPlain) {
    for (std::size_t pos : ctx.idx->positions(tok)) {
      ctx.report(pos, "banned-source",
                 "'" + std::string(tok) +
                     "' is a nondeterministic source; all randomness "
                     "must flow from the seeded lmk::Rng "
                     "(src/common/rng)");
    }
  }
  // Tokens banned only as calls: name followed by '('.
  static constexpr std::array<std::string_view, 5> kCalls = {
      "rand", "srand", "time", "localtime", "gmtime"};
  for (std::string_view tok : kCalls) {
    if (ctx.opts->bench && tok == "time") continue;
    for (std::size_t pos : ctx.idx->positions(tok)) {
      std::size_t after = skip_ws(ctx.stripped, pos + tok.size());
      if (!is_member_access(ctx.stripped, pos) &&
          after < ctx.stripped.size() && ctx.stripped[after] == '(') {
        ctx.report(pos, "banned-source",
                   "call to '" + std::string(tok) +
                       "()' reads wall-clock/global state; use the seeded "
                       "lmk::Rng or Simulator::now() instead");
      }
    }
  }
}

// --- wall-clock: real-time reads inside simulated code ---
// The simulator is the only clock; a wall-clock read inside src/
// couples behavior (timeouts, sampling, logging cadence) to host
// speed and breaks bit-identical replay. The bench harness measures
// throughput and is exempt; the rng module keeps its blanket
// exemption (it wraps host sources behind the seeded Rng).
void rule_wall_clock(const Ctx& ctx) {
  if (ctx.opts->rng_module || ctx.opts->bench || ctx.opts->lint_module) {
    return;  // the lint's own --stats harness times itself
  }
  static constexpr std::array<std::string_view, 6> kClockTokens = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "clock_gettime", "gettimeofday", "timespec_get"};
  for (std::string_view tok : kClockTokens) {
    for (std::size_t pos : ctx.idx->positions(tok)) {
      ctx.report(pos, "wall-clock",
                 "'" + std::string(tok) +
                     "' reads the host wall clock; simulated code must use "
                     "the virtual clock (Simulator::now())");
    }
  }
}

// --- banned-abort: process termination outside the check module ---
// Termination must route through LMK_CHECK / LMK_CHECK_MSG
// (src/common/check.hpp) so every fatal path prints expr/file/line
// diagnostics; a bare abort()/exit() dies silently mid-simulation.
void rule_banned_abort(const Ctx& ctx) {
  if (ctx.opts->check_module) return;
  static constexpr std::array<std::string_view, 4> kTerminators = {
      "abort", "exit", "_Exit", "quick_exit"};
  for (std::string_view tok : kTerminators) {
    for (std::size_t pos : ctx.idx->positions(tok)) {
      std::size_t after = skip_ws(ctx.stripped, pos + tok.size());
      if (!is_member_access(ctx.stripped, pos) &&
          after < ctx.stripped.size() && ctx.stripped[after] == '(') {
        ctx.report(pos, "banned-abort",
                   "call to '" + std::string(tok) +
                       "()' terminates the process without diagnostics; use "
                       "LMK_CHECK / LMK_CHECK_MSG (src/common/check.hpp), "
                       "the only module allowed to terminate");
      }
    }
  }
}

/// First template argument of the container token at `tok_pos` (must
/// carry a "std::" qualifier and an immediate '<'); empty view when the
/// site does not parse as a std:: container type.
[[nodiscard]] std::string_view first_template_arg(std::string_view s,
                                                  std::size_t tok_pos,
                                                  std::size_t tok_len) {
  if (tok_pos < 5 || s.substr(tok_pos - 5, 5) != "std::") return {};
  std::size_t i = skip_ws(s, tok_pos + tok_len);
  if (i >= s.size() || s[i] != '<') return {};
  int depth = 1;
  std::size_t arg_begin = ++i;
  while (i < s.size() && depth > 0) {
    char c = s[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      --depth;
    } else if (c == ',' && depth == 1) {
      break;
    }
    ++i;
  }
  return trim(s.substr(arg_begin, i - arg_begin));
}

// --- pointer-key / pointer-key-unordered: pointer-keyed containers ---
void rule_pointer_key(const Ctx& ctx) {
  for (std::string_view kw : {"map", "set"}) {
    for (std::size_t pos : ctx.idx->positions(kw)) {
      std::string_view first_arg =
          first_template_arg(ctx.stripped, pos, kw.size());
      if (first_arg.find('*') != std::string_view::npos) {
        ctx.report(pos, "pointer-key",
                   "std::" + std::string(kw) + " keyed by a pointer ('" +
                       std::string(first_arg) +
                       "'): comparison order is the allocation order of the "
                       "pointees, which varies run to run; key by a stable "
                       "id");
      }
    }
  }
  // Hash lookups keyed by pointer are deterministic, but any iteration
  // (or bucket walk) over such a container leaks allocation order into
  // visit order. Each declaration must carry a justification comment.
  for (std::string_view kw : {"unordered_map", "unordered_set"}) {
    for (std::size_t pos : ctx.idx->positions(kw)) {
      std::string_view first_arg =
          first_template_arg(ctx.stripped, pos, kw.size());
      if (first_arg.find('*') != std::string_view::npos) {
        ctx.report(pos, "pointer-key-unordered",
                   "std::" + std::string(kw) + " keyed by a pointer ('" +
                       std::string(first_arg) +
                       "'): lookups are deterministic but any iteration "
                       "leaks allocation order; key by a stable id where "
                       "walks exist, or justify a lookup-only container "
                       "with // lmk-lint: allow(pointer-key-unordered)");
      }
    }
  }
}

// --- mutable-global: hidden mutable state with static storage ---
// Sweep cells run concurrently on the thread pool; a mutable global
// (namespace-scope variable, static local, thread_local) is shared
// across cells, so an unsynchronized write races and even a guarded
// one can make a cell's output depend on which cells ran before it.
// Two scans: (1) `static` / `thread_local` declarations at any scope,
// (2) keywordless variable definitions at namespace scope (the common
// anonymous-namespace-global idiom carries no keyword at all).
// Known limits, same spirit as the container rules: constructor-call
// initializers (`Foo g(1);`) read as prototypes and are skipped, and
// `struct X { ... } g;` tail declarators are not traced.
void rule_mutable_global(const Ctx& ctx) {
  const std::string_view stripped = ctx.stripped;
  std::vector<int> flagged_lines;  // dedup `static thread_local` etc.
  auto report_mutable = [&](std::size_t pos, std::string_view what) {
    int line = ctx.idx->line_of(pos);
    if (std::find(flagged_lines.begin(), flagged_lines.end(), line) !=
        flagged_lines.end()) {
      return;
    }
    flagged_lines.push_back(line);
    ctx.report(pos, "mutable-global",
               std::string(what) +
                   ": mutable state with static storage duration is shared "
                   "across concurrently running sweep cells; make it "
                   "const/constexpr, move it into the cell's own stack, or "
                   "justify with // lmk-lint: allow(mutable-global)");
  };
  // Scan a declaration starting just after `from` (keyword or start of
  // statement). Returns true when it is a mutable variable: no
  // const-family qualifier and no '(' (functions, prototypes and
  // constructor-call initializers all stop at '(').
  auto mutable_decl = [&](std::size_t from) {
    bool has_const = false;
    std::size_t idents = 0;
    std::size_t i = from;
    while (i < stripped.size()) {
      i = skip_ws(stripped, i);
      if (i >= stripped.size()) break;
      char c = stripped[i];
      if (c == ';' || c == '=' || c == '{') break;
      if (c == '(') return false;
      if (c == '<') {
        std::size_t j = skip_angles(stripped, i);
        if (j == std::string_view::npos) return false;
        i = j;
        continue;
      }
      if (is_ident_char(c)) {
        std::size_t s = i;
        while (i < stripped.size() && is_ident_char(stripped[i])) ++i;
        std::string_view id = stripped.substr(s, i - s);
        if (id == "const" || id == "constexpr" || id == "constinit" ||
            id == "consteval") {
          has_const = true;
        } else if (id != "static" && id != "thread_local" &&
                   id != "inline" && id != "std") {
          ++idents;
        }
        continue;
      }
      ++i;  // :: & * [ ] , ...
    }
    // A variable needs at least a type and a name; `using X = ...;`
    // style aliases were already skipped by the caller.
    return !has_const && idents >= 2;
  };

  // (1) static / thread_local declarations, any scope.
  for (std::string_view kw : {"static", "thread_local"}) {
    for (std::size_t pos : ctx.idx->positions(kw)) {
      if (mutable_decl(pos + kw.size())) {
        report_mutable(pos, "'" + std::string(kw) +
                                "' variable is not const/constexpr");
      }
    }
  }

  // (2) keywordless definitions at namespace scope. Track brace
  // contexts: a '{' whose statement head starts with `namespace`
  // keeps us at namespace scope; every other '{' (class, function,
  // enum, initializer) enters a non-namespace region.
  std::vector<bool> ns_brace;
  std::size_t stmt_begin = 0;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    char c = stripped[i];
    if (c == '#') {
      // Preprocessor directive: consume to end of line (honoring
      // backslash continuations), then restart the statement, so
      // includes/conditionals never pollute the next head.
      while (i < stripped.size()) {
        std::size_t eol = stripped.find('\n', i);
        if (eol == std::string_view::npos) {
          i = stripped.size();
          break;
        }
        if (eol > 0 && stripped[eol - 1] == '\\') {
          i = eol + 1;
          continue;
        }
        i = eol;
        break;
      }
      stmt_begin = i + 1;
    } else if (c == '{') {
      std::string_view head =
          trim(stripped.substr(stmt_begin, i - stmt_begin));
      bool at_ns = std::all_of(ns_brace.begin(), ns_brace.end(),
                               [](bool b) { return b; });
      // The tokens immediately before the brace decide the context:
      // `namespace` or `namespace <ident>` opens a namespace.
      std::size_t tail = head.size();
      while (tail > 0 && is_ident_char(head[tail - 1])) --tail;
      std::string_view last = head.substr(tail);
      std::size_t prev_end = tail;
      while (prev_end > 0 &&
             std::isspace(static_cast<unsigned char>(head[prev_end - 1])) !=
                 0) {
        --prev_end;
      }
      std::size_t prev_begin = prev_end;
      while (prev_begin > 0 && is_ident_char(head[prev_begin - 1])) {
        --prev_begin;
      }
      std::string_view second_last =
          head.substr(prev_begin, prev_end - prev_begin);
      bool opens_ns = last == "namespace" || second_last == "namespace";
      if (at_ns && head.find('=') != std::string_view::npos) {
        // `Type name = {...};` initializer: consume the balanced
        // braces without entering a context, keep the statement open.
        int depth = 0;
        for (; i < stripped.size(); ++i) {
          if (stripped[i] == '{') ++depth;
          if (stripped[i] == '}' && --depth == 0) break;
        }
        continue;
      }
      ns_brace.push_back(opens_ns);
      stmt_begin = i + 1;
    } else if (c == '}') {
      if (!ns_brace.empty()) ns_brace.pop_back();
      stmt_begin = i + 1;
    } else if (c == ';') {
      // Inside at least one `namespace { ... }` and nothing else:
      // file-top fragments (no enclosing namespace) are not scanned,
      // matching the repo convention that all code lives in lmk::.
      bool at_ns = !ns_brace.empty() &&
                   std::all_of(ns_brace.begin(), ns_brace.end(),
                               [](bool b) { return b; });
      std::string_view head =
          trim(stripped.substr(stmt_begin, i - stmt_begin));
      if (at_ns && !head.empty()) {
        std::string_view first = head.substr(0, head.find_first_of(" \t\n"));
        bool skip = first == "using" || first == "typedef" ||
                    first == "static_assert" || first == "template" ||
                    first == "extern" || first == "friend" ||
                    first == "struct" || first == "class" ||
                    first == "union" || first == "enum" ||
                    first == "namespace" || first == "static" ||
                    first == "thread_local";  // scan (1) owns these
        std::size_t head_off = skip_ws(stripped, stmt_begin);
        if (!skip && mutable_decl(head_off)) {
          report_mutable(head_off,
                         "namespace-scope variable is not const/constexpr");
        }
      }
      stmt_begin = i + 1;
    }
  }
}

// --- unordered-iteration ---
void rule_unordered_iteration(const Ctx& ctx) {
  const std::string_view stripped = ctx.stripped;
  std::vector<std::string> unordered;
  for (std::string_view kw : {"unordered_map", "unordered_set"}) {
    for (std::size_t pos : ctx.idx->positions(kw)) {
      std::size_t i = skip_ws(stripped, pos + kw.size());
      if (i >= stripped.size() || stripped[i] != '<') continue;
      i = skip_angles(stripped, i);
      if (i == std::string_view::npos) continue;
      i = skip_ws(stripped, i);
      // Optional ref/pointer declarator.
      while (i < stripped.size() &&
             (stripped[i] == '&' || stripped[i] == '*')) {
        i = skip_ws(stripped, i + 1);
      }
      std::size_t start = i;
      while (i < stripped.size() && is_ident_char(stripped[i])) ++i;
      if (i == start) continue;  // e.g. `using X = unordered_map<...>;`
      std::string name(stripped.substr(start, i - start));
      i = skip_ws(stripped, i);
      // A declaration introduces the name before ; = { ( — anything
      // else (e.g. `unordered_map<K, V> const&` in a cast) is skipped.
      if (i < stripped.size() && (stripped[i] == ';' || stripped[i] == '=' ||
                                  stripped[i] == '{' || stripped[i] == '(')) {
        if (std::find(unordered.begin(), unordered.end(), name) ==
            unordered.end()) {
          unordered.push_back(std::move(name));
        }
      }
    }
  }
  if (!ctx.opts->companion_decls.empty()) {
    const std::string companion_stripped =
        strip_comments_and_strings(ctx.opts->companion_decls);
    for (std::string& name : collect_unordered_vars(companion_stripped)) {
      if (std::find(unordered.begin(), unordered.end(), name) ==
          unordered.end()) {
        unordered.push_back(std::move(name));
      }
    }
  }
  if (unordered.empty()) return;

  for (std::size_t for_pos : ctx.idx->positions("for")) {
    std::size_t open = skip_ws(stripped, for_pos + 3);
    if (open >= stripped.size() || stripped[open] != '(') continue;
    // Balanced-paren scan for the loop header.
    int depth = 0;
    std::size_t i = open;
    std::size_t close = std::string_view::npos;
    for (; i < stripped.size(); ++i) {
      if (stripped[i] == '(') {
        ++depth;
      } else if (stripped[i] == ')') {
        if (--depth == 0) {
          close = i;
          break;
        }
      } else if (stripped[i] == '{') {
        break;  // malformed / macro — bail out of this header
      }
    }
    if (close == std::string_view::npos) continue;
    std::string_view header = stripped.substr(open + 1, close - open - 1);

    // Range-for: a top-level ':' (not '::') and no ';'.
    if (header.find(';') != std::string_view::npos) {
      // Classic for — still flag `it = var.begin()` over unordered vars.
      for (const std::string& var : unordered) {
        std::size_t vp = find_token(header, var, 0);
        while (vp != std::string_view::npos) {
          std::string_view rest = header.substr(vp + var.size());
          if (rest.substr(0, 7) == ".begin(" ||
              rest.substr(0, 8) == ".cbegin(") {
            int line = ctx.idx->line_of(for_pos);
            if (!iteration_suppressed(*ctx.sup, line)) {
              ctx.report(for_pos, "unordered-iteration",
                         "iterator walk over unordered container '" + var +
                             "': iteration order is implementation-defined; "
                             "use an ordered container or justify with "
                             "// lmk-lint: iteration-order-independent");
            }
            break;
          }
          vp = find_token(header, var, vp + var.size());
        }
      }
      continue;
    }
    std::size_t colon = std::string_view::npos;
    int hdepth = 0;
    for (std::size_t h = 0; h < header.size(); ++h) {
      char c = header[h];
      if (c == '(' || c == '<' || c == '[') ++hdepth;
      if (c == ')' || c == '>' || c == ']') --hdepth;
      if (c == ':' && hdepth == 0) {
        bool dbl = (h + 1 < header.size() && header[h + 1] == ':') ||
                   (h > 0 && header[h - 1] == ':');
        if (!dbl) {
          colon = h;
          break;
        }
      }
    }
    if (colon == std::string_view::npos) continue;
    std::string_view range_expr = trim(header.substr(colon + 1));
    for (const std::string& var : unordered) {
      if (!iterates_var(range_expr, var)) continue;
      int line = ctx.idx->line_of(for_pos);
      if (!iteration_suppressed(*ctx.sup, line)) {
        ctx.report(for_pos, "unordered-iteration",
                   "range-for over unordered container '" + var +
                       "': iteration order is implementation-defined, so any "
                       "RNG draw, accumulation or ordered output it feeds "
                       "becomes run-dependent; use an ordered container or "
                       "justify with // lmk-lint: iteration-order-independent");
      }
      break;
    }
  }
}

// --- hot-alloc: owning heap allocation inside hot-path regions ---
// The engine steady-state contract is zero allocations per event
// (enforced dynamically for the event engine by the LMK_ALLOC_GUARD
// build's AllocGuard.EngineSteadyStateDispatchAllocatesNothing); this
// rule catches the sources at review time. Placement new is exempt (it
// binds storage the caller already owns); growth calls are exempt when
// the receiver has a reserve() call in the file or companion header
// (capacity warmup, amortizes to zero).
void rule_hot_alloc(const Ctx& ctx) {
  if (ctx.hot.empty()) return;
  const std::string_view stripped = ctx.stripped;

  for (std::size_t pos : ctx.idx->positions("new")) {
    if (!in_region(ctx.hot, pos)) continue;
    // `#include <new>`: the header name is not an expression.
    if (pos >= 1 && stripped[pos - 1] == '<') continue;
    std::size_t after = skip_ws(stripped, pos + 3);
    // Placement new: `new (buf) T(...)` — the '(' right after the
    // keyword is the placement argument list, not an allocation.
    if (after < stripped.size() && stripped[after] == '(') continue;
    ctx.report(pos, "hot-alloc",
               "'new' on a hot path is an owning heap allocation per "
               "call; use a recycle pool, preallocate, or "
               "justify with // lmk-lint: allow(hot-alloc)");
  }

  for (std::string_view tok : {"make_unique", "make_shared"}) {
    for (std::size_t pos : ctx.idx->positions(tok)) {
      if (!in_region(ctx.hot, pos)) continue;
      ctx.report(pos, "hot-alloc",
                 "'" + std::string(tok) +
                     "' on a hot path heap-allocates per call; use a "
                     "recycle pool, preallocate, or justify with "
                     "// lmk-lint: allow(hot-alloc)");
    }
  }

  // std::string construction (declaration or temporary). References,
  // pointers and template arguments do not construct and are skipped;
  // string_view is a different token and never matches.
  for (std::size_t pos : ctx.idx->positions("string")) {
    if (!in_region(ctx.hot, pos)) continue;
    if (pos < 5 || stripped.substr(pos - 5, 5) != "std::") continue;
    std::size_t after = skip_ws(stripped, pos + 6);
    if (after >= stripped.size()) continue;
    char c = stripped[after];
    if (!(is_ident_char(c) || c == '(' || c == '{')) continue;
    ctx.report(pos, "hot-alloc",
               "std::string constructed on a hot path owns heap storage; "
               "use std::string_view / a preallocated buffer, or justify "
               "with // lmk-lint: allow(hot-alloc)");
  }

  // Growth calls without a visible reserve() for the same receiver.
  std::vector<std::string_view> reserved;
  for (std::size_t pos : ctx.idx->positions("reserve")) {
    std::string_view recv = member_receiver(stripped, pos);
    if (!recv.empty()) reserved.push_back(recv);
  }
  std::string companion_stripped;
  if (!ctx.opts->companion_decls.empty()) {
    companion_stripped =
        strip_comments_and_strings(ctx.opts->companion_decls);
    std::size_t pos = 0;
    while ((pos = find_token(companion_stripped, "reserve", pos)) !=
           std::string_view::npos) {
      std::string_view recv = member_receiver(companion_stripped, pos);
      // Note: views into companion_stripped stay valid — it lives until
      // the end of this function and is not resized after this loop.
      if (!recv.empty()) reserved.push_back(recv);
      pos += 7;
    }
  }
  for (std::string_view tok : {"push_back", "emplace_back", "emplace"}) {
    for (std::size_t pos : ctx.idx->positions(tok)) {
      if (!in_region(ctx.hot, pos)) continue;
      std::size_t after = skip_ws(stripped, pos + tok.size());
      if (after >= stripped.size() || stripped[after] != '(') continue;
      std::string_view recv = member_receiver(stripped, pos);
      if (recv.empty()) continue;  // not a traceable member call
      if (std::find(reserved.begin(), reserved.end(), recv) !=
          reserved.end()) {
        continue;
      }
      ctx.report(pos, "hot-alloc",
                 "'" + std::string(recv) + "." + std::string(tok) +
                     "' on a hot path with no visible '" +
                     std::string(recv) +
                     ".reserve(...)': unreserved growth reallocates; "
                     "reserve capacity up front or justify with "
                     "// lmk-lint: allow(hot-alloc)");
    }
  }
}

// --- hot-std-function: type-erasing closures inside hot regions ---
void rule_hot_std_function(const Ctx& ctx) {
  if (ctx.hot.empty()) return;
  const std::string_view stripped = ctx.stripped;
  for (std::size_t pos : ctx.idx->positions("function")) {
    if (!in_region(ctx.hot, pos)) continue;
    if (pos < 5 || stripped.substr(pos - 5, 5) != "std::") continue;
    // `const std::function<...>&` parameters never construct — skip
    // when the declarator after the template arguments is a reference.
    std::size_t i = skip_ws(stripped, pos + 8);
    if (i < stripped.size() && stripped[i] == '<') {
      std::size_t j = skip_angles(stripped, i);
      if (j != std::string_view::npos) i = skip_ws(stripped, j);
    }
    if (i < stripped.size() && stripped[i] == '&') continue;
    ctx.report(pos, "hot-std-function",
               "std::function on a hot path type-erases through an "
               "owning (possibly heap-backed) closure per assignment; "
               "use EventClosure / a template parameter / a const& "
               "parameter, or justify with "
               "// lmk-lint: allow(hot-std-function)");
  }
}

// --- arena-escape: entry views outliving their statement ---
// Applies file-wide (a stored view is a stale read wherever it
// happens).
void rule_arena_escape(const Ctx& ctx) {
  const std::string_view stripped = ctx.stripped;

  // EntryView stored beyond a single expression: member declarations
  // (`EntryView foo_;` / `EntryView foo_ = ...`) and container elements
  // (`vector<EntryView>`, `pair<..., EntryView>`). Any EntryStore
  // mutation invalidates the view's point span.
  for (std::size_t pos : ctx.idx->positions("EntryView")) {
    std::size_t before = pos;
    while (before > 0 &&
           std::isspace(static_cast<unsigned char>(stripped[before - 1])) !=
               0) {
      --before;
    }
    if (before > 0 && (stripped[before - 1] == '<' ||
                       stripped[before - 1] == ',')) {
      ctx.report(pos, "arena-escape",
                 "container of EntryView: the views' point spans are "
                 "invalidated by any mutation of the backing EntryStore; "
                 "store (key, object, owned point) instead, or justify "
                 "with // lmk-lint: allow(arena-escape)");
      continue;
    }
    std::size_t i = skip_ws(stripped, pos + 9);
    std::size_t name_begin = i;
    while (i < stripped.size() && is_ident_char(stripped[i])) ++i;
    if (i == name_begin) continue;
    std::string_view name = stripped.substr(name_begin, i - name_begin);
    std::size_t after_name = skip_ws(stripped, i);
    bool is_decl = after_name < stripped.size() &&
                   (stripped[after_name] == ';' ||
                    stripped[after_name] == '=' ||
                    stripped[after_name] == '{');
    if (is_decl && !name.empty() && name.back() == '_') {
      ctx.report(pos, "arena-escape",
                 "EntryView stored in member '" + std::string(name) +
                     "' outlives the statement that created it; any "
                     "EntryStore mutation invalidates its point span — "
                     "store (key, object, owned point) instead, or "
                     "justify with // lmk-lint: allow(arena-escape)");
    }
  }
}

// --- handler discipline: cross-node-touch / unforked-rng /
// --- raw-schedule (the lmk-sched gate's static half) ---
// The fault-exploration gate (src/audit/explorer.*) can only perturb
// what flows through Network::send. Code running inside a message
// delivery must therefore look like a real peer: learn about other
// nodes from messages, derive randomness from a node-local forked
// stream, and cause remote effects only by sending. These rules police
// the handler regions the driver curates (see lint_rules.hpp).

void rule_cross_node_touch(const Ctx& ctx) {
  if (ctx.handler.empty()) return;
  // Ring-oracle entry points: each reads or repairs global membership
  // state no single node could observe.
  static constexpr std::array<std::string_view, 8> kOracle = {
      "alive_count",        "alive_nodes",  "bootstrap",
      "fix_fingers",        "fix_neighbors", "oracle_predecessor",
      "oracle_successor",   "refresh_all_fingers"};
  for (std::string_view tok : kOracle) {
    for (std::size_t pos : ctx.idx->positions(tok)) {
      if (!in_region(ctx.handler, pos)) continue;
      std::size_t after = skip_ws(ctx.stripped, pos + tok.size());
      if (after >= ctx.stripped.size() || ctx.stripped[after] != '(') {
        continue;  // declaration / doc reference, not a call
      }
      ctx.report(pos, "cross-node-touch",
                 "'" + std::string(tok) +
                     "' inside a message handler reads or repairs global "
                     "ring state no real node can see, and the lmk-sched "
                     "fault explorer cannot perturb it; route the "
                     "information through messages (Network::send / "
                     "Ring::rpc), or justify an explicitly modeled "
                     "out-of-band control plane with "
                     "// lmk-lint: allow(cross-node-touch)");
    }
  }
}

void rule_unforked_rng(const Ctx& ctx) {
  if (ctx.handler.empty()) return;
  // Draw methods of lmk::Rng. fork() is deliberately absent: forking a
  // node-local stream is the sanctioned pattern.
  static constexpr std::array<std::string_view, 7> kDraws = {
      "below",   "exponential",    "next",   "normal",
      "shuffle", "sample_indices", "uniform"};
  for (std::string_view tok : kDraws) {
    for (std::size_t pos : ctx.idx->positions(tok)) {
      if (!in_region(ctx.handler, pos)) continue;
      std::size_t after = skip_ws(ctx.stripped, pos + tok.size());
      if (after >= ctx.stripped.size() || ctx.stripped[after] != '(') {
        continue;
      }
      std::string_view recv = member_receiver(ctx.stripped, pos);
      // Shared stream = a member (trailing-underscore convention) whose
      // name says it is an rng. Locals (typically fork()ed per node or
      // per task) are fine.
      if (recv.empty() || recv.back() != '_' ||
          recv.find("rng") == std::string_view::npos) {
        continue;
      }
      ctx.report(pos, "unforked-rng",
                 "'" + std::string(recv) + "." + std::string(tok) +
                     "' inside a message handler draws from a shared Rng "
                     "stream, so the value depends on the delivery order "
                     "of every earlier handler; fork() a node-local "
                     "stream at setup and draw from that, or justify "
                     "with // lmk-lint: allow(unforked-rng)");
    }
  }
}

void rule_raw_schedule(const Ctx& ctx) {
  if (ctx.handler.empty()) return;
  for (std::string_view tok : {"schedule_after", "schedule_at"}) {
    for (std::size_t pos : ctx.idx->positions(tok)) {
      if (!in_region(ctx.handler, pos)) continue;
      std::size_t after = skip_ws(ctx.stripped, pos + tok.size());
      if (after >= ctx.stripped.size() || ctx.stripped[after] != '(') {
        continue;
      }
      ctx.report(pos, "raw-schedule",
                 "'" + std::string(tok) +
                     "' inside a message handler bypasses Network::send: "
                     "no latency model applies and the lmk-sched fault "
                     "injector can never drop, delay or reorder the "
                     "event; send a message for inter-node effects, or "
                     "justify a node-local timer with "
                     "// lmk-lint: allow(raw-schedule)");
    }
  }
}

}  // namespace

void LintStats::add(std::string_view rule, double seconds) {
  for (auto& [name, total] : rule_seconds) {
    if (name == rule) {
      total += seconds;
      return;
    }
  }
  rule_seconds.emplace_back(std::string(rule), seconds);
}

std::string strip_comments_and_strings(std::string_view src) {
  std::string out(src);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State st = State::kCode;
  for (std::size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          st = State::kString;
          out[i] = ' ';
        } else if (c == '\'' && (i == 0 || !is_ident_char(src[i - 1]))) {
          // Identifier-adjacent quotes are digit separators (1'000'000).
          st = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          st = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        char quote = st == State::kString ? '"' : '\'';
        if (c == '\\' && i + 1 < src.size()) {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == quote) {
          out[i] = ' ';
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> collect_unordered_vars(std::string_view stripped) {
  std::vector<std::string> vars;
  for (std::string_view kw : {"unordered_map", "unordered_set"}) {
    std::size_t pos = 0;
    while ((pos = find_token(stripped, kw, pos)) != std::string_view::npos) {
      std::size_t i = skip_ws(stripped, pos + kw.size());
      pos += kw.size();
      if (i >= stripped.size() || stripped[i] != '<') continue;
      i = skip_angles(stripped, i);
      if (i == std::string_view::npos) continue;
      i = skip_ws(stripped, i);
      // Optional ref/pointer declarator.
      while (i < stripped.size() &&
             (stripped[i] == '&' || stripped[i] == '*')) {
        i = skip_ws(stripped, i + 1);
      }
      std::size_t start = i;
      while (i < stripped.size() && is_ident_char(stripped[i])) ++i;
      if (i == start) continue;  // e.g. `using X = unordered_map<...>;`
      std::string name(stripped.substr(start, i - start));
      i = skip_ws(stripped, i);
      // A declaration introduces the name before ; = { ( — anything
      // else (e.g. `unordered_map<K, V> const&` in a cast) is skipped.
      if (i < stripped.size() && (stripped[i] == ';' || stripped[i] == '=' ||
                                  stripped[i] == '{' || stripped[i] == '(')) {
        if (std::find(vars.begin(), vars.end(), name) == vars.end()) {
          vars.push_back(name);
        }
      }
    }
  }
  return vars;
}

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view content,
                                 const FileOptions& opts, LintStats* stats) {
  std::vector<Finding> findings;
  const auto timed = [&](std::string_view name, auto&& body) {
    if (stats == nullptr) {
      body();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    body();
    stats->add(name, std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  };

  std::string stripped_storage;
  std::unique_ptr<ScanIndex> idx;
  timed("scan-index", [&] {
    stripped_storage = strip_comments_and_strings(content);
    idx = std::make_unique<ScanIndex>(stripped_storage);
  });
  const Suppressions sup = collect_suppressions(content, *idx);

  Ctx ctx;
  ctx.path = path;
  ctx.stripped = stripped_storage;
  ctx.raw = content;
  ctx.opts = &opts;
  ctx.idx = idx.get();
  ctx.sup = &sup;
  // The lint module's own sources quote the marker strings they scan
  // for, so region collection there would open phantom regions.
  if (!opts.lint_module) {
    ctx.hot = collect_marked_regions(content, "lmk-hot-path", opts.hot_path);
    ctx.handler =
        collect_marked_regions(content, "lmk-handler", opts.handler_file);
  }
  ctx.findings = &findings;

  timed("banned-source", [&] { rule_banned_source(ctx); });
  timed("wall-clock", [&] { rule_wall_clock(ctx); });
  timed("banned-abort", [&] { rule_banned_abort(ctx); });
  timed("pointer-key", [&] { rule_pointer_key(ctx); });
  timed("mutable-global", [&] { rule_mutable_global(ctx); });
  timed("unordered-iteration", [&] { rule_unordered_iteration(ctx); });
  timed("hot-alloc", [&] { rule_hot_alloc(ctx); });
  timed("hot-std-function", [&] { rule_hot_std_function(ctx); });
  timed("arena-escape", [&] { rule_arena_escape(ctx); });
  timed("cross-node-touch", [&] { rule_cross_node_touch(ctx); });
  timed("unforked-rng", [&] { rule_unforked_rng(ctx); });
  timed("raw-schedule", [&] { rule_raw_schedule(ctx); });

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
  return findings;
}

}  // namespace lmk::lint
