// lmk-lint driver: walks source trees (or the files named by a
// compile_commands.json) and applies the determinism rules in
// lint_rules.hpp. Exit status 0 = clean, 1 = findings, 2 = usage/IO
// error.
//
// Usage:
//   lmk-lint <dir-or-file>...            # file walk
//   lmk-lint --compdb build/compile_commands.json [<filter-prefix>...]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint_rules.hpp"

namespace fs = std::filesystem;

namespace {

bool is_source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh";
}

lmk::lint::FileOptions options_for(const std::string& path) {
  lmk::lint::FileOptions opts;
  opts.rng_module = path.find("common/rng") != std::string::npos;
  opts.bench = path.find("bench/") != std::string::npos ||
               path.rfind("bench_", 0) == 0;
  opts.check_module = path.find("common/check.hpp") != std::string::npos;
  // Curated whole-file hot-path list: the event engine loop, closure
  // dispatch and the simulator drive every event — the allocation rules
  // apply to every line. Other files opt regions in with
  // `// lmk-hot-path` markers (e.g. on_solve in index_platform.cpp).
  for (const char* hot : {"sim/event_queue", "sim/event_closure",
                          "sim/simulator"}) {
    if (path.find(hot) != std::string::npos) opts.hot_path = true;
  }
  // Curated whole-file handler list: every line of the query routers
  // and the load balancer runs inside (or directly feeds) message
  // deliveries, so the handler-discipline rules apply throughout. The
  // Chord ring opts its protocol section in with `// lmk-handler`
  // markers instead (its oracle half IS the god's-eye repair code the
  // rules protect against).
  for (const char* handler : {"routing/router", "routing/naive",
                              "balance/migration"}) {
    if (path.find(handler) != std::string::npos) opts.handler_file = true;
  }
  // The lint's own sources quote the marker strings and banned tokens
  // they scan for, and the --stats harness times itself.
  opts.lint_module = path.find("tools/lint") != std::string::npos;
  return opts;
}

bool read_file(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Minimal extraction of the "file" entries of a compile_commands.json
/// (the format is stable enough that a full JSON parser is overkill for
/// a lint driver with no dependencies).
std::vector<std::string> compdb_files(const std::string& json) {
  std::vector<std::string> files;
  const std::string key = "\"file\"";
  std::size_t pos = 0;
  while ((pos = json.find(key, pos)) != std::string::npos) {
    std::size_t colon = json.find(':', pos + key.size());
    if (colon == std::string::npos) break;
    std::size_t q1 = json.find('"', colon + 1);
    if (q1 == std::string::npos) break;
    std::size_t q2 = json.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    files.push_back(json.substr(q1 + 1, q2 - q1 - 1));
    pos = q2 + 1;
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool want_stats = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--stats") {
      want_stats = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (args.empty()) {
    std::cerr << "usage: lmk-lint [--stats] <dir-or-file>... | "
                 "lmk-lint [--stats] --compdb <compile_commands.json> "
                 "[<prefix>...]\n";
    return 2;
  }

  std::set<std::string> targets;  // sorted, deduplicated
  if (args[0] == "--compdb") {
    if (args.size() < 2) {
      std::cerr << "lmk-lint: --compdb requires a path\n";
      return 2;
    }
    std::string json;
    if (!read_file(args[1], &json)) {
      std::cerr << "lmk-lint: cannot read " << args[1] << "\n";
      return 2;
    }
    std::vector<std::string> prefixes(args.begin() + 2, args.end());
    for (const std::string& f : compdb_files(json)) {
      if (!prefixes.empty()) {
        bool keep = false;
        for (const std::string& p : prefixes) {
          if (f.find(p) != std::string::npos) keep = true;
        }
        if (!keep) continue;
      }
      targets.insert(f);
    }
  } else {
    for (const std::string& a : args) {
      fs::path p(a);
      std::error_code ec;
      if (fs::is_directory(p, ec)) {
        for (const auto& entry : fs::recursive_directory_iterator(p)) {
          if (entry.is_regular_file() && is_source_file(entry.path())) {
            targets.insert(entry.path().string());
          }
        }
      } else if (fs::is_regular_file(p, ec)) {
        targets.insert(p.string());
      } else {
        std::cerr << "lmk-lint: no such file or directory: " << a << "\n";
        return 2;
      }
    }
  }

  std::size_t files_checked = 0;
  std::vector<lmk::lint::Finding> all;
  lmk::lint::LintStats stats;
  for (const std::string& path : targets) {
    std::string content;
    if (!read_file(path, &content)) {
      std::cerr << "lmk-lint: cannot read " << path << "\n";
      return 2;
    }
    ++files_checked;
    lmk::lint::FileOptions opts = options_for(path);
    // Member containers are declared in the companion header; fold its
    // declarations into the iteration analysis of the .cpp.
    std::string companion;
    fs::path p(path);
    if (p.extension() == ".cpp" || p.extension() == ".cc") {
      for (const char* ext : {".hpp", ".h", ".hh"}) {
        fs::path hdr = p;
        hdr.replace_extension(ext);
        if (read_file(hdr, &companion)) break;
      }
    }
    opts.companion_decls = companion;
    auto findings = lmk::lint::lint_source(path, content, opts,
                                           want_stats ? &stats : nullptr);
    all.insert(all.end(), findings.begin(), findings.end());
  }

  for (const auto& f : all) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  std::cout << "lmk-lint: " << files_checked << " files, " << all.size()
            << " finding" << (all.size() == 1 ? "" : "s") << "\n";
  if (want_stats) {
    std::cout << "lmk-lint rule timing (cumulative over "
              << files_checked << " files):\n";
    for (const auto& [rule, seconds] : stats.rule_seconds) {
      std::cout << "  " << rule;
      for (std::size_t pad = rule.size(); pad < 22; ++pad) std::cout << ' ';
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6fs", seconds);
      std::cout << buf << "\n";
    }
  }
  return all.empty() ? 0 : 1;
}
