// ds_lint: project-specific static checks the compiler cannot express.
//
// Usage: ds_lint [flags] <file-or-directory>...
//
//   --self-test            run the embedded rule corpus first
//   --sarif=<path>         write findings as SARIF 2.1.0
//   --jobs=<n>             parallel file scanning (default: hardware)
//
// Walks the given roots for .h/.cc files and enforces:
//
//   no-alloc-region   No allocation or container-growth calls between
//                     DS_NO_ALLOC_BEGIN() and DS_NO_ALLOC_END() (new,
//                     malloc, make_unique/make_shared, push_back, resize,
//                     ...). Tensor::ResizeInPlace is the sanctioned
//                     grow-once API and is allowed (it does not match the
//                     lowercase member patterns).
//   metric-name       String-literal names passed to obs Registry
//                     GetCounter/GetGauge/GetHistogram must match
//                     ds_<subsystem>_<name> snake case:
//                     ^ds_[a-z0-9]+(_[a-z0-9]+)+$.
//   naked-mutex       No std::mutex / std::condition_variable /
//                     std::lock_guard / std::unique_lock / std::scoped_lock
//                     outside util/thread_annotations.h — library code uses
//                     the annotated ds::util wrappers so every lock site is
//                     visible to clang's thread-safety analysis (and to the
//                     runtime lockdep, ds/util/lockdep.h).
//   iostream-header   No #include <iostream> in headers (it injects the
//                     static ios_base initializer into every TU).
//   naked-fd          No naked close()/::close() of file descriptors
//                     outside util/fd.{h,cc} — fd lifetime goes through
//                     ds::util::UniqueFd so every descriptor has exactly
//                     one owner (double-close and leak bugs become
//                     type errors). Member calls like stream.close() are
//                     not descriptor closes and stay allowed.
//   span-name         String-literal span names (obs::Span ctor, RecordSpan,
//                     SetName) must be snake case and fit SpanRecord's
//                     inline 24-byte buffer: ^[a-z][a-z0-9_]{0,22}$. A
//                     longer name would truncate silently in the ring and
//                     break trace-viewer grouping.
//   raw-intrinsics    No x86 SIMD intrinsics (<immintrin.h>, _mm*_* calls,
//                     __m128/__m256/__m512 types) outside ds/nn/kernels*
//                     files. Everything else goes through the dispatch
//                     table (nn/kernels.h) so the generic build stays
//                     complete and tier parity is checkable in one place.
//   stress-oracle     Stress-harness oracle messages must carry the replay
//                     seed so a CI violation line doubles as the replay
//                     command.
//   discarded-status  A call to a function returning Status/Result used as
//                     a bare statement discards the error. Status/Result
//                     are [[nodiscard]] (util/status.h) so the compiler
//                     catches direct calls; this rule also covers builds
//                     and call shapes the attribute misses. The callee set
//                     is harvested from the swept tree itself: names that
//                     ONLY ever return Status/Result (so EventLoop::Add is
//                     exempt — obs::Counter::Add returns void).
//   lock-rank-stale   Every row of the lock-order manifest's
//                     DS_LOCK_RANK_TABLE (util/lock_order.h) must be
//                     written as LockRank::<symbol> in some swept file; a
//                     row that ranks no mutex is dead. Like
//                     discarded-status, the use set is harvested from the
//                     whole sweep, so the sweep must include every file
//                     that constructs a ranked mutex.
//   unused-nolint     A `NOLINT(ds-lint)` suppression on a line where no
//                     rule fires is dead and gets flagged — suppressions
//                     must not outlive what they suppress.
//
// A line containing `NOLINT(ds-lint)` is exempt (document why at the site);
// it is the one suppression mechanism. Comments are stripped before
// matching; string/char literals are blanked for the code rules and kept
// only for name extraction — all via the ds/analysis text layer. Exit
// status is nonzero on any finding. The ctest registration runs
// `ds_lint --self-test <repo>/src <repo>/tools <repo>/tests/lockdep_test.cc`.

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ds/analysis/finding.h"
#include "ds/analysis/sarif.h"
#include "ds/analysis/scan.h"
#include "ds/analysis/source.h"
#include "ds/analysis/tokenizer.h"

namespace {

using ds::analysis::EndsWith;
using ds::analysis::Finding;
using ds::analysis::LineOfOffset;
using ds::analysis::SourceFile;
using ds::analysis::SplitLines;
using ds::analysis::StripCode;
using ds::analysis::StripMode;

constexpr const char* kVersion = "2.0";

/// Repo-wide facts the per-file rules need, harvested from the whole sweep.
struct LintContext {
  /// Function names that only ever return Status/Result (discarded-status).
  std::set<std::string> status_returning;
  /// Symbols written as LockRank::<symbol> (lock-rank-stale).
  std::set<std::string> lock_rank_refs;
};

/// Per-file scratch handed to every rule: the stripped renderings plus
/// NOLINT bookkeeping for the unused-suppression audit.
struct FileContext {
  std::vector<std::string> raw;        // original lines
  std::vector<std::string> code;       // comments + strings blanked
  std::string no_comments;             // comments blanked, strings kept
  std::set<size_t> nolint_lines;       // 1-based, from comment text only
  mutable std::set<size_t> nolint_used;

  /// True (and records the use) when `line` carries a NOLINT(ds-lint).
  bool Exempt(size_t line) const {
    if (nolint_lines.count(line) == 0) return false;
    nolint_used.insert(line);
    return true;
  }
};

// ---- Rules ----------------------------------------------------------------------

// Allocation and growth calls banned inside DS_NO_ALLOC regions. Matched
// against comment-stripped, string-blanked code. `ResizeInPlace` never
// matches: member patterns are lowercase-only and `new`/`malloc` are word-
// bounded.
const std::regex kAllocPattern(
    R"((\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|make_unique\s*<|make_shared\s*<|(\.|->)\s*(push_back|emplace_back|emplace|insert|resize|reserve|assign|append)\s*\())");

void CheckNoAllocRegions(const std::string& path, const FileContext& ctx,
                         std::vector<Finding>* out) {
  (void)path;
  bool in_region = false;
  size_t begin_line = 0;
  for (size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (line.find("DS_NO_ALLOC_BEGIN") != std::string::npos) {
      in_region = true;
      begin_line = i + 1;
      continue;
    }
    if (line.find("DS_NO_ALLOC_END") != std::string::npos) {
      in_region = false;
      continue;
    }
    if (!in_region) continue;
    std::smatch m;
    if (std::regex_search(line, m, kAllocPattern)) {
      if (ctx.Exempt(i + 1)) continue;
      out->push_back({path, i + 1, "no-alloc-region",
                      "allocation/growth call '" + m.str() +
                          "' inside the DS_NO_ALLOC region opened at line " +
                          std::to_string(begin_line) +
                          " (use pre-sized scratch or Tensor::ResizeInPlace "
                          "before the region)"});
    }
  }
}

const std::regex kMetricCall(
    R"(Get(Counter|Gauge|Histogram)\s*\(\s*"([^"]*)\")");
const std::regex kMetricName("^ds_[a-z0-9]+(_[a-z0-9]+)+$");

void CheckMetricNames(const std::string& path, const FileContext& ctx,
                      std::vector<Finding>* out) {
  // Runs on text with comments stripped but string literals intact.
  const std::string& text = ctx.no_comments;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kMetricCall);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[2].str();
    const size_t line = LineOfOffset(text, static_cast<size_t>(it->position()));
    if (!std::regex_match(name, kMetricName)) {
      if (ctx.Exempt(line)) continue;
      out->push_back({path, line, "metric-name",
                      "metric name '" + name +
                          "' does not match ds_<subsystem>_<name> "
                          "(^ds_[a-z0-9]+(_[a-z0-9]+)+$)"});
    }
  }
}

const std::regex kNakedMutex(
    R"(std\s*::\s*(mutex|timed_mutex|recursive_mutex|shared_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b|#\s*include\s*<(mutex|shared_mutex|condition_variable)>)");

void CheckNakedMutex(const std::string& path, const FileContext& ctx,
                     std::vector<Finding>* out) {
  if (EndsWith(path, "util/thread_annotations.h")) return;  // the wrapper
  for (size_t i = 0; i < ctx.code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(ctx.code[i], m, kNakedMutex)) {
      if (ctx.Exempt(i + 1)) continue;
      out->push_back({path, i + 1, "naked-mutex",
                      "'" + m.str() +
                          "' bypasses the annotated wrappers; use "
                          "ds::util::Mutex / MutexLock / CondVar "
                          "(ds/util/thread_annotations.h)"});
    }
  }
}

const std::regex kIostreamInclude(R"(#\s*include\s*<iostream>)");

void CheckIostreamHeader(const std::string& path, const FileContext& ctx,
                         std::vector<Finding>* out) {
  if (!EndsWith(path, ".h")) return;
  for (size_t i = 0; i < ctx.code.size(); ++i) {
    if (std::regex_search(ctx.code[i], kIostreamInclude)) {
      if (ctx.Exempt(i + 1)) continue;
      out->push_back({path, i + 1, "iostream-header",
                      "<iostream> in a header drags the static ios_base "
                      "initializer into every TU; include <cstdio> or move "
                      "the streaming into a .cc"});
    }
  }
}

// Span names land in SpanRecord::name, a fixed char[24] — anything longer
// truncates silently. The first string literal inside a Span constructor,
// RecordSpan call, or SetName call is the name; `[^";\\]*` keeps the scan
// inside one statement (the RecordSpan *definition* has no literal before
// its body's `;`) and refuses to cross escaped quotes, so span names that
// only appear inside C string literals — like this linter's own self-test
// snippets — are not scanned.
const std::regex kSpanNameCall(
    R"rx((RecordSpan\s*\(|Span\s+\w+\s*\(|SetName\s*\()[^";\\]*"([^"]*)")rx");
const std::regex kSpanName("^[a-z][a-z0-9_]{0,22}$");

void CheckSpanNames(const std::string& path, const FileContext& ctx,
                    std::vector<Finding>* out) {
  const std::string& text = ctx.no_comments;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kSpanNameCall);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[2].str();
    const size_t line = LineOfOffset(text, static_cast<size_t>(it->position()));
    if (!std::regex_match(name, kSpanName)) {
      if (ctx.Exempt(line)) continue;
      out->push_back({path, line, "span-name",
                      "span name '" + name +
                          "' must match ^[a-z][a-z0-9_]{0,22}$ (snake case, "
                          "<= 23 chars — SpanRecord stores names in a fixed "
                          "24-byte buffer and truncates silently)"});
    }
  }
}

// Naked descriptor closes: bare `close(` or `::close(`, but not member
// calls (`.close(`/`->close(`) — std::fstream::close is not an fd — and
// not identifiers merely ending in "close" (epoll_close).
const std::regex kNakedClose(R"((^|[^\w.>:])(::\s*)?close\s*\()");

void CheckNakedFd(const std::string& path, const FileContext& ctx,
                  std::vector<Finding>* out) {
  // UniqueFd::reset() is the one sanctioned close call site.
  if (EndsWith(path, "util/fd.h") || EndsWith(path, "util/fd.cc")) return;
  for (size_t i = 0; i < ctx.code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(ctx.code[i], m, kNakedClose)) {
      if (ctx.Exempt(i + 1)) continue;
      out->push_back({path, i + 1, "naked-fd",
                      "naked close() of a file descriptor; own the fd with "
                      "ds::util::UniqueFd (ds/util/fd.h) so it cannot leak "
                      "or double-close"});
    }
  }
}

// Raw SIMD intrinsics outside the kernel tier TUs break the generic build
// (missing -m flags) and dodge the per-tier parity sweep. The dispatch
// table in nn/kernels.h is the sanctioned route to vector code.
const std::regex kRawIntrinsics(
    R"((#\s*include\s*<\w*mmintrin\.h>|\b_mm\w*_\w+\s*\(|\b__m(128|256|512)[di]?\b))");

void CheckRawIntrinsics(const std::string& path, const FileContext& ctx,
                        std::vector<Finding>* out) {
  // The per-tier kernel TUs (nn/kernels_avx2.cc, ...) are the one home for
  // vector code; each is compiled with exactly the -m flags it needs.
  if (path.find("nn/kernels") != std::string::npos) return;
  for (size_t i = 0; i < ctx.code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(ctx.code[i], m, kRawIntrinsics)) {
      if (ctx.Exempt(i + 1)) continue;
      out->push_back({path, i + 1, "raw-intrinsics",
                      "'" + m.str() +
                          "' outside ds/nn/kernels*; vector code belongs in "
                          "a kernel tier TU behind the dispatch table "
                          "(ds/nn/kernels.h) so the generic build and the "
                          "per-tier parity check stay complete"});
    }
  }
}

// Stress-harness oracles must carry the replay seed in their message text:
// a violation line in CI is only actionable when it doubles as a replay
// command (`ds_stress seed=<N> ...`). Applies to DS_STRESS_ORACLE and the
// DS_REQUIRE contract family, but only inside the stress harness itself
// (src/ds/stress/, tools/ds_stress.cc, tests/stress_test.cc).
void CheckStressOracleSeed(const std::string& path, const FileContext& ctx,
                           std::vector<Finding>* out) {
  if (path.find("ds/stress/") == std::string::npos &&
      path.find("ds_stress") == std::string::npos &&
      path.find("stress_test") == std::string::npos) {
    return;
  }
  const std::string& text = ctx.no_comments;
  static const char* const kMacros[] = {"DS_STRESS_ORACLE(", "DS_REQUIRE(",
                                        "DS_ENSURE(", "DS_INVARIANT("};
  for (const char* macro : kMacros) {
    size_t pos = 0;
    while ((pos = text.find(macro, pos)) != std::string::npos) {
      const size_t line = LineOfOffset(text, pos);
      pos += std::strlen(macro);
      const std::string& raw_line = ctx.raw[line - 1];
      // Skip the macro's own #define.
      if (raw_line.find("#define") != std::string::npos) continue;
      // Balanced-paren span of the invocation's arguments. `text` keeps
      // string literals, so the "seed" token in the format string counts.
      size_t depth = 1;
      size_t i = pos;
      while (i < text.size() && depth > 0) {
        if (text[i] == '(') ++depth;
        if (text[i] == ')') --depth;
        ++i;
      }
      if (text.substr(pos, i - pos).find("seed") == std::string::npos) {
        if (ctx.Exempt(line)) continue;
        out->push_back(
            {path, line, "stress-oracle",
             "stress oracle message must carry the replay seed (format it "
             "like \"seed=%llu ...\") so a CI violation line doubles as the "
             "ds_stress replay command"});
      }
    }
  }
}

// A Status/Result-returning call as a bare statement swallows the error.
// `names` comes from HarvestStatusReturning over the whole sweep, so only
// functions that NEVER return anything else are in it. A statement is a
// call whose (possibly obj./ptr->/Ns::-qualified) callee starts the line
// and whose `);` ends it; `(void)` casts and DS_* macro wrappers do not
// match the shape and stay allowed.
void CheckDiscardedStatus(const std::string& path, const FileContext& ctx,
                          const LintContext& repo,
                          std::vector<Finding>* out) {
  if (repo.status_returning.empty()) return;
  static const std::regex kBareCall(
      R"(^\s*(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*([A-Za-z_]\w*)\s*\()");
  for (size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    std::smatch m;
    if (!std::regex_search(line, m, kBareCall)) continue;
    const std::string callee = m[1].str();
    if (repo.status_returning.count(callee) == 0) continue;
    // Statement form only: the call's closing `);` ends this line (the
    // regex anchors the start; multi-line calls are the compiler
    // attribute's job).
    const std::string tail = line.substr(
        static_cast<size_t>(m.position()) + static_cast<size_t>(m.length()) -
        1);
    int depth = 0;
    size_t end = std::string::npos;
    for (size_t j = 0; j < tail.size(); ++j) {
      if (tail[j] == '(') ++depth;
      if (tail[j] == ')' && --depth == 0) {
        end = j;
        break;
      }
    }
    if (end == std::string::npos) continue;
    size_t k = end + 1;
    while (k < tail.size() && std::isspace(static_cast<unsigned char>(tail[k])))
      ++k;
    if (k >= tail.size() || tail[k] != ';') continue;
    if (ctx.Exempt(i + 1)) continue;
    out->push_back(
        {path, i + 1, "discarded-status",
         "call to '" + callee +
             "' discards its Status/Result; check it, propagate it "
             "(DS_RETURN_NOT_OK), or cast to void with a comment"});
  }
}

// The lock-order manifest must not outlive the code: a DS_LOCK_RANK_TABLE
// row whose symbol no swept file writes as LockRank::<symbol> ranks no
// mutex. Rows are `X(symbol, ...)` lines of the X-macro, which ends at the
// first line without a continuation backslash. Unknown symbols need no
// rule: LockRank is an enum class, so they do not compile.
const std::regex kLockRankTable(R"(#\s*define\s+DS_LOCK_RANK_TABLE\b)");
const std::regex kLockRankRow(R"(\bX\s*\(\s*(\w+))");

void CheckLockRankStale(const std::string& path, const FileContext& ctx,
                        const LintContext& repo, std::vector<Finding>* out) {
  bool in_table = false;
  for (size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    std::smatch m;
    if (in_table && std::regex_search(line, m, kLockRankRow)) {
      const std::string symbol = m[1].str();
      if (repo.lock_rank_refs.count(symbol) == 0 && !ctx.Exempt(i + 1)) {
        out->push_back({path, i + 1, "lock-rank-stale",
                        "lock rank '" + symbol +
                            "' ranks no mutex: no swept file writes "
                            "LockRank::" + symbol +
                            "; delete the row (or sweep the file that uses "
                            "it)"});
      }
    }
    const size_t last = line.find_last_not_of(" \t\r");
    const bool continued = last != std::string::npos && line[last] == '\\';
    in_table =
        continued && (in_table || std::regex_search(line, kLockRankTable));
  }
}

/// Flags NOLINT(ds-lint) lines no rule consulted. Runs after every other
/// rule so ctx.nolint_used is complete.
void CheckUnusedNolint(const std::string& path, const FileContext& ctx,
                       std::vector<Finding>* out) {
  for (size_t line : ctx.nolint_lines) {
    if (ctx.nolint_used.count(line) != 0) continue;
    out->push_back({path, line, "unused-nolint",
                    "NOLINT(ds-lint) on a line where no lint rule fires; "
                    "dead suppressions hide future real findings — delete "
                    "it (or move it to the line that needs it)"});
  }
}

// ---- Repo-wide harvest ----------------------------------------------------------

/// One token pass over the whole sweep. status_returning: function names
/// whose every swept declaration/definition returns Status or Result<...>;
/// names that also appear with any other return type are dropped
/// (obs::Counter::Add returns void, so EventLoop::Add's Status does not put
/// `Add` in the set). lock_rank_refs: every `LockRank::<symbol>` in code.
void HarvestRepo(const std::vector<SourceFile>& files, LintContext* out) {
  using ds::analysis::Token;
  using ds::analysis::TokenKind;
  std::set<std::string> status_names;
  std::set<std::string> other_names;
  for (const SourceFile& f : files) {
    const std::string code = StripCode(f.content, StripMode::kCommentsAndStrings);
    const std::vector<Token> toks = ds::analysis::Tokenize(code);
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text == "LockRank" &&
          ds::analysis::PunctIs(toks, i + 1, "::") && i + 2 < toks.size()) {
        out->lock_rank_refs.insert(toks[i + 2].text);
      }
      // NAME ( ... preceded by a type-ish token: classify by whether that
      // type is Status / Result<...>.
      if (toks[i].kind != TokenKind::kIdentifier ||
          !ds::analysis::PunctIs(toks, i + 1, "(") || i == 0) {
        continue;
      }
      const std::string& name = toks[i].text;
      if (!std::isupper(static_cast<unsigned char>(name[0]))) continue;
      // Walk back over `>`-closers to find the return-type head: for
      // `Result<double> Estimate(`, toks[i-1] is `>`.
      size_t j = i;  // one past the candidate return type
      std::string ret;
      if (ds::analysis::PunctIs(toks, j - 1, ">")) {
        int angle = 0;
        size_t k = j - 1;
        while (k > 0) {
          if (ds::analysis::PunctIs(toks, k, ">")) ++angle;
          if (ds::analysis::PunctIs(toks, k, "<") && --angle == 0) break;
          --k;
        }
        if (k >= 1 && toks[k - 1].kind == TokenKind::kIdentifier) {
          ret = toks[k - 1].text;
        }
      } else if (toks[j - 1].kind == TokenKind::kIdentifier) {
        ret = toks[j - 1].text;
      }
      if (ret.empty()) continue;
      if (ret == "Status" || ret == "Result") {
        status_names.insert(name);
      } else {
        other_names.insert(name);
      }
    }
  }
  for (const std::string& n : status_names) {
    if (other_names.count(n) == 0) out->status_returning.insert(n);
  }
}

// ---- Driver ---------------------------------------------------------------------

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content,
                                 const LintContext& repo) {
  std::vector<Finding> findings;
  FileContext ctx;
  ctx.raw = SplitLines(content);
  ctx.no_comments = StripCode(content, StripMode::kComments);
  ctx.code = SplitLines(StripCode(content, StripMode::kCommentsAndStrings));
  {
    // Suppressions live in comments; blank strings first so "NOLINT" in a
    // string literal (these rules' own self-test snippets) is not one.
    const std::vector<std::string> lines =
        SplitLines(StripCode(content, StripMode::kStrings));
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find("NOLINT(ds-lint)") == std::string::npos) continue;
      // Only a trailing comment on a code line is a suppression; a pure
      // comment line merely *talks about* the marker (this file does).
      if (i < ctx.code.size() &&
          ctx.code[i].find_first_not_of(" \t") != std::string::npos) {
        ctx.nolint_lines.insert(i + 1);
      }
    }
  }
  CheckNoAllocRegions(path, ctx, &findings);
  CheckMetricNames(path, ctx, &findings);
  CheckSpanNames(path, ctx, &findings);
  CheckNakedMutex(path, ctx, &findings);
  CheckIostreamHeader(path, ctx, &findings);
  CheckNakedFd(path, ctx, &findings);
  CheckRawIntrinsics(path, ctx, &findings);
  CheckStressOracleSeed(path, ctx, &findings);
  CheckDiscardedStatus(path, ctx, repo, &findings);
  CheckLockRankStale(path, ctx, repo, &findings);
  CheckUnusedNolint(path, ctx, &findings);
  return findings;
}

// ---- Self-test ------------------------------------------------------------------

struct SelfCase {
  const char* name;
  const char* path;     // fake path fed to the rule engine
  const char* content;
  const char* expect_rule;  // nullptr = must be clean
};

const SelfCase kSelfCases[] = {
    {"alloc-in-region", "seed.cc",
     "void f(std::vector<int>* v) {\n"
     "  DS_NO_ALLOC_BEGIN();\n"
     "  v->push_back(1);\n"
     "  DS_NO_ALLOC_END();\n"
     "}\n",
     "no-alloc-region"},
    {"new-in-region", "seed.cc",
     "void f() {\n"
     "  DS_NO_ALLOC_BEGIN();\n"
     "  int* p = new int[4];\n"
     "  DS_NO_ALLOC_END();\n"
     "  delete[] p;\n"
     "}\n",
     "no-alloc-region"},
    {"resize-in-place-allowed", "clean.cc",
     "void f(ds::nn::Tensor* t) {\n"
     "  t->ResizeInPlace({4, 4});\n"
     "  DS_NO_ALLOC_BEGIN();\n"
     "  t->Zero();\n"
     "  DS_NO_ALLOC_END();\n"
     "}\n",
     nullptr},
    {"growth-outside-region-allowed", "clean.cc",
     "void f(std::vector<int>* v) { v->push_back(1); }\n", nullptr},
    {"bad-metric-name", "seed.cc",
     "void f(ds::obs::Registry* r) {\n"
     "  r->GetCounter(\"serveRequests\", \"help\");\n"
     "}\n",
     "metric-name"},
    {"bad-metric-name-single-word", "seed.cc",
     "void f(ds::obs::Registry* r) { r->GetGauge(\"ds_\"); }\n",
     "metric-name"},
    {"good-metric-name", "clean.cc",
     "void f(ds::obs::Registry* r) {\n"
     "  r->GetHistogram(\"ds_serve_queue_wait_us\", \"help\");\n"
     "}\n",
     nullptr},
    {"bad-span-name-case", "seed.cc",
     "void f() { obs::Span span(\"NetDecode\"); }\n", "span-name"},
    {"bad-span-name-too-long", "seed.cc",
     "void f(ds::obs::SpanRecord* r) {\n"
     "  r->SetName(\"a_span_name_well_past_the_24_byte_cap\");\n"
     "}\n",
     "span-name"},
    {"bad-span-name-recordspan", "seed.cc",
     "void f(ds::obs::TraceRecorder* t) {\n"
     "  obs::RecordSpan(t, tid, parent,\n"
     "                  \"net decode\", t0, t1);\n"
     "}\n",
     "span-name"},
    {"good-span-name", "clean.cc",
     "void f() { obs::Span span(\"queue_wait\", 3); }\n", nullptr},
    {"recordspan-definition-allowed", "clean.cc",
     "uint64_t RecordSpan(TraceRecorder* recorder, uint64_t trace_id,\n"
     "                    const char* name) {\n"
     "  SpanRecord record;\n"
     "  record.SetName(name);\n"
     "  return 0;\n"
     "}\n",
     nullptr},
    {"naked-mutex", "seed.cc", "static std::mutex g_mu;\n", "naked-mutex"},
    {"naked-lock-guard", "seed.cc",
     "void f() { std::lock_guard<std::mutex> l(mu); }\n", "naked-mutex"},
    {"wrapper-mutex-allowed", "clean.cc",
     "static ds::util::Mutex g_mu;\n", nullptr},
    {"nolint-exempt", "clean.cc",
     "static std::mutex g_mu;  // NOLINT(ds-lint): fixture predates wrapper\n",
     nullptr},
    {"mutex-in-comment-allowed", "clean.cc",
     "// std::mutex used to live here\n", nullptr},
    // A digit separator is part of its number, not the start of a char
    // literal: the code after it is still linted. An encoding prefix
    // (`u8'a'`) still opens a char literal.
    {"finding-after-digit-separator", "seed.cc",
     "constexpr int kRows = 15'000;\n"
     "static std::mutex g_mu;\n",
     "naked-mutex"},
    {"finding-after-separators-in-hex-and-float", "seed.cc",
     "constexpr long kMask = 0x1'000'000;\n"
     "constexpr double kScale = 1'000.5;\n"
     "void f() { std::lock_guard<std::mutex> l(mu); }\n",
     "naked-mutex"},
    {"finding-after-prefixed-char-literal", "seed.cc",
     "const char c = u8'a';\n"
     "static std::mutex g_mu;\n",
     "naked-mutex"},
    {"iostream-in-header", "seed.h", "#include <iostream>\n",
     "iostream-header"},
    {"iostream-in-cc-allowed", "clean.cc", "#include <iostream>\n", nullptr},
    {"naked-close", "seed.cc", "void f(int fd) { close(fd); }\n", "naked-fd"},
    {"naked-global-close", "seed.cc", "void f(int fd) { ::close(fd); }\n",
     "naked-fd"},
    {"close-in-fd-wrapper-allowed", "util/fd.cc",
     "void g(int fd) { ::close(fd); }\n", nullptr},
    {"stream-close-allowed", "clean.cc",
     "void f(std::ofstream& out) { out.close(); }\n", nullptr},
    {"close-variable-allowed", "clean.cc",
     "bool WantsClose(bool close) { return close; }\n", nullptr},
    {"nolint-close-exempt", "clean.cc",
     "void f(int fd) { close(fd); }  // NOLINT(ds-lint): raw CLI plumbing\n",
     nullptr},
    {"intrinsic-call-outside-kernels", "seed.cc",
     "float f(__m256 a) { return _mm256_cvtss_f32(_mm256_add_ps(a, a)); }\n",
     "raw-intrinsics"},
    {"intrinsic-include-outside-kernels", "seed.h",
     "#include <immintrin.h>\n", "raw-intrinsics"},
    {"intrinsics-in-kernel-tier-allowed", "nn/kernels_avx2.cc",
     "#include <immintrin.h>\n"
     "float f(__m256 a) { return _mm256_cvtss_f32(a); }\n",
     nullptr},
    {"intrinsic-in-comment-allowed", "clean.cc",
     "// _mm256_fmadd_ps lives in nn/kernels_avx2_fma.cc\n", nullptr},
    {"stress-oracle-missing-seed", "src/ds/stress/fake.cc",
     "void f(ds::stress::OracleLedger* l) {\n"
     "  DS_STRESS_ORACLE(l, \"ledger\", 1 + 1 == 2, \"books unbalanced\");\n"
     "}\n",
     "stress-oracle"},
    {"stress-require-missing-seed", "tools/ds_stress.cc",
     "void f(bool passed) {\n"
     "  DS_REQUIRE(passed, \"oracle violation, rerun me\");\n"
     "}\n",
     "stress-oracle"},
    {"stress-oracle-with-seed", "src/ds/stress/fake.cc",
     "void f(ds::stress::OracleLedger* l, unsigned long long seed) {\n"
     "  DS_STRESS_ORACLE(l, \"ledger\", 1 + 1 == 2,\n"
     "                   \"seed=%llu books unbalanced\", seed);\n"
     "}\n",
     nullptr},
    {"stress-oracle-outside-harness-unscoped", "src/ds/serve/fake.cc",
     "void f(int x) { DS_REQUIRE(x > 0, \"no seed needed here\"); }\n",
     nullptr},
    // discarded-status: the harvest sees DropSketch returning Status and
    // Tick returning void, so only the bare DropSketch statement fires.
    {"discarded-status", "seed.cc",
     "Status DropSketch(const std::string& name);\n"
     "void Tick();\n"
     "void f(SketchManager* m) {\n"
     "  m->DropSketch(\"imdb\");\n"
     "  Tick();\n"
     "}\n",
     "discarded-status"},
    {"discarded-status-checked-allowed", "clean.cc",
     "Status DropSketch(const std::string& name);\n"
     "void f(SketchManager* m) {\n"
     "  Status s = m->DropSketch(\"imdb\");\n"
     "  if (!s.ok()) return;\n"
     "}\n",
     nullptr},
    {"discarded-status-void-cast-allowed", "clean.cc",
     "Status DropSketch(const std::string& name);\n"
     "void f(SketchManager* m) {\n"
     "  (void)m->DropSketch(\"imdb\");  // drop error: best-effort cleanup\n"
     "}\n",
     nullptr},
    {"discarded-status-overload-exempt", "clean.cc",
     "Status Add(Task t);\n"
     "void Add(uint64_t n);\n"
     "void f(EventLoop* loop) { loop->Add(task); }\n",
     nullptr},
    // unused-nolint: a suppression on a line no rule consults is dead.
    {"unused-nolint", "seed.cc",
     "int f() { return 2; }  // NOLINT(ds-lint): nothing to suppress\n",
     "unused-nolint"},
    {"used-nolint-allowed", "clean.cc",
     "static std::mutex g_mu;  // NOLINT(ds-lint): fixture predates wrapper\n",
     nullptr},
    // lock-rank-stale: kSeedLeaf is a manifest row nothing ranks a mutex
    // with; the same file plus one LockRank::kSeedLeaf use is clean.
    {"lock-rank-stale", "util/lock_order.h",
     "#define DS_LOCK_RANK_TABLE(X)          \\\n"
     "  X(kSeedOuter, 100, \"seed.outer\",   \\\n"
     "    \"Seed::outer_mu_\")                \\\n"
     "  X(kSeedLeaf, 200, \"seed.leaf\", \"Seed::leaf_mu_\")\n"
     "util::Mutex outer_mu_{util::LockRank::kSeedOuter};\n",
     "lock-rank-stale"},
    {"lock-rank-referenced-allowed", "util/lock_order.h",
     "#define DS_LOCK_RANK_TABLE(X)          \\\n"
     "  X(kSeedOuter, 100, \"seed.outer\",   \\\n"
     "    \"Seed::outer_mu_\")                \\\n"
     "  X(kSeedLeaf, 200, \"seed.leaf\", \"Seed::leaf_mu_\")\n"
     "util::Mutex outer_mu_{util::LockRank::kSeedOuter};\n"
     "util::Mutex leaf_mu_{util::LockRank::kSeedLeaf};\n",
     nullptr},
};

int RunSelfTest() {
  int failures = 0;
  for (const SelfCase& c : kSelfCases) {
    LintContext repo;
    HarvestRepo({{c.path, c.content}}, &repo);
    const auto findings = LintContent(c.path, c.content, repo);
    if (c.expect_rule == nullptr) {
      if (!findings.empty()) {
        std::fprintf(stderr,
                     "self-test FAIL %s: expected clean, got %s at line %zu\n",
                     c.name, findings[0].rule.c_str(), findings[0].line);
        ++failures;
      }
    } else if (findings.empty()) {
      std::fprintf(stderr, "self-test FAIL %s: seeded %s not detected\n",
                   c.name, c.expect_rule);
      ++failures;
    } else if (findings[0].rule != c.expect_rule) {
      std::fprintf(stderr, "self-test FAIL %s: expected %s, got %s\n", c.name,
                   c.expect_rule, findings[0].rule.c_str());
      ++failures;
    } else if (findings.size() != 1) {
      std::fprintf(stderr, "self-test FAIL %s: %zu findings, expected 1\n",
                   c.name, findings.size());
      ++failures;
    }
  }
  if (failures == 0) {
    std::fprintf(stderr, "ds_lint self-test: %zu cases ok\n",
                 sizeof(kSelfCases) / sizeof(kSelfCases[0]));
  }
  return failures;
}

const char* ArgValue(const char* arg, const char* flag) {
  const size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_test = false;
  std::string sarif_path;
  int jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs <= 0) jobs = 1;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--self-test") == 0) {
      self_test = true;
    } else if ((v = ArgValue(argv[i], "--sarif")) != nullptr) {
      sarif_path = v;
    } else if ((v = ArgValue(argv[i], "--jobs")) != nullptr) {
      const char* end = v + std::strlen(v);
      const auto [ptr, ec] = std::from_chars(v, end, jobs);
      if (ec != std::errc() || ptr != end || jobs <= 0) {
        std::fprintf(stderr,
                     "ds_lint: --jobs wants a positive integer, got '%s'\n",
                     v);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(stderr,
                   "usage: ds_lint [--self-test] [--sarif=<path>] "
                   "[--jobs=<n>]\n"
                   "               <file-or-directory>...\n");
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "ds_lint: unknown flag '%s' (see --help)\n",
                   argv[i]);
      return 2;
    } else {
      roots.push_back(argv[i]);
    }
  }
  int failures = 0;
  if (self_test) failures += RunSelfTest();
  if (roots.empty()) {
    if (self_test) return failures == 0 ? 0 : 1;
    std::fprintf(stderr, "ds_lint: no inputs (see --help)\n");
    return 2;
  }

  std::vector<SourceFile> files;
  if (!ds::analysis::CollectSources(roots, &files)) return 2;
  LintContext repo;
  HarvestRepo(files, &repo);

  // Pre-partitioned parallel scan: slot i belongs to thread i mod jobs,
  // merged in input order afterwards — no locks, deterministic output.
  std::vector<std::vector<Finding>> per_file(files.size());
  ds::analysis::ParallelScan(files.size(), jobs, [&](size_t i) {
    per_file[i] = LintContent(files[i].path, files[i].content, repo);
  });
  std::vector<Finding> findings;
  for (auto& f : per_file) {
    findings.insert(findings.end(), f.begin(), f.end());
  }

  if (!sarif_path.empty()) {
    const std::string sarif =
        ds::analysis::ToSarif("ds_lint", kVersion, findings);
    if (!ds::analysis::WriteTextFile(sarif_path, sarif)) return 2;
  }

  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  std::fprintf(stderr, "ds_lint: %zu file(s), %zu finding(s)\n", files.size(),
               findings.size());
  failures += static_cast<int>(findings.size());
  return failures == 0 ? 0 : 1;
}
