// Fuzz target: the SQL front end (the one pass in ds/sql/parser.cc) must
// never crash, trip a contract, or corrupt memory on arbitrary bytes — it
// faces user-typed query strings in dsctl and client-supplied text in the
// serving API. Binding runs against a small synthetic IMDb catalog so
// table/column resolution, alias handling, and BETWEEN desugaring are all
// exercised (the int64-limit BETWEEN overflow was found by exactly this
// harness under UBSan).
//
// Every entry point must agree: ParseAndBind(sql), Bind(Parse(sql)) and
// the reused-scratch Bind give the same spec or the same error text (only
// ParseAndBind refuses a placeholder). A disagreement aborts, like a crash.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ds/datagen/imdb.h"
#include "ds/sql/binder.h"
#include "ds/sql/parser.h"
#include "ds/storage/catalog.h"

namespace {

const ds::storage::Catalog& FuzzCatalog() {
  static const ds::storage::Catalog* catalog = [] {
    ds::datagen::ImdbOptions options;
    options.num_titles = 500;  // small: catalog shape matters, volume doesn't
    auto result = ds::datagen::GenerateImdb(options);
    return result.value().release();
  }();
  return *catalog;
}

void Check(bool agree, const char* what, const std::string& sql) {
  if (agree) return;
  std::fprintf(stderr, "fuzz_sql: %s disagree on: %s\n", what, sql.c_str());
  std::abort();
}

std::string ErrorText(const ds::Status& status) {
  return status.ok() ? std::string() : status.ToString();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 4096) return 0;  // huge inputs only slow the search down
  const std::string sql(reinterpret_cast<const char*>(data), size);
  const ds::storage::Catalog& catalog = FuzzCatalog();

  auto parsed = ds::sql::Parse(sql);
  auto two_step = parsed.ok() ? ds::sql::Bind(catalog, *parsed)
                              : ds::Result<ds::sql::BoundQuery>(parsed.status());
  // Reused across inputs, as a serving worker reuses its scratch.
  static ds::sql::BoundQuery scratch;
  const ds::Status one_pass = ds::sql::Bind(catalog, sql, &scratch);
  Check(ErrorText(one_pass) == ErrorText(two_step.status()) &&
            (!one_pass.ok() || scratch == *two_step),
        "Bind(catalog, sql, &scratch) and Bind(Parse(sql))", sql);

  auto spec = ds::sql::ParseAndBind(catalog, sql);
  if (two_step.ok() && two_step->placeholder.has_value()) {
    Check(!spec.ok(), "ParseAndBind and Bind(Parse(sql)) on a placeholder",
          sql);
  } else {
    Check(ErrorText(spec.status()) == ErrorText(two_step.status()) &&
              (!spec.ok() || *spec == two_step->spec),
          "ParseAndBind and Bind(Parse(sql))", sql);
  }
  return 0;
}

#include "fuzz_driver.h"
