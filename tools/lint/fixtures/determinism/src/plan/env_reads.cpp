// Seeded environment reads in a result-affecting layer (src/plan is one):
// every tagged line below must be caught by the `determinism` checker,
// and nothing else in this file may be flagged.
#include <cstdlib>
#include <string>

#include "util/env.h"

namespace fixture {

long seeded_env_reads() {
  long acc = 0;
  // VIOLATION libc getenv
  acc += std::getenv("CLEAR_FIXTURE") != nullptr;
  // VIOLATION unqualified getenv
  acc += getenv("CLEAR_FIXTURE") != nullptr;
  // VIOLATION secure_getenv
  acc += secure_getenv("CLEAR_FIXTURE") != nullptr;
  // VIOLATION util::env_long
  acc += clear::util::env_long("CLEAR_FIXTURE", 0);
  // VIOLATION util::env_string
  acc += static_cast<long>(clear::util::env_string("CLEAR_FIXTURE", "").size());
  // VIOLATION util::env_bytes
  acc += static_cast<long>(clear::util::env_bytes("CLEAR_FIXTURE", 0));
  return acc;
}

long clean_env_lines() {
  // None of these may be flagged: "getenv(" and "env_long(" appear only in
  // comments and string literals, and an annotated read is suppressed.
  const std::string note = "getenv(\"X\") and util::env_long(\"X\", 0)";
  long acc = static_cast<long>(note.size());
  // lint: allow(determinism): fixture-sanctioned read proving suppression
  acc += clear::util::env_long("CLEAR_FIXTURE_THREADS", 0);
  return acc;
}

}  // namespace fixture
