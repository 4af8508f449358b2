// Seeded refused annotation: src/inject sits below src/engine, and an
// allow(layering) annotation no longer buys an exception.  The annotation
// itself is a finding and the upward include below it is still reported.
// lint: allow(layering): annotated back-edge the checker must refuse
#include "engine/engine.h"  // VIOLATION: inject -> engine inverts the DAG

#include "arch/core.h"      // clean: inject -> arch is a documented edge

namespace fixture {

int annotated() { return 2; }

}  // namespace fixture
