// The paper's figures, tables and ablations as one registry: each entry
// prints its banner (setup and expected shape) and then renders its
// table(s) to stdout. `elide figure ID` runs one; ELISION_BENCH_SCALE
// scales every run's virtual duration.
#pragma once

#include <span>
#include <string_view>

namespace elision::figures {

struct Figure {
  const char* id;       // `elide figure` argument, e.g. "fig3.1"
  const char* title;    // banner heading
  const char* caption;  // banner text: the setup and the expected shape
  void (*render)();
};

std::span<const Figure> all();

// The entry named `id`, or null.
const Figure* find(std::string_view id);

}  // namespace elision::figures
