/// \file main.cpp
/// \brief icsbench: the icsched benchmark driver.
///
///   icsbench --workload <sim_sweep|sim_faults|serve_hit|serve_churn>
///            --seed N --seconds S --trace 0|1 [--tiny] [--corrupt]
///
/// Run from the repository root (perfbench/run.py builds and runs it).
/// Untraced runs print the end-to-end metrics, traced runs the per-layer
/// ones; the last stdout line is a one-line JSON summary. Every output is
/// checked; any failed check makes the exit code non-zero.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "icsbench: " << why
            << "\nusage: icsbench --workload <sim_sweep|sim_faults|serve_hit|serve_churn> "
               "--seed N --seconds S --trace 0|1 [--tiny] [--corrupt]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  icsbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opts.workload = value();
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opts.trace = std::stoi(value()) != 0;
      } else if (arg == "--tiny") {
        opts.tiny = true;
      } else if (arg == "--corrupt") {
        opts.corrupt = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");
  const bool sim = opts.workload == "sim_sweep" || opts.workload == "sim_faults";
  const bool serve = opts.workload == "serve_hit" || opts.workload == "serve_churn";
  if (!sim && !serve) usage("unknown workload '" + opts.workload + "'");

  icsbench::Result res;
  try {
    if (sim) {
      icsbench::runSimWorkload(opts, res);
    } else {
      icsbench::runServeWorkload(opts, res);
    }
  } catch (const std::exception& e) {
    std::cerr << "icsbench: " << opts.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  return res.emit(opts);
}
