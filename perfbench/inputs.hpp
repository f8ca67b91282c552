#pragma once
/// \file inputs.hpp
/// \brief The benchmark's deterministic, seeded input generator.
///
/// Built only from the library's public surface: the dag families, DagBuilder
/// and dag_io's text format. The same seed always yields the same bytes; the
/// program under test only ever sees the generated text.

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/dag.hpp"
#include "core/priority.hpp"

namespace icsbench {

/// SplitMix64: a small, portable, seedable stream (std:: distributions are
/// implementation-defined, so they would not give the same bytes everywhere).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// One family instance, as `icsched gen <family> <param...>` names it.
struct FamilySpec {
  std::string family;  ///< mesh | butterfly | prefix | diamond
  std::size_t param = 0;
};

/// The family's dag and its IC-optimal schedule.
[[nodiscard]] icsched::ScheduledDag makeFamily(const FamilySpec& spec);

/// The same structure under a seeded node renumbering (the schedule is
/// mapped along): a new structural digest, so a schedule cache misses on it.
[[nodiscard]] icsched::ScheduledDag renumbered(const icsched::ScheduledDag& sd, Rng& rng);

/// dag_io text of \p g with its arc lines in a seeded order: the same
/// structure (and structural digest) under different request bytes.
[[nodiscard]] std::string shuffledArcText(const icsched::Dag& g, Rng& rng);

/// `icsched simulate` stdin: the dag text followed by the schedule line.
[[nodiscard]] std::string simulateInput(const icsched::ScheduledDag& sd);

}  // namespace icsbench
