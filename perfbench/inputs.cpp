#include "inputs.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "families/butterfly.hpp"
#include "families/diamond.hpp"
#include "families/mesh.hpp"
#include "families/prefix.hpp"
#include "families/trees.hpp"
#include "io/dag_io.hpp"

namespace icsbench {

using icsched::Arc;
using icsched::Dag;
using icsched::DagBuilder;
using icsched::NodeId;
using icsched::Schedule;
using icsched::ScheduledDag;

ScheduledDag makeFamily(const FamilySpec& spec) {
  if (spec.family == "mesh") return icsched::outMesh(spec.param);
  if (spec.family == "butterfly") return icsched::butterfly(spec.param);
  if (spec.family == "prefix") return icsched::prefixDag(spec.param);
  if (spec.family == "diamond") {
    return icsched::symmetricDiamond(icsched::completeOutTree(2, spec.param)).composite;
  }
  throw std::invalid_argument("inputs: unknown family " + spec.family);
}

namespace {

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

}  // namespace

ScheduledDag renumbered(const ScheduledDag& sd, Rng& rng) {
  const std::size_t n = sd.dag.numNodes();
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  shuffle(perm, rng);
  std::vector<Arc> arcs = sd.dag.arcs();
  for (Arc& a : arcs) a = Arc{perm[a.from], perm[a.to]};
  std::vector<NodeId> order;
  order.reserve(n);
  for (NodeId v : sd.schedule.order()) order.push_back(perm[v]);
  return ScheduledDag{DagBuilder(n, arcs).freeze(), Schedule(std::move(order))};
}

std::string shuffledArcText(const Dag& g, Rng& rng) {
  std::vector<Arc> arcs = g.arcs();
  shuffle(arcs, rng);
  std::string text = "dag " + std::to_string(g.numNodes()) + "\n";
  for (const Arc& a : arcs) {
    text += "arc " + std::to_string(a.from) + " " + std::to_string(a.to) + "\n";
  }
  return text + "end\n";
}

std::string simulateInput(const ScheduledDag& sd) {
  std::ostringstream os;
  icsched::writeDag(os, sd.dag);
  icsched::writeSchedule(os, sd.schedule);
  return os.str();
}

}  // namespace icsbench
