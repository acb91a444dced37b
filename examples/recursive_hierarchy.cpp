// Recursive-hierarchy scenario: the synthetic workload of the paper's
// evaluation (Section 5) at exploration scale — a deeply recursive parts/
// prerequisite-style hierarchy with shared subtrees, published as a DAG
// and updated through recursive XPaths, including the SAT-translated
// "buddies" insertions (the Example 8 gadget).
//
// Run: ./build/examples/recursive_hierarchy [num_c]

#include <cstdio>
#include <cstdlib>

#include "src/core/system.h"
#include "src/workload/synthetic.h"
#include "src/workload/workloads.h"

using namespace xvu;  // NOLINT — example brevity

int main(int argc, char** argv) {
  SyntheticSpec spec;
  spec.num_c = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 2000;
  spec.payload_domain = 50;
  spec.k_coverage = 0.3;

  auto db = MakeSyntheticDatabase(spec);
  if (!db.ok()) return 1;
  std::printf("base relations: C=%zu F=%zu H=%zu CU=%zu K=%zu G=%zu\n",
              db->GetTable("C")->size(), db->GetTable("F")->size(),
              db->GetTable("H")->size(), db->GetTable("CU")->size(),
              db->GetTable("K")->size(), db->GetTable("G")->size());

  auto atg = MakeSyntheticAtg(*db);
  if (!atg.ok()) return 1;
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  if (!sys.ok()) {
    std::printf("publish: %s\n", sys.status().ToString().c_str());
    return 1;
  }
  UpdateSystem& s = **sys;

  // DAG compression at work (Fig.10(b)-style statistics).
  size_t shared = 0, c_nodes = 0;
  for (NodeId v : s.dag().LiveNodes()) {
    if (s.dag().node(v).type != "C") continue;
    ++c_nodes;
    if (s.dag().parents(v).size() > 1) ++shared;
  }
  std::printf(
      "published: DAG %zu nodes / %zu edges; tree expansion %zu nodes; "
      "%zu/%zu C nodes shared (%.1f%%); |M|=%zu, |L|=%zu\n\n",
      s.dag().num_nodes(), s.dag().num_edges(),
      s.dag().UncompressedTreeSize(), shared, c_nodes,
      100.0 * static_cast<double>(shared) / static_cast<double>(c_nodes),
      s.reachability().size(), s.topo().size());

  // Recursive queries over the hierarchy.
  for (const char* q :
       {"//C[payload=\"7\"]", "//C/sub/C/sub/C", "//C[sub/C[payload=\"3\"]]"}) {
    auto r = s.Query(q);
    std::printf("%-36s -> %zu node(s), side effects on update: %s\n", q,
                r.ok() ? r->selected.size() : 0,
                r.ok() && r->has_side_effects() ? "yes" : "no");
  }
  std::printf("\n");

  // A mixed update session generated by the workload machinery.
  auto dels = MakeDeletionWorkload(WorkloadClass::kW1, s.database(), 5, 1);
  auto inss = MakeInsertionWorkload(WorkloadClass::kW1, s.database(), 5, 2);
  if (!dels.ok() || !inss.ok()) return 1;
  size_t accepted = 0, rejected = 0, sat_ops = 0;
  double xpath = 0, translate = 0, maintain = 0;
  auto run = [&](const std::vector<std::string>& stmts) {
    for (const std::string& stmt : stmts) {
      Status st = s.ApplyStatement(stmt);
      const UpdateStats& us = s.last_stats();
      xpath += us.xpath_seconds;
      translate += us.translate_seconds;
      maintain += us.maintain_seconds;
      if (us.used_sat) ++sat_ops;
      if (st.ok()) {
        ++accepted;
      } else {
        ++rejected;
      }
      std::printf("  %-70.70s %s\n", stmt.c_str(),
                  st.ok() ? "ok" : st.ToString().c_str());
    }
  };
  std::printf("W1 deletions:\n");
  run(*dels);
  std::printf("W1 insertions (every third is a SAT-translated buddy "
              "insert):\n");
  run(*inss);
  std::printf(
      "\n%zu accepted, %zu rejected, %zu used the SAT encoding\n"
      "time: xpath %.1fms, translate %.1fms, maintenance %.1fms\n",
      accepted, rejected, sat_ops, xpath * 1e3, translate * 1e3,
      maintain * 1e3);

  // The invariant that makes all of this trustworthy.
  auto fresh = s.Republish();
  bool consistent =
      fresh.ok() && fresh->CanonicalEdges() == s.dag().CanonicalEdges();
  std::printf("incremental view == σ(updated base): %s\n",
              consistent ? "yes" : "NO");
  return consistent ? 0 : 1;
}
