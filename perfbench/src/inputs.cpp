#include "inputs.hpp"

#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "workflows/families.hpp"
#include "workflows/json_io.hpp"
#include "workflows/real_world.hpp"

namespace perfbench {

namespace wf = dagpm::workflows;

namespace {

Document synthetic(wf::Family family, int tasks, std::uint64_t genSeed) {
  wf::GenConfig cfg;
  cfg.numTasks = tasks;
  cfg.seed = genSeed;
  Document doc;
  doc.name = wf::familyName(family) + "-n" + std::to_string(tasks) + "-g" +
             std::to_string(genSeed);
  doc.json = wf::workflowToJson(wf::generate(family, cfg), doc.name);
  return doc;
}

void appendRealWorld(std::vector<Document>& docs, std::uint64_t genSeed) {
  wf::RealWorldConfig cfg;
  cfg.seed = genSeed;
  for (const wf::RealWorkflow& real : wf::realWorldSuite(cfg)) {
    Document doc;
    doc.name = "real-" + real.name + "-g" + std::to_string(genSeed);
    doc.json = wf::workflowToJson(real.dag, doc.name);
    docs.push_back(std::move(doc));
  }
}

}  // namespace

std::vector<Document> paperMergeDocuments(std::uint64_t seed) {
  std::vector<Document> docs;
  for (int k = 0; k < kPaperSeedsPerRun; ++k) {
    const std::uint64_t genSeed = mixSeed(seed, static_cast<std::uint64_t>(k));
    for (const wf::Family family : wf::allFamilies()) {
      for (const int tasks : {200, 300}) {
        docs.push_back(synthetic(family, tasks, genSeed));
      }
    }
    appendRealWorld(docs, genSeed);
  }
  return docs;
}

std::vector<Document> unitRescaleDocuments() {
  std::vector<Document> docs;
  docs.push_back(synthetic(wf::Family::kSeismology, 1000, 1));
  docs.push_back(synthetic(wf::Family::kBwa, 1000, 1));
  docs.push_back(synthetic(wf::Family::kEpigenomics, 1000, 1));
  docs.push_back(synthetic(wf::Family::kEpigenomics, 3000, 1));
  docs.push_back(synthetic(wf::Family::kMontage, 3000, 1));
  appendRealWorld(docs, 1);
  return docs;
}

std::vector<Document> ladderSwapDocuments(std::uint64_t seed) {
  std::vector<Document> docs;
  for (std::uint64_t k = 0; k < kLadderSeedsPerRun; ++k) {
    const std::uint64_t genSeed = mixSeed(seed, 1000 + k);
    for (const wf::Family family :
         {wf::Family::kMontage, wf::Family::kEpigenomics, wf::Family::kBwa}) {
      docs.push_back(synthetic(family, kLadderTasks, genSeed));
    }
  }
  return docs;
}

dagpm::graph::Dag parseDocument(const Document& doc) {
  std::string error;
  std::optional<dagpm::graph::Dag> g = wf::workflowFromJson(doc.json, &error);
  if (!g) throw std::runtime_error("cannot parse " + doc.name + ": " + error);
  return std::move(*g);
}

dagpm::platform::Cluster buildCluster(const dagpm::graph::Dag& g,
                                      ClusterKind kind) {
  using dagpm::platform::Heterogeneity;
  dagpm::platform::Cluster cluster =
      kind == ClusterKind::kPaper
          ? dagpm::platform::makeCluster(Heterogeneity::kDefault,
                                         dagpm::platform::ClusterSize::kDefault)
          : dagpm::platform::makeCluster(Heterogeneity::kDefault, 12);
  // Sec. 5.1.2: grow memories proportionally until the most demanding task
  // fits somewhere.
  cluster.scaleMemoriesToFit(g.maxTaskMemoryRequirement());
  if (kind == ClusterKind::kLadder) {
    // Swap-heavy regime: grow further until the aggregate capacity covers
    // the workflow's total task requirement, so one k' = k arm schedules.
    double required = 0.0;
    for (dagpm::graph::VertexId v = 0; v < g.numVertices(); ++v) {
      required += g.taskMemoryRequirement(v);
    }
    double capacity = 0.0;
    for (dagpm::platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
      capacity += cluster.memory(p);
    }
    if (capacity < required) {
      cluster.scaleMemoriesToFit(cluster.largestMemory() * required / capacity);
    }
  }
  return cluster;
}

std::vector<Instance> parseInstances(const std::vector<Document>& docs,
                                     ClusterKind kind) {
  std::vector<Instance> out;
  out.reserve(docs.size());
  for (const Document& doc : docs) {
    Instance inst;
    inst.name = doc.name;
    inst.dag = parseDocument(doc);
    inst.cluster = buildCluster(inst.dag, kind);
    out.push_back(std::move(inst));
  }
  return out;
}

bool sameSchedule(const dagpm::scheduler::ScheduleResult& a,
                  const dagpm::scheduler::ScheduleResult& b) {
  return a.feasible == b.feasible && a.makespan == b.makespan &&
         a.blockOf == b.blockOf && a.procOfBlock == b.procOfBlock;
}

}  // namespace perfbench
