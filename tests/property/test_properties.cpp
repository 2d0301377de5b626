// Property-style parameterized sweeps over the library's core invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <set>

#include "datastore/tar_store.hpp"
#include "ml/fps_sampler.hpp"
#include "resgraph/matcher.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace mummi {
namespace {

// --- Scheduler conservation laws over machine shapes -----------------------

struct ShapeCase {
  sched::ClusterSpec spec;
  int cores_per_job;
  int gpus_per_job;
  const char* name;
};

class SchedulerConservation : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(SchedulerConservation, ResourcesNeverLeakOrOversubscribe) {
  const auto& c = GetParam();
  util::ManualClock clock;
  sched::Scheduler scheduler(c.spec, sched::MatchPolicy::kFirstMatch, clock);
  const auto& graph = scheduler.graph();
  const int nodes = c.spec.nodes;

  // The scheduler's books against what its running jobs hold: per node, free
  // plus allocated is the node's capacity, the totals are the jobs' sums, and
  // every active job is either pending or running.
  std::vector<sched::JobId> running;
  const auto check = [&](const char* after) {
    SCOPED_TRACE(after);
    std::vector<int> cores(nodes, 0), gpus(nodes, 0);
    int used_cores = 0, used_gpus = 0;
    for (const auto id : running) {
      const sched::Job& job = scheduler.job(id);
      ASSERT_EQ(job.state, sched::JobState::kRunning) << "job " << id;
      for (const auto& slot : job.alloc.slots) {
        cores[slot.node] += static_cast<int>(slot.cores.size());
        gpus[slot.node] += static_cast<int>(slot.gpus.size());
        used_cores += static_cast<int>(slot.cores.size());
        used_gpus += static_cast<int>(slot.gpus.size());
      }
    }
    for (int n = 0; n < nodes; ++n) {
      ASSERT_EQ(graph.free_cores(n) + cores[n], c.spec.cores_per_node())
          << "node " << n;
      ASSERT_EQ(graph.free_gpus(n) + gpus[n], c.spec.gpus_per_node)
          << "node " << n;
    }
    ASSERT_EQ(graph.used_cores(), used_cores);
    ASSERT_EQ(graph.used_gpus(), used_gpus);
    ASSERT_EQ(used_cores, static_cast<int>(running.size()) * c.cores_per_job);
    ASSERT_EQ(used_gpus, static_cast<int>(running.size()) * c.gpus_per_job);
    ASSERT_EQ(scheduler.running_count(), running.size());
    ASSERT_EQ(scheduler.pending_count() + scheduler.running_count(),
              scheduler.active_jobs().size());
  };
  const auto forget = [&](sched::JobId id) {
    running.erase(std::find(running.begin(), running.end(), id));
  };
  const auto pump = [&](int drained) {
    for (const auto id : scheduler.pump()) {
      for (const auto& slot : scheduler.job(id).alloc.slots)
        ASSERT_NE(slot.node, drained) << "job " << id << " on a drained node";
      running.push_back(id);
    }
  };

  // Churn: submit and start; cancel pending and running jobs; kill a node
  // and bring it back; drain a node and undrain it; complete a random half.
  util::Rng churn(99);
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 10; ++i) {
      sched::JobSpec spec;
      spec.type = "j";
      spec.request.slot = sched::Slot{c.cores_per_job, c.gpus_per_job};
      scheduler.submit(spec);
    }
    pump(-1);
    check("pump");

    auto active = scheduler.active_jobs();
    std::sort(active.begin(), active.end());
    for (const auto id : active) {
      const bool pending = scheduler.state(id) == sched::JobState::kPending;
      if (churn.uniform() >= (pending ? 0.2 : 0.1)) continue;
      ASSERT_TRUE(scheduler.cancel(id));
      if (!pending) forget(id);
      check(pending ? "cancel pending" : "cancel running");
      ASSERT_FALSE(scheduler.cancel(id));
      check("cancel again");
    }

    const int node = static_cast<int>(churn.uniform_index(nodes));
    if (round % 3 == 0) {
      for (const auto id : scheduler.fail_node(node)) forget(id);
      check("fail_node");
      pump(node);
      check("pump after fail_node");
      scheduler.recover_node(node);
      check("recover_node");
    } else if (round % 3 == 1) {
      scheduler.drain_node(node);
      check("drain_node");
      pump(node);
      check("pump while drained");
      scheduler.undrain_node(node);
      check("undrain_node");
    }
    pump(-1);
    check("pump after node churn");

    std::vector<sched::JobId> keep;
    for (const auto id : running) {
      if (churn.uniform() < 0.5)
        scheduler.complete(id, churn.uniform() < 0.9);
      else
        keep.push_back(id);
    }
    running = std::move(keep);
    check("complete");
  }
  for (const auto id : std::vector<sched::JobId>(running)) {
    scheduler.complete(id, true);
    forget(id);
  }
  check("drain out");
  EXPECT_EQ(graph.used_cores(), 0);
  EXPECT_EQ(graph.used_gpus(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchedulerConservation,
    ::testing::Values(
        ShapeCase{sched::ClusterSpec::summit(4), 3, 1, "summit_gpu"},
        ShapeCase{sched::ClusterSpec::summit(2), 24, 0, "summit_cpu"},
        ShapeCase{sched::ClusterSpec::sierra(3), 4, 1, "sierra"},
        ShapeCase{sched::ClusterSpec::laptop(), 1, 1, "laptop"},
        ShapeCase{{5, 1, 7, 3}, 2, 2, "odd_shape"}),
    [](const auto& info) { return info.param.name; });

// --- FPS invariants over dimension/seed sweeps ------------------------------

class FpsInvariants
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(FpsInvariants, SelectionsUniqueAndCountsConsistent) {
  const auto [dim, seed] = GetParam();
  util::Rng rng(seed);
  ml::FpsSampler fps(dim, 500);
  std::set<ml::PointId> all_ids;
  ml::PointId next = 1;
  std::set<ml::PointId> selected;
  for (int round = 0; round < 8; ++round) {
    std::vector<ml::HDPoint> batch;
    const int n = 20 + static_cast<int>(rng.uniform_index(60));
    for (int i = 0; i < n; ++i) {
      ml::HDPoint p;
      p.id = next++;
      p.coords.resize(static_cast<std::size_t>(dim));
      for (auto& c : p.coords) c = static_cast<float>(rng.normal());
      all_ids.insert(p.id);
      batch.push_back(std::move(p));
    }
    fps.add_candidates(batch);
    const auto picks = fps.select(5);
    for (const auto& p : picks) {
      // Never selects an id twice, never invents ids.
      ASSERT_TRUE(all_ids.count(p.id));
      ASSERT_TRUE(selected.insert(p.id).second);
    }
    // Accounting: candidates + selected <= ingested (eviction can drop).
    ASSERT_LE(fps.candidate_count() + fps.selected_count(), all_ids.size());
    ASSERT_EQ(fps.selected_count(), selected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, FpsInvariants,
    ::testing::Combine(::testing::Values(1, 3, 9, 16),
                       ::testing::Values(1u, 42u, 1234567u)));

// --- Tar store payload-size sweep -------------------------------------------

class TarPayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TarPayloadSweep, RoundTripsAndSurvivesReopen) {
  const std::size_t size = GetParam();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_prop_tar_" + std::to_string(::getpid()) + "_" +
                    std::to_string(size));
  std::filesystem::create_directories(dir);
  util::Rng rng(size + 1);
  util::Bytes payload(size);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  {
    ds::TarStore store(dir.string());
    store.put("ns", "key", payload);
    EXPECT_EQ(store.get("ns", "key"), payload);
    store.flush();
  }
  {
    ds::TarStore reopened(dir.string());
    EXPECT_EQ(reopened.get("ns", "key"), payload);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TarPayloadSweep,
                         ::testing::Values(0u, 1u, 511u, 512u, 513u, 1023u,
                                           4096u, 70000u, 1048576u));

// --- Matcher equivalence: both policies place identical totals --------------

class MatcherEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MatcherEquivalence, SamePlacementCapacity) {
  const int nodes = GetParam();
  sched::Request req;
  req.slot = sched::Slot{3, 1};
  int placed_fast = 0, placed_slow = 0;
  {
    sched::ResourceGraph g(sched::ClusterSpec::summit(nodes));
    sched::FirstMatchMatcher m;
    while (auto a = m.match(g, req)) {
      g.allocate(*a);
      ++placed_fast;
    }
  }
  {
    sched::ResourceGraph g(sched::ClusterSpec::summit(nodes));
    sched::ExhaustiveMatcher m;
    while (auto a = m.match(g, req)) {
      g.allocate(*a);
      ++placed_slow;
    }
  }
  EXPECT_EQ(placed_fast, placed_slow);
  EXPECT_EQ(placed_fast, nodes * 6);  // GPU-bound
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, MatcherEquivalence,
                         ::testing::Values(1, 3, 10, 40));

}  // namespace
}  // namespace mummi
