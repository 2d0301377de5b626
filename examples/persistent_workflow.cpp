// The paper's "Next Leap" (Sec. 6 outlook), implemented: "a persistent
// workflow that can coordinate variable sized allocations as resources
// become available on different clusters."
//
// One WorkflowManager state (selectors + ready buffers + restart counts)
// persists across:
//   - allocations of different sizes on the same machine (Table 1's
//     100 -> 1000-node restarts),
//   - an *elastic* allocation that grows mid-run,
//   - a migration to a different cluster (Summit-shaped -> Sierra-shaped),
// with the armored checkpoint file carrying the state between them.
//
// Run: ./persistent_workflow

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "util/checkpoint.hpp"
#include "util/rng.hpp"
#include "wm/workflow_manager.hpp"

using namespace mummi;

namespace {

wm::TrackerSet make_trackers() {
  wm::TrackerSet trackers;
  auto add = [&](const std::string& type, int cores, int gpus) {
    wm::JobTypeConfig cfg;
    cfg.type = type;
    cfg.request.slot = sched::Slot{cores, gpus};
    trackers.add(std::make_unique<wm::JobTracker>(cfg));
  };
  add("cg_setup", 20, 0);
  add("cg_sim", 3, 1);
  add("aa_setup", 18, 0);
  add("aa_sim", 3, 1);
  return trackers;
}

std::vector<ml::HDPoint> synth_patches(util::Rng& rng, ml::PointId& next,
                                       int n) {
  std::vector<ml::HDPoint> out;
  for (int i = 0; i < n; ++i) {
    ml::HDPoint p;
    p.id = next++;
    p.coords.resize(9);
    for (auto& c : p.coords) c = static_cast<float>(rng.normal());
    out.push_back(std::move(p));
  }
  return out;
}

/// Runs one allocation: restores WM state, keeps the machine loaded for a
/// few maintain cycles (completing work synchronously), checkpoints.
void run_allocation(const char* label, sched::ClusterSpec spec,
                    util::CheckpointFile& ckpt, util::Rng& rng,
                    ml::PointId& next_id, bool grow_mid_run = false) {
  util::ManualClock clock;
  sched::Scheduler scheduler(spec, sched::MatchPolicy::kFirstMatch, clock);
  wm::DirectBackend maestro(scheduler);
  auto trackers = make_trackers();
  wm::PatchSelector patch_selector(9, 5, 35000);
  wm::FrameSelector frame_selector(0.8, 21);
  wm::WmConfig cfg;
  wm::WorkflowManager wm(cfg, maestro, trackers, patch_selector,
                         frame_selector);
  if (const auto state = ckpt.load()) {
    util::ByteReader r(*state);
    wm.restore(r);
  }

  // Jobs complete instantly in this demo; trackers route setups -> sims.
  int sims_completed = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    wm.ingest_patches(cycle % 5, synth_patches(rng, next_id, 40));
    wm.maintain(200);
    clock.advance(600);
    // Everything running completes this cycle.
    for (const auto id : scheduler.active_jobs())
      if (scheduler.state(id) == sched::JobState::kRunning) {
        if (scheduler.job(id).spec.type == "cg_sim" ||
            scheduler.job(id).spec.type == "aa_sim")
          ++sims_completed;
        scheduler.complete(id, true);
      }
    if (grow_mid_run && cycle == 1) {
      scheduler.graph().expand(spec.nodes);  // the allocation doubles
      std::printf("  [%s] elastic growth: now %d nodes\n", label,
                  scheduler.graph().n_nodes());
    }
  }
  // Final fill so the buffers carry meaningful state.
  wm.maintain(200);
  for (const auto id : scheduler.active_jobs()) scheduler.cancel(id);

  util::ByteWriter state;
  wm.serialize(state);
  ckpt.save(state.data());
  std::printf("[%s] %d-node %s: %d sims completed | selector: %zu candidates, "
              "%zu selected | ready buffers: %zu CG + %zu AA\n",
              label, scheduler.graph().n_nodes(),
              spec.gpus_per_node == 6 ? "Summit-shaped" : "Sierra-shaped",
              sims_completed, patch_selector.candidate_count(),
              patch_selector.selected_count(), wm.cg_ready(), wm.aa_ready());
}

}  // namespace

int main() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_persist_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  util::CheckpointFile ckpt((dir / "workflow.ckpt").string());
  util::Rng rng(31);
  ml::PointId next_id = 1;

  std::printf("=== persistent workflow across allocations and clusters ===\n\n");
  // Allocation 1: small Summit slice.
  run_allocation("alloc-1", sched::ClusterSpec::summit(4), ckpt, rng, next_id);
  // Allocation 2: bigger slice, elastic growth mid-run.
  run_allocation("alloc-2", sched::ClusterSpec::summit(8), ckpt, rng, next_id,
                 /*grow_mid_run=*/true);
  // Allocation 3: a *different cluster* (Sierra shape, 4 GPUs/node) resumes
  // the same workflow state.
  run_allocation("alloc-3", sched::ClusterSpec::sierra(6), ckpt, rng, next_id);

  std::printf("\nthe workflow state (ML selectors, prepared buffers, restart "
              "ledger) outlived\nthree allocations on two machine shapes — "
              "\"decoupling compute from the system\nstate and dynamism of "
              "the workflow\" (Sec. 6).\n");
  std::filesystem::remove_all(dir);
  return 0;
}
