#include "workloads.hpp"

#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "continuum/gridsim2d.hpp"
#include "coupling/analysis.hpp"
#include "coupling/backmap.hpp"
#include "coupling/createsim.hpp"
#include "coupling/encoders.hpp"
#include "coupling/patch.hpp"
#include "datastore/red_store.hpp"
#include "feedback/aa2cg.hpp"
#include "feedback/cg2cont.hpp"
#include "mdengine/integrator.hpp"
#include "mdengine/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/executor.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "wm/campaign.hpp"
#include "wm/workflow_manager.hpp"

namespace perfbench {

using namespace mummi;

namespace {

/// splitmix64: decorrelates the per-component seeds derived from one seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t lane) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + lane * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string hex(const util::Bytes& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a(bytes.data(), bytes.size())));
  return buf;
}

// --- campaign_insitu --------------------------------------------------------

/// Fault-free campaign on a large machine at a low patch rate: the in-situ
/// analysis plane inside the maintain tick does nearly all the work.
class CampaignInsitu final : public Workload {
 public:
  CampaignInsitu(std::uint64_t seed, util::ThreadPool* pool) {
    wm::CampaignConfig cfg;
    cfg.runs = {{1000, 6, 2}};
    cfg.proteins_per_snapshot = 20;
    cfg.seed = mix(seed, 1);
    cfg.insitu_pool = pool;
    campaign_ = std::make_unique<wm::Campaign>(cfg);
  }

  PassResult run() override {
    PassResult out;
    util::Stopwatch wall;
    wm::CampaignResult result;
    {
      obs::Span root("bench.pass", "bench");
      result = campaign_->run();
    }
    out.wall_s = wall.elapsed();
    out.cycle_ms = {out.wall_s * 1e3};
    out.gpu_occupancy = result.profiler.mean_gpu_occupancy();
    out.fingerprint = hex(result.science_fingerprint());
    if (result.analysis_frames == 0 || result.patches_selected == 0)
      out.invalid = "campaign analyzed no frames or selected no patches";
    return out;
  }

 private:
  std::unique_ptr<wm::Campaign> campaign_;
};

// --- campaign_resilient -----------------------------------------------------

/// Small machine, high patch rate, faults + supervision + periodic
/// checkpoints, one simulated coordination-process crash and a resume by a
/// fresh Campaign: checkpoint writes, the resume read path, FPS patch
/// selection and the scheduler's failure paths dominate. A pass runs
/// kCampaigns such crash/resume campaigns with seeds derived from the workload
/// seed; one 16-node campaign is too small a sample for a steady wall time.
class CampaignResilient final : public Workload {
 public:
  static constexpr int kCampaigns = 6;

  CampaignResilient(std::uint64_t seed, util::ThreadPool* pool,
                    const std::string& scratch) {
    wm::CampaignConfig cfg;
    cfg.runs = {{16, 6, 2}};
    cfg.proteins_per_snapshot = 3000;
    cfg.perf.createsim_mean_s = 900;  // setup churn the watchdog can see
    cfg.frame_candidate_scale = 0.05;  // keep the frame sampler small
    cfg.insitu_pool = pool;
    cfg.supervise.enabled = true;
    // The fault plan is part of the scenario and fixed; the seed varies the
    // campaign around it.
    cfg.faults.job_hang_rate_per_h = 6.0;
    cfg.faults.hang_burst = 2;
    cfg.faults.straggler_rate_per_h = 2.0;
    cfg.faults.straggler_factor = 3.0;
    cfg.faults.node_crash_rate_per_h = 1.0;
    cfg.faults.node_down_mean_s = 600.0;
    cfg.faults.seed = 3;
    cfg.poison_payload_modulus = 97;
    // Two checkpoints per campaign, the crash after the second: on ext4 a
    // checkpoint that replaces an existing .bak forces a writeback of the
    // previous one, and those stalls swamp the pass.
    cfg.checkpoint_interval_s = 4 * 3600;
    for (int k = 0; k < kCampaigns; ++k) {
      Pair& p = pairs_.emplace_back();
      cfg.seed = mix(seed, 2 + 16 * static_cast<std::uint64_t>(k));
      p.ckpt_path = scratch + "/campaign" + std::to_string(k) + ".ckpt";
      cfg.checkpoint_path = p.ckpt_path;
      cfg.crash_at_campaign_h = 10.5;
      p.crashing = std::make_unique<wm::Campaign>(cfg);
      cfg.crash_at_campaign_h = 0;
      p.resuming = std::make_unique<wm::Campaign>(cfg);
    }
  }

  PassResult run() override {
    PassResult out;
    util::ByteWriter fingerprints;
    util::Stopwatch wall;
    {
      obs::Span root("bench.pass", "bench");
      for (Pair& p : pairs_) {
        util::Stopwatch cycle;
        bool crashed = false;
        try {
          (void)p.crashing->run();
        } catch (const wm::SimulatedCrash&) {
          crashed = true;
        }
        p.crashing.reset();  // the crashed process is gone
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(p.ckpt_path, ec);
        const wm::CampaignResult result = p.resuming->run();
        p.resuming.reset();
        out.cycle_ms.push_back(cycle.elapsed() * 1e3);

        out.checkpoint_bytes += ec ? 0.0 : static_cast<double>(bytes);
        out.gpu_occupancy += result.profiler.mean_gpu_occupancy();
        fingerprints.bytes(result.science_fingerprint());
        if (!crashed)
          out.invalid = "the simulated crash did not fire";
        else if (!result.resumed_from_checkpoint)
          out.invalid = "the fresh campaign did not resume from the checkpoint";
        else if (ec || bytes == 0)
          out.invalid = "the crash left no checkpoint";
      }
    }
    out.wall_s = wall.elapsed();
    out.checkpoint_bytes /= kCampaigns;
    out.gpu_occupancy /= kCampaigns;
    out.fingerprint = hex(std::move(fingerprints).take());
    return out;
  }

 private:
  struct Pair {
    std::string ckpt_path;
    std::unique_ptr<wm::Campaign> crashing, resuming;
  };
  std::vector<Pair> pairs_;
};

// --- three_scale ------------------------------------------------------------

/// Forwards to a feedback manager inside a benchmark span, so the WM's own
/// run_feedback() drives both loops while the trace still separates them.
class SpannedFeedback final : public fb::FeedbackManager {
 public:
  SpannedFeedback(fb::FeedbackManager& inner, std::string span)
      : inner_(inner), span_(std::move(span)) {}
  fb::IterationStats iterate() override {
    obs::Span span(span_, "feedback");
    return inner_.iterate();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  fb::FeedbackManager& inner_;
  std::string span_;
};

/// The real-physics pipeline at small size: continuum DDFT -> patches ->
/// selection -> createsim -> CG MD + in-situ analysis -> frame selection ->
/// backmapping -> AA MD + secondary structure -> KV puts -> both feedback
/// loops, driven cycle by cycle through WorkflowManager with inline payloads.
class ThreeScale final : public Workload {
 public:
  static constexpr int kCycles = 16;
  static constexpr int kContinuumSteps = 8;

  ThreeScale(std::uint64_t seed, util::ThreadPool* pool)
      : seed_(seed),
        pool_(pool),
        rng_(mix(seed, 4)),
        continuum_(continuum_config(pool)),
        scheduler_(sched::ClusterSpec::laptop(),
                   sched::MatchPolicy::kFirstMatch, clock_),
        maestro_(scheduler_),
        patch_selector_(9, 5, 35000),
        frame_selector_(0.8, mix(seed, 5)),
        store_(std::make_shared<ds::RedStore>(4)),
        cg_feedback_(store_, &continuum_),
        aa_feedback_(store_, aa_feedback_config()),
        cg_spanned_(cg_feedback_, "feedback.cg2cont"),
        aa_spanned_(aa_feedback_, "feedback.aa2cg"),
        creator_(13, 10.0),
        encoder_(continuum_.n_species(), 7),
        cg_ff_(coupling::make_cg_forcefield(continuum_.n_species())),
        aa_ff_(coupling::make_aa_forcefield()) {
    add_tracker("cg_setup", 2, 0);
    add_tracker("cg_sim", 1, 1);
    add_tracker("aa_setup", 2, 0);
    add_tracker("aa_sim", 1, 1);
    wm::WmConfig wm_cfg;
    wm_cfg.gpu_frac_cg = 0.5;  // laptop: 2 GPUs -> 1 CG + 1 AA
    wm_cfg.cg_ready_target = 1;
    wm_cfg.aa_ready_target = 1;
    wm_ = std::make_unique<wm::WorkflowManager>(
        wm_cfg, maestro_, trackers_, patch_selector_, frame_selector_);
    wm_->add_feedback(&cg_spanned_);
    wm_->add_feedback(&aa_spanned_);

    sched::PayloadRegistry payloads;
    payloads.register_type("cg_setup",
                           [this](const sched::Job& j) { return cg_setup(j); });
    payloads.register_type("cg_sim",
                           [this](const sched::Job& j) { return cg_sim(j); });
    payloads.register_type("aa_setup",
                           [this](const sched::Job& j) { return aa_setup(j); });
    payloads.register_type("aa_sim",
                           [this](const sched::Job& j) { return aa_sim(j); });
    executor_ = std::make_unique<sched::InlineExecutor>(std::move(payloads));
    scheduler_.on_start([this](const sched::Job& job) {
      const sched::JobId id = job.id;
      executor_->launch(job,
                        [this, id](bool ok) { scheduler_.complete(id, ok); });
    });
  }

  PassResult run() override {
    PassResult out;
    util::Stopwatch wall;
    {
      obs::Span root("bench.pass", "bench");
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        util::Stopwatch sw;
        run_cycle();
        out.cycle_ms.push_back(sw.elapsed() * 1e3);
      }
    }
    out.wall_s = wall.elapsed();
    out.gpu_occupancy = gpu_busy_s_ / out.wall_s;
    out.md_run_pairs = md_run_pairs_;

    util::ByteWriter w;
    w.bytes(continuum_.snapshot().serialize());
    w.vec(cg_feedback_.last_weights());
    const auto& params = aa_feedback_.params();
    w.str(params.consensus);
    w.f64(params.helix_ktheta);
    w.f64(params.sheet_ktheta);
    w.f64(params.coil_ktheta);
    w.u64(cg_sims_);
    w.u64(aa_sims_);
    w.u64(aa_feedback_.total_frames());
    out.fingerprint = hex(std::move(w).take());
    if (cg_sims_ == 0 || aa_sims_ == 0 || params.consensus.empty())
      out.invalid = "the coupling loop ran no CG or AA simulation";
    return out;
  }

 private:
  static cont::ContinuumConfig continuum_config(util::ThreadPool* pool) {
    cont::ContinuumConfig c;
    c.grid = 192;
    c.extent = 384.0;
    c.n_proteins = 6;
    c.seed = 42;  // the scenario; the seed varies the stochastic streams
    c.pool = pool;
    return c;
  }

  static fb::Aa2CgConfig aa_feedback_config() {
    fb::Aa2CgConfig c;
    c.pool_size = 2;
    c.batched = false;  // per-record GET + RENAME beside cg2cont's batches
    return c;
  }

  void add_tracker(const std::string& type, int cores, int gpus) {
    wm::JobTypeConfig cfg;
    cfg.type = type;
    cfg.request.slot = sched::Slot{cores, gpus};
    trackers_.add(std::make_unique<wm::JobTracker>(cfg));
  }

  void run_cycle() {
    {
      obs::Span span("continuum.step", "continuum");
      continuum_.step(kContinuumSteps);
    }
    std::vector<coupling::Patch> patches;
    std::vector<std::vector<ml::HDPoint>> by_queue(5);
    {
      obs::Span span("coupling.patch", "coupling");
      patches = creator_.create(continuum_.snapshot(), next_patch_id_);
      for (const auto& p : patches)
        by_queue[static_cast<std::size_t>(p.center_state())].push_back(
            {p.id, encoder_.encode(p)});
    }
    for (auto& p : patches) {
      const std::uint64_t id = p.id;
      patches_.emplace(id, std::move(p));
    }
    for (int q = 0; q < 5; ++q)
      if (!by_queue[static_cast<std::size_t>(q)].empty())
        wm_->ingest_patches(q, by_queue[static_cast<std::size_t>(q)]);
    if (!new_frames_.empty()) {
      wm_->ingest_frames(new_frames_);
      new_frames_.clear();
    }
    // Selection, createsim, CG MD, backmapping and AA MD all run inline
    // inside maintain(): the scheduler starts each job on submission.
    wm_->maintain(64);
    {
      obs::Span span("datastore.put", "datastore");
      for (const auto& [ns, key, value] : pending_puts_)
        store_->put(ns, key, value);
      pending_puts_.clear();
    }
    wm_->run_feedback();
  }

  bool cg_setup(const sched::Job& job) {
    const auto it = patches_.find(job.spec.payload);
    if (it == patches_.end()) return false;
    obs::Span span("coupling.createsim", "coupling");
    coupling::CgBuildConfig cfg;
    cfg.lipids_per_nm2 = 0.25;
    cfg.minimize_steps = 40;
    cfg.relax_steps = 15;
    cfg.pool = pool_;
    cg_ready_.insert_or_assign(job.spec.payload,
                               coupling::CreateSim(cfg).build(it->second, rng_));
    return true;
  }

  bool cg_sim(const sched::Job& job) {
    const auto it = cg_ready_.find(job.spec.payload);
    if (it == cg_ready_.end()) return false;
    util::Stopwatch busy;
    obs::Span span("mdengine.cg", "mdengine");
    coupling::CgSystemInfo& info = it->second;
    coupling::CgAnalysis analysis(info, job.spec.payload);
    md::SimulationConfig scfg;
    scfg.dt = 0.01;
    scfg.frame_interval = 20;
    scfg.pool = pool_;
    md::Simulation sim(info.system, cg_ff_,
                       std::make_unique<md::Langevin>(
                           310.0, 2.0, util::Rng(mix(seed_, 2 * job.spec.payload))),
                       scfg);
    sim.on_frame([&](const md::System& sys, long step, md::real) {
      obs::Span frame_span("coupling.cg_analysis", "coupling");
      const auto frame = analysis.analyze(sys, step);
      const std::uint64_t id = next_frame_id_++;
      new_frames_.push_back({id, frame.descriptor()});
      frame_catalog_.emplace(id, frame);
    });
    const std::uint64_t pairs0 = pair_counter().value();
    sim.run(240);
    md_run_pairs_ += static_cast<double>(pair_counter().value() - pairs0);

    fb::FeedbackRecord record;
    record.state = patches_.at(job.spec.payload).center_state();
    record.rdfs = analysis.take_rdfs();
    pending_puts_.push_back({"rdf-pending",
                             "sim-" + std::to_string(job.spec.payload),
                             record.serialize()});
    info.system = sim.system();  // backmapping starts from the final state
    ++cg_sims_;
    span.end();
    gpu_busy_s_ += busy.elapsed();
    return true;
  }

  bool aa_setup(const sched::Job& job) {
    const auto frame = frame_catalog_.find(job.spec.payload);
    if (frame == frame_catalog_.end()) return false;
    const auto cg = cg_ready_.find(frame->second.sim_id);
    if (cg == cg_ready_.end()) return false;
    obs::Span span("coupling.backmap", "coupling");
    coupling::AaBuildConfig cfg;
    cfg.minimize_steps = 12;
    cfg.restrained_steps = 6;
    cfg.pool = pool_;
    aa_ready_.insert_or_assign(job.spec.payload,
                               coupling::Backmapper(cfg).build(cg->second, rng_));
    return true;
  }

  bool aa_sim(const sched::Job& job) {
    const auto it = aa_ready_.find(job.spec.payload);
    if (it == aa_ready_.end()) return false;
    const coupling::AaSystemInfo info = std::move(it->second);
    aa_ready_.erase(it);
    util::Stopwatch busy;
    obs::Span span("mdengine.aa", "mdengine");
    coupling::AaAnalysis analysis(info.backbone, job.spec.payload);
    md::SimulationConfig scfg;
    scfg.dt = 0.002;
    scfg.frame_interval = 15;
    scfg.pool = pool_;
    md::Simulation sim(info.system, aa_ff_,
                       std::make_unique<md::Langevin>(
                           310.0, 5.0, util::Rng(mix(seed_, 2 * job.spec.payload + 1))),
                       scfg);
    sim.on_frame([&](const md::System& sys, long step, md::real) {
      obs::Span frame_span("coupling.aa_analysis", "coupling");
      std::string pattern = analysis.analyze(sys);
      util::Bytes value(pattern.begin(), pattern.end());
      pending_puts_.push_back({"ss-pending",
                               "f" + std::to_string(job.spec.payload) + "-" +
                                   std::to_string(step),
                               std::move(value)});
    });
    const std::uint64_t pairs0 = pair_counter().value();
    sim.run(45);
    md_run_pairs_ += static_cast<double>(pair_counter().value() - pairs0);
    ++aa_sims_;
    span.end();
    gpu_busy_s_ += busy.elapsed();
    return true;
  }

  static obs::Counter& pair_counter() {
    static obs::Counter& c = obs::counter("md.force.pairs");
    return c;
  }

  struct Put {
    std::string ns, key;
    util::Bytes value;
  };

  std::uint64_t seed_;
  util::ThreadPool* pool_;
  util::Rng rng_;
  cont::GridSim2D continuum_;
  util::ManualClock clock_;
  sched::Scheduler scheduler_;
  wm::DirectBackend maestro_;
  wm::TrackerSet trackers_;
  wm::PatchSelector patch_selector_;
  wm::FrameSelector frame_selector_;
  std::shared_ptr<ds::RedStore> store_;
  fb::CgToContinuumFeedback cg_feedback_;
  fb::AaToCgFeedback aa_feedback_;
  SpannedFeedback cg_spanned_, aa_spanned_;
  coupling::PatchCreator creator_;
  coupling::PatchEncoder encoder_;
  std::shared_ptr<const md::ForceField> cg_ff_, aa_ff_;
  std::unique_ptr<wm::WorkflowManager> wm_;
  std::unique_ptr<sched::InlineExecutor> executor_;

  std::uint64_t next_patch_id_ = 1;
  std::uint64_t next_frame_id_ = 1;
  std::map<std::uint64_t, coupling::Patch> patches_;
  std::map<std::uint64_t, coupling::CgSystemInfo> cg_ready_;
  std::map<std::uint64_t, coupling::CgFrameInfo> frame_catalog_;
  std::map<std::uint64_t, coupling::AaSystemInfo> aa_ready_;
  std::vector<ml::HDPoint> new_frames_;
  std::vector<Put> pending_puts_;
  std::uint64_t cg_sims_ = 0, aa_sims_ = 0;
  double gpu_busy_s_ = 0;
  double md_run_pairs_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "campaign_insitu", "campaign_resilient", "three_scale"};
  return names;
}

bool is_campaign(const std::string& name) {
  return name == "campaign_insitu" || name == "campaign_resilient";
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        util::ThreadPool* pool,
                                        const std::string& scratch) {
  if (name == "campaign_insitu")
    return std::make_unique<CampaignInsitu>(seed, pool);
  if (name == "campaign_resilient")
    return std::make_unique<CampaignResilient>(seed, pool, scratch);
  if (name == "three_scale") return std::make_unique<ThreeScale>(seed, pool);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
