#include "fault/fault_injector.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace mummi::fault {

void FaultInjector::arm(event::SimEngine& engine) {
  plan_.validate();
  for (const FaultEvent& ev : plan_.events()) {
    engine.schedule_after(ev.time, [this, ev] { apply(ev); });
  }
}

void FaultInjector::apply(const FaultEvent& ev) {
  obs::counter("fault.injected").inc();
  obs::counter(std::string("fault.") + to_string(ev.kind)).inc();
  obs::Tracer::instance().instant(std::string("fault.") + to_string(ev.kind),
                                  "fault");
  switch (ev.kind) {
    case FaultKind::kNodeCrash:
      if (scheduler_ && ev.target >= 0 &&
          ev.target < scheduler_->graph().n_nodes()) {
        const auto killed = scheduler_->fail_node(ev.target);
        jobs_killed_ += killed.size();
        obs::counter("fault.jobs_killed").inc(killed.size());
        util::log_debug("fault: node ", ev.target, " crashed, killed ",
                        killed.size(), " jobs");
      }
      break;
    case FaultKind::kNodeRecover:
      if (scheduler_ && ev.target >= 0 &&
          ev.target < scheduler_->graph().n_nodes()) {
        scheduler_->recover_node(ev.target);
        obs::counter("fault.recoveries").inc();
      }
      break;
    case FaultKind::kJobHang:
      if (executor_) {
        executor_->inject_hangs(ev.count);
        util::log_debug("fault: next ", ev.count, " launches will hang");
      }
      break;
    case FaultKind::kStragglerJob:
      if (executor_) {
        executor_->inject_stragglers(ev.count, ev.magnitude);
        util::log_debug("fault: next ", ev.count, " launches straggle x",
                        ev.magnitude);
      }
      break;
  }
  fired_.push_back(ev);
}

}  // namespace mummi::fault
