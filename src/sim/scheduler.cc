#include "sim/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace acp::sim
{

void
Component::wakeAt(Cycle cycle)
{
    if (!sched_)
        acp_fatal("component '%s' not attached to a scheduler",
                  componentName());
    if (cycle >= pendingWake_)
        return; // an earlier wake is already queued; it will re-ask
    pendingWake_ = cycle;
    sched_->enqueue(*this, cycle);
}

void
Scheduler::attach(Component &comp, bool front)
{
    if (comp.sched_)
        acp_fatal("component '%s' attached twice", comp.componentName());
    comp.sched_ = this;
    if (front) {
        comp.order_ = nextFrontOrder_--;
        components_.insert(components_.begin(), &comp);
    } else {
        comp.order_ = nextBackOrder_++;
        components_.push_back(&comp);
    }
}

void
Scheduler::enqueue(Component &comp, Cycle cycle)
{
    heap_.push_back(WakeEntry{cycle, comp.order_, &comp});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

std::size_t
Scheduler::pendingWakes() const
{
    std::size_t live = 0;
    for (const WakeEntry &e : heap_)
        if (e.comp->pendingWake_ == e.cycle)
            ++live;
    return live;
}

void
Scheduler::run()
{
    while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        WakeEntry top = heap_.back();
        heap_.pop_back();
        // A component re-woken earlier leaves its superseded entry in
        // the heap; skip it.
        if (top.comp->pendingWake_ != top.cycle)
            continue;
        top.comp->pendingWake_ = kCycleNever;
        if (hostStats_) {
            ++top.comp->hostWakes_;
            if (top.comp->lastWakeCycle_ != kCycleNever)
                top.comp->hostJumpHist_.sample(top.cycle -
                                               top.comp->lastWakeCycle_);
            top.comp->lastWakeCycle_ = top.cycle;
        }
        Cycle next = top.comp->onWake(top.cycle);
        if (next == kCycleNever)
            continue;
        if (next <= top.cycle)
            acp_fatal("component '%s' asked to wake at %llu from %llu "
                      "(time must advance)",
                      top.comp->componentName(), (unsigned long long)next,
                      (unsigned long long)top.cycle);
        top.comp->wakeAt(next);
    }
}

} // namespace acp::sim
