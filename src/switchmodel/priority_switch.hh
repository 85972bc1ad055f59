/**
 * @file
 * A user-defined switching paradigm (paper Section III-B1: "a user can
 * easily plug in their own switching algorithm ... to model new switch
 * designs").
 *
 * PrioritySwitch implements two-class strict-priority output queueing:
 * "mice" — frames at or below a size threshold, typical of RPC
 * requests and congestion-control signaling — jump ahead of queued
 * "elephant" bulk frames at each output port (never preempting a
 * packet already on the wire, which store-and-forward cannot do).
 * Under elephant-induced congestion this bounds mice latency at the
 * cost of elephant completion time; tests/switchmodel/ has the
 * demonstration, and DESIGN.md lists the design-choice ablation.
 */

#ifndef FIRESIM_SWITCH_PRIORITY_SWITCH_HH
#define FIRESIM_SWITCH_PRIORITY_SWITCH_HH

#include "switchmodel/switch.hh"

namespace firesim
{

class PrioritySwitch : public Switch
{
  public:
    /**
     * @param config base switch parameters
     * @param mice_threshold_bytes frames <= this are high priority
     */
    PrioritySwitch(SwitchConfig config, uint32_t mice_threshold_bytes = 128)
        : Switch(std::move(config)), miceThreshold(mice_threshold_bytes)
    {}

    uint64_t micePromotions() const { return promotions; }

  protected:
    void
    insertInQueue(OutputPort &port, QueuedPacket &&packet) override
    {
        if (packet.frame.size() > miceThreshold) {
            port.queue.push_back(std::move(packet));
            return;
        }
        // Mouse: insert after any queued mice but ahead of the first
        // elephant, keeping release timestamps monotone within the
        // class (they arrive pre-sorted from the switching step).
        size_t at = 0;
        while (at < port.queue.size() &&
               port.queue[at].frame.size() <= miceThreshold)
            ++at;
        if (at < port.queue.size())
            ++promotions;
        port.queue.insert(at, std::move(packet));
    }

  private:
    uint32_t miceThreshold;
    uint64_t promotions = 0;
};

} // namespace firesim

#endif // FIRESIM_SWITCH_PRIORITY_SWITCH_HH
