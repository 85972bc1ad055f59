/**
 * @file
 * Test helper: a single-port endpoint that transmits pre-scripted frames
 * at exact cycles and records every received frame with its arrival
 * timestamp. Used by the fabric and switch tests to verify the token
 * protocol's delivery-cycle arithmetic.
 */

#ifndef FIRESIM_TESTS_NET_SCRIPTED_ENDPOINT_HH
#define FIRESIM_TESTS_NET_SCRIPTED_ENDPOINT_HH

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "net/eth.hh"
#include "net/fabric.hh"

namespace firesim
{

class ScriptedEndpoint : public TokenEndpoint
{
  public:
    explicit ScriptedEndpoint(std::string name) : label(std::move(name)) {}

    /**
     * Schedule @p frame to start leaving at cycle @p start, one flit per
     * cycle. Calls must be in increasing, non-overlapping cycle order.
     */
    void
    sendAt(Cycles start, const EthFrame &frame)
    {
        FrameSerializer ser(frame);
        Cycles c = start;
        while (!ser.done()) {
            Flit flit = ser.next();
            txScript.emplace_back(c++, flit);
        }
    }

    uint32_t numPorts() const override { return 1; }
    std::string name() const override { return label; }

    void
    advance(Cycles window_start, Cycles window,
            const std::vector<const TokenBatch *> &in,
            const std::vector<TokenBatch *> &out) override
    {
        // Receive side.
        for (const Flit &flit : in[0]->flits) {
            EthFrame frame;
            if (rx.feed(flit, in[0]->absCycle(flit), frame))
                received.emplace_back(frame.timestamp, std::move(frame));
        }
        // Transmit side.
        Cycles window_end = window_start + window;
        while (!txScript.empty() && txScript.front().first < window_end) {
            auto [cycle, flit] = txScript.front();
            FS_ASSERT(cycle >= window_start,
                      "scripted flit at %llu missed its window",
                      (unsigned long long)cycle);
            flit.offset = static_cast<uint32_t>(cycle - window_start);
            out[0]->push(flit);
            txScript.pop_front();
        }
    }

    /** (arrival cycle of last token, frame) for every received frame. */
    std::vector<std::pair<Cycles, EthFrame>> received;

  private:
    std::string label;
    std::deque<std::pair<Cycles, Flit>> txScript;
    FrameAssembler rx;
};

} // namespace firesim

#endif // FIRESIM_TESTS_NET_SCRIPTED_ENDPOINT_HH
