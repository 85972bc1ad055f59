#include "net/fabric.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "net/token_io.hh"
#include "snapshot/serial.hh"

namespace firesim
{

TokenChannel::TokenChannel(Cycles latency, Cycles quantum)
    : lat(latency), quant(quantum)
{
    FS_ASSERT(latency > 0, "link latency must be nonzero");
    FS_ASSERT(quantum > 0 && latency % quantum == 0,
              "quantum %llu must divide latency %llu",
              (unsigned long long)quantum, (unsigned long long)latency);
    // Ring sized for the invariant occupancy plus slack, so the slot a
    // producer fills is never the one its consumer reads that round.
    slots.resize(static_cast<size_t>(latency / quantum) + 2);
    // Seed the link with latency/quantum batches of empty tokens: the
    // first `latency` arrival cycles carry nothing because nothing was
    // transmitted before target cycle 0.
    for (Cycles at = 0; at < latency; at += quantum) {
        claim(at); // seeds are stamped with their arrival cycles
        enqueueTail();
        nextPushStart = at + quantum;
    }
}

void
TokenChannel::enqueueTail()
{
    ++used;
    if (used < slots.size())
        return;
    std::vector<TokenBatch> bigger(slots.size() * 2);
    for (size_t i = 0; i < used; ++i)
        bigger[i] = std::move(slots[(head + i) % slots.size()]);
    slots = std::move(bigger);
    head = 0;
}

TokenChannel::PushError
TokenChannel::accepts(const TokenBatch &batch) const
{
    if (batch.len != quant)
        return PushError::BadLength;
    if (batch.start + lat != nextPushStart)
        return PushError::NonContiguous;
    return PushError::Ok;
}

TokenBatch &
TokenChannel::claim(Cycles production_start)
{
    return slots[(head + used) % slots.size()].reset(
        production_start, static_cast<uint32_t>(quant));
}

void
TokenChannel::publish()
{
    TokenBatch &batch = slots[(head + used) % slots.size()];
    FS_ASSERT(batch.len == quant,
              "batch len %u != channel quantum %llu on %s", batch.len,
              (unsigned long long)quant, lbl.c_str());
    // Restamp from production time to arrival time: a token produced at
    // cycle M is consumed at M + latency.
    batch.start += lat;
    FS_ASSERT(batch.start == nextPushStart,
              "non-contiguous batch push on %s: got %llu expected %llu",
              lbl.c_str(), (unsigned long long)batch.start,
              (unsigned long long)nextPushStart);
    nextPushStart += quant;
    enqueueTail();
}

void
TokenChannel::push(const TokenBatch &batch)
{
    TokenBatch &slot = claim(batch.start);
    slot.len = batch.len;
    slot.flits.assign(batch.flits.begin(), batch.flits.end());
    publish();
}

void
TokenChannel::pushRaw(TokenBatch batch)
{
    batch.start += lat;
    claim(0) = std::move(batch);
    enqueueTail();
}

TokenBatch &
TokenChannel::pop()
{
    FS_ASSERT(used > 0, "pop from empty token channel %s", lbl.c_str());
    TokenBatch &batch = slots[head];
    head = (head + 1) % slots.size();
    --used;
    nextPopStart = batch.start + quant;
    return batch;
}

void
TokenChannel::skip(Cycles span)
{
    FS_ASSERT(span % quant == 0, "skip of %llu cycles on %s is not a "
              "multiple of the quantum %llu",
              (unsigned long long)span, lbl.c_str(),
              (unsigned long long)quant);
    for (size_t i = 0; i < used; ++i) {
        TokenBatch &batch = slots[(head + i) % slots.size()];
        FS_ASSERT(batch.isEmpty(),
                  "fast-forward over payload in flight on %s at %llu",
                  lbl.c_str(), (unsigned long long)batch.start);
        batch.start += span;
    }
    nextPushStart += span;
    nextPopStart += span;
}

void
TokenFabric::addEndpoint(TokenEndpoint *endpoint)
{
    FS_ASSERT(!finalized, "cannot add endpoints after finalize()");
    FS_ASSERT(endpoint != nullptr, "null endpoint");
    for (const auto &state : endpoints)
        FS_ASSERT(state.endpoint != endpoint, "endpoint %s added twice",
                  endpoint->name().c_str());
    EndpointState state;
    state.endpoint = endpoint;
    state.in.assign(endpoint->numPorts(), nullptr);
    state.out.assign(endpoint->numPorts(), nullptr);
    state.remoteOut.assign(endpoint->numPorts(), -1);
    state.inIndex.assign(endpoint->numPorts(), 0);
    state.outIndex.assign(endpoint->numPorts(), 0);
    endpoints.push_back(std::move(state));
}

TokenFabric::EndpointState &
TokenFabric::stateFor(TokenEndpoint *endpoint)
{
    for (auto &state : endpoints)
        if (state.endpoint == endpoint)
            return state;
    panic("endpoint %s not registered with fabric",
          endpoint->name().c_str());
}

void
TokenFabric::connect(TokenEndpoint *a, uint32_t port_a, TokenEndpoint *b,
                     uint32_t port_b, Cycles latency)
{
    FS_ASSERT(!finalized, "cannot connect after finalize()");
    EndpointState &sa = stateFor(a);
    EndpointState &sb = stateFor(b);
    FS_ASSERT(port_a < sa.in.size(), "port %u out of range on %s", port_a,
              a->name().c_str());
    FS_ASSERT(port_b < sb.in.size(), "port %u out of range on %s", port_b,
              b->name().c_str());
    for (const auto &link : pendingLinks) {
        bool clash = (link.a == a && link.portA == port_a) ||
                     (link.b == a && link.portB == port_a) ||
                     (link.a == b && link.portA == port_b) ||
                     (link.b == b && link.portB == port_b);
        if (clash)
            fatal("port already connected (%s:%u or %s:%u)",
                  a->name().c_str(), port_a, b->name().c_str(), port_b);
    }
    for (const auto &rl : pendingRemote) {
        if ((rl.local == a && rl.port == port_a) ||
            (rl.local == b && rl.port == port_b))
            fatal("port already remote-connected (%s:%u or %s:%u)",
                  a->name().c_str(), port_a, b->name().c_str(), port_b);
    }

    // Channels are constructed at finalize() time, once the fabric
    // quantum (min latency) is known.
    pendingLinks.push_back(Link{a, port_a, b, port_b, latency});
}

void
TokenFabric::connectRemote(TokenEndpoint *local, uint32_t port,
                           Cycles latency, uint32_t rx_link_id,
                           uint32_t tx_link_id,
                           const std::string &peer_label)
{
    FS_ASSERT(!finalized, "cannot connectRemote after finalize()");
    FS_ASSERT(rx_link_id != tx_link_id,
              "remote link directions need distinct ids (got %u twice)",
              rx_link_id);
    EndpointState &state = stateFor(local);
    FS_ASSERT(port < state.in.size(), "port %u out of range on %s", port,
              local->name().c_str());
    for (const auto &link : pendingLinks) {
        if ((link.a == local && link.portA == port) ||
            (link.b == local && link.portB == port))
            fatal("port already connected (%s:%u)", local->name().c_str(),
                  port);
    }
    for (const auto &rl : pendingRemote) {
        if (rl.local == local && rl.port == port)
            fatal("port already remote-connected (%s:%u)",
                  local->name().c_str(), port);
        if (rl.rxLinkId == rx_link_id || rl.txLinkId == tx_link_id)
            fatal("remote link id %u used twice",
                  rl.rxLinkId == rx_link_id ? rx_link_id : tx_link_id);
    }
    pendingRemote.push_back(RemoteLink{local, port, latency, rx_link_id,
                                       tx_link_id, peer_label, {}});
}

TokenChannel *
TokenFabric::remoteRxChannel(uint32_t link_id) const
{
    for (const auto &rx : remoteRx)
        if (rx.first == link_id)
            return rx.second;
    return nullptr;
}

void
TokenFabric::setRemoteHook(RemoteRoundHook *hook)
{
    FS_ASSERT(!running, "setRemoteHook() mid-run");
    remoteHook = hook;
}

void
TokenFabric::setFunctionalMode(Cycles window)
{
    FS_ASSERT(!finalized, "setFunctionalMode() after finalize()");
    if (window == 0)
        fatal("functional-mode window must be nonzero");
    functionalWindow = window;
}

void
TokenFabric::setParallelHosts(unsigned hosts)
{
    FS_ASSERT(!running, "setParallelHosts() mid-run");
    parHosts = hosts == 0 ? 1 : hosts;
    if (parHosts < 2) {
        workers.reset();
    } else if (!workers || workers->width() != parHosts) {
        workers = std::make_unique<ThreadPool>(parHosts);
        if (finalized)
            sched.configure(endpoints.size(), parHosts);
    }
}

void
TokenFabric::finalize()
{
    FS_ASSERT(!finalized, "finalize() called twice");
    if (pendingLinks.empty() && pendingRemote.empty())
        fatal("token fabric has no links");

    if (functionalWindow) {
        // Purely functional networking: coarsen every link to the
        // window so the decoupled endpoints advance in big strides.
        for (auto &link : pendingLinks)
            link.latency = functionalWindow;
        for (auto &rl : pendingRemote)
            rl.latency = functionalWindow;
        warn("functional network mode: link timing quantized to %llu "
             "cycles",
             (unsigned long long)functionalWindow);
    }

    // The quantum spans *all* links, remote included: every shard of a
    // distributed target derives the same quantum from the same
    // topology, which the round barrier depends on.
    quant = pendingLinks.empty() ? pendingRemote.front().latency
                                 : pendingLinks.front().latency;
    for (const auto &link : pendingLinks)
        quant = std::min(quant, link.latency);
    for (const auto &rl : pendingRemote)
        quant = std::min(quant, rl.latency);
    for (const auto &link : pendingLinks) {
        if (link.latency % quant != 0) {
            fatal("link latency %llu not a multiple of fabric quantum "
                  "%llu; use commensurate latencies",
                  (unsigned long long)link.latency,
                  (unsigned long long)quant);
        }
    }
    for (const auto &rl : pendingRemote) {
        if (rl.latency % quant != 0) {
            fatal("remote link latency %llu not a multiple of fabric "
                  "quantum %llu; use commensurate latencies",
                  (unsigned long long)rl.latency,
                  (unsigned long long)quant);
        }
    }

    for (const auto &link : pendingLinks) {
        EndpointState &sa = stateFor(link.a);
        EndpointState &sb = stateFor(link.b);
        auto ab = std::make_unique<TokenChannel>(link.latency, quant);
        auto ba = std::make_unique<TokenChannel>(link.latency, quant);
        ab->setLabel(csprintf("%s:%u->%s:%u", link.a->name().c_str(),
                              link.portA, link.b->name().c_str(),
                              link.portB));
        ba->setLabel(csprintf("%s:%u->%s:%u", link.b->name().c_str(),
                              link.portB, link.a->name().c_str(),
                              link.portA));
        sa.out[link.portA] = ab.get();
        sb.in[link.portB] = ab.get();
        sb.out[link.portB] = ba.get();
        sa.in[link.portA] = ba.get();
        sa.outIndex[link.portA] = sb.inIndex[link.portB] = channels.size();
        channels.push_back(std::move(ab));
        sb.outIndex[link.portB] = sa.inIndex[link.portA] = channels.size();
        channels.push_back(std::move(ba));
    }

    for (size_t i = 0; i < pendingRemote.size(); ++i) {
        const RemoteLink &rl = pendingRemote[i];
        EndpointState &state = stateFor(rl.local);
        // RX half only: seeded like any channel, so the first
        // latency/quantum rounds pop empty batches while the peer's
        // first productions are in flight on the socket.
        auto rx = std::make_unique<TokenChannel>(rl.latency, quant);
        rx->setLabel(csprintf("%s->%s:%u [remote link %u]",
                              rl.peerLabel.c_str(),
                              rl.local->name().c_str(), rl.port,
                              rl.rxLinkId));
        state.in[rl.port] = rx.get();
        state.inIndex[rl.port] = channels.size();
        state.remoteOut[rl.port] = static_cast<int64_t>(i);
        remoteRx.emplace_back(rl.rxLinkId, rx.get());
        channels.push_back(std::move(rx));
    }

    size_t widest = 0;
    for (auto &state : endpoints) {
        for (uint32_t p = 0; p < state.in.size(); ++p) {
            bool tx_ok = state.out[p] || state.remoteOut[p] >= 0;
            if (!state.in[p] || !tx_ok)
                fatal("port %u of endpoint %s left unconnected", p,
                      state.endpoint->name().c_str());
        }
        state.inPtrs.resize(state.in.size());
        state.outPtrs.resize(state.in.size());
        outPorts += state.out.size();
        widest = std::max(widest, state.out.size());
    }
    ffOut.resize(widest);

    if (stepOrder.empty()) {
        stepOrder.resize(endpoints.size());
        std::iota(stepOrder.begin(), stepOrder.end(), 0);
    }

    if (workers)
        sched.configure(endpoints.size(), workers->width());

    finalized = true;
}

void
TokenFabric::setStepOrder(std::vector<size_t> order)
{
    FS_ASSERT(order.size() == endpoints.size() || order.empty(),
              "step order size mismatch");
    stepOrder = std::move(order);
}

void
TokenFabric::addObserver(FabricObserver *observer)
{
    FS_ASSERT(observer != nullptr, "null fabric observer");
    FS_ASSERT(!running, "cannot attach observers mid-run");
    observers.push_back(observer);
    observer->onAttach(*this);
}

int
TokenFabric::endpointIndexOf(const std::string &name) const
{
    for (size_t i = 0; i < endpoints.size(); ++i)
        if (endpoints[i].endpoint->name() == name)
            return static_cast<int>(i);
    return -1;
}

bool
TokenFabric::channelIsRemoteRx(size_t idx) const
{
    const TokenChannel *chan = channels.at(idx).get();
    for (const auto &rx : remoteRx)
        if (rx.second == chan)
            return true;
    return false;
}

int
TokenFabric::txChannelOf(size_t endpoint_idx, uint32_t port) const
{
    if (endpoint_idx >= endpoints.size())
        return -1;
    const EndpointState &state = endpoints[endpoint_idx];
    if (port >= state.out.size() || !state.out[port])
        return -1;
    return static_cast<int>(state.outIndex[port]);
}

bool
TokenFabric::reportAnomaly(FabricObserver::Anomaly kind,
                           size_t endpoint_idx, uint32_t port,
                           size_t channel_idx, const TokenBatch &batch)
{
    bool recovered = false;
    for (FabricObserver *obs : observers)
        recovered |= obs->onAnomaly(kind, endpoint_idx, port, channel_idx,
                                    curCycle, batch);
    return recovered;
}

void
TokenFabric::prepareEndpoint(size_t idx)
{
    EndpointState &state = endpoints[idx];
    auto quantum = static_cast<uint32_t>(quant);

    state.down = false;
    for (FabricObserver *obs : observers)
        state.down |= obs->endpointDown(idx, curCycle);

    for (uint32_t p = 0; p < state.in.size(); ++p) {
        TokenChannel *chan = state.in[p];
        if (!chan->ready()) {
            missingBatch.reset(chan->nextPopCycle(), quantum);
            if (!reportAnomaly(FabricObserver::Anomaly::ChannelUnderflow,
                               idx, p, state.inIndex[p], missingBatch)) {
                panic("channel underflow into %s:%u (%s)",
                      state.endpoint->name().c_str(), p,
                      chan->label().c_str());
            }
            state.inPtrs[p] = &missingBatch.reset(curCycle, quantum);
            continue;
        }
        TokenBatch &batch = chan->pop();
        if (batch.start != curCycle) {
            if (!reportAnomaly(FabricObserver::Anomaly::StaleBatch, idx, p,
                               state.inIndex[p], batch)) {
                panic("non-contiguous batch pop on %s: got %llu "
                      "expected %llu",
                      chan->label().c_str(),
                      (unsigned long long)batch.start,
                      (unsigned long long)curCycle);
            }
            // Recover by restamping the payload into the current window
            // (a real lossy transport delivers late tokens late).
            batch.start = curCycle;
            batch.len = quantum;
        }
        state.inPtrs[p] = &batch;
    }

    for (uint32_t p = 0; p < state.out.size(); ++p) {
        state.outPtrs[p] =
            state.out[p] ? &state.out[p]->claim(curCycle)
                         : &pendingRemote[state.remoteOut[p]].tx.reset(
                               curCycle, quantum);
    }

    if (state.down) {
        // Graceful degradation: a crashed / stalled endpoint keeps the
        // token protocol alive with the empty batches claimed above so
        // every other endpoint stays cycle-exact. Notified here, on the
        // driving thread, so only the advance brackets ever run on
        // workers.
        for (FabricObserver *obs : observers)
            obs->onEndpointSkipped(idx, curCycle);
    }
}

void
TokenFabric::advanceEndpoint(size_t idx)
{
    EndpointState &state = endpoints[idx];
    if (state.down)
        return;
    for (FabricObserver *obs : observers)
        obs->onAdvanceStart(idx, curCycle);
    state.endpoint->advance(curCycle, quant, state.inPtrs, state.outPtrs);
    for (FabricObserver *obs : observers)
        obs->onAdvanceEnd(idx, curCycle);
}

void
TokenFabric::commitEndpoint(size_t idx)
{
    EndpointState &state = endpoints[idx];
    for (uint32_t p = 0; p < state.out.size(); ++p) {
        TokenBatch &batch = *state.outPtrs[p];
        TokenChannel *chan = state.out[p];
        ++batchCount;
        if (!chan) {
            // Remote TX: no local channel — serialize the batch to the
            // peer shard instead. Still on the driving thread in step
            // order, so the byte stream (and therefore the peer's
            // simulation) is independent of the worker count. The
            // length invariant is the publish()-side check; contiguity
            // is re-checked by the peer's RX push().
            uint32_t link = pendingRemote[state.remoteOut[p]].txLinkId;
            FS_ASSERT(batch.len == quant,
                      "batch len %u != quantum %llu on remote link %u",
                      batch.len, (unsigned long long)quant, link);
            remoteHook->onTxBatch(link, batch);
            continue;
        }
        for (FabricObserver *obs : observers)
            obs->onTransmit(state.outIndex[p], batch);
        TokenChannel::PushError err = chan->accepts(batch);
        if (err != TokenChannel::PushError::Ok &&
            reportAnomaly(err == TokenChannel::PushError::BadLength
                              ? FabricObserver::Anomaly::BadLength
                              : FabricObserver::Anomaly::NonContiguous,
                          idx, p, state.outIndex[p], batch)) {
            // Substitute a well-formed empty batch to keep the
            // channel's token stream intact.
            batch.reset(curCycle, static_cast<uint32_t>(quant));
        }
        // Panics with the channel label if the batch is still malformed.
        chan->publish();
        if (!batch.isEmpty())
            quietFrom = std::max(quietFrom, batch.start + quant);
    }
}

void
TokenFabric::fastForward(Cycles target)
{
    // The last round before `target` is always stepped, so there must
    // be at least one round to skip before it.
    Cycles rounds_left = (target - curCycle + quant - 1) / quant;
    if (rounds_left < 2)
        return;
    Cycles quiet_until = kNoCycle;
    for (const EndpointState &state : endpoints) {
        quiet_until = std::min(quiet_until,
                               state.endpoint->quiescentUntil(curCycle));
        if (quiet_until < curCycle + 2 * quant)
            return;
    }
    // Rounds that end by quiet_until do nothing but move clocks. Skip
    // all but the last of them, which is stepped normally so per-round
    // state ends byte-identical. One catch-up batch spans the skipped
    // rounds, and TokenBatch::len (uint32_t) caps that span.
    Cycles quiet_rounds = (quiet_until - curCycle) / quant;
    Cycles max_skip = std::numeric_limits<uint32_t>::max() / quant;
    Cycles skip = std::min({quiet_rounds, rounds_left, max_skip + 1}) - 1;
    if (skip == 0)
        return;
    Cycles span = skip * quant;
    auto len = static_cast<uint32_t>(span);

    for (auto &chan : channels)
        chan->skip(span);
    ffIn.reset(curCycle, len);
    for (size_t idx : stepOrder) {
        EndpointState &state = endpoints[idx];
        for (uint32_t p = 0; p < state.in.size(); ++p) {
            state.inPtrs[p] = &ffIn;
            state.outPtrs[p] = &ffOut[p].reset(curCycle, len);
        }
        state.endpoint->advance(curCycle, span, state.inPtrs,
                                state.outPtrs);
        for (uint32_t p = 0; p < state.out.size(); ++p)
            FS_ASSERT(ffOut[p].isEmpty(),
                      "%s emitted a flit at %llu, inside a span its "
                      "quiescentUntil() declared idle",
                      state.endpoint->name().c_str(),
                      (unsigned long long)ffOut[p].absCycle(
                          ffOut[p].flits.front()));
    }
    curCycle += span;
    roundCount += skip;
    batchCount += skip * outPorts;
    ffRounds += skip;
}

void
TokenFabric::run(Cycles cycles)
{
    FS_ASSERT(finalized, "run() before finalize()");
    FS_ASSERT(pendingRemote.empty() || remoteHook,
              "remote links configured but no RemoteRoundHook attached");
    running = true;
    Cycles target = curCycle + cycles;

    while (curCycle < target) {
        // Payload still in flight, or anything watching every round,
        // rules fast-forward out before any endpoint is asked.
        if (observers.empty() && !remoteHook && quietFrom <= curCycle)
            fastForward(target);

        for (FabricObserver *obs : observers)
            obs->onRoundStart(curCycle, roundCount);

        // Phase 1 (driving thread, step order): down-verdicts, input
        // pops, output-slot claims. Latency seeding guarantees every
        // channel already holds this round's input batch, so all pops
        // complete before any publish and channels need no locks.
        for (size_t idx : stepOrder)
            prepareEndpoint(idx);

        // Phase 2: the actual endpoint work, in parallel when a pool
        // is configured. Workers touch only their endpoint's popped
        // and claimed slots; the dispatch barrier publishes their
        // writes.
        if (workers) {
            sched.dispatch(
                *workers,
                [](void *ctx, uint32_t u) {
                    static_cast<TokenFabric *>(ctx)->advanceEndpoint(u);
                },
                this);
        } else {
            for (size_t idx : stepOrder)
                advanceEndpoint(idx);
        }

        // Phase 3 (driving thread, step order): transmit observers and
        // channel publishes — all shared counters accumulate here, in an
        // order independent of which worker ran what.
        for (size_t idx : stepOrder)
            commitEndpoint(idx);

        for (FabricObserver *obs : observers)
            obs->onRoundEnd(curCycle, roundCount);

        // Distributed round barrier: flush this round's remote batches
        // and block until every peer shard has finished the same round,
        // pushing their batches into our RX channels for the next
        // round's prepare phase. Local-only fabrics skip this entirely.
        if (remoteHook)
            remoteHook->onRoundComplete(roundCount, curCycle);

        curCycle += quant;
        ++roundCount;
    }
    running = false;
}

// ---- Checkpoint support -------------------------------------------------

void
TokenChannel::snapshotSave(Serializer &s) const
{
    s.putU(lat);
    s.putU(quant);
    s.putU(nextPushStart);
    s.putU(nextPopStart);
    s.putU(used);
    for (size_t i = 0; i < used; ++i)
        saveBatch(s, slots[(head + i) % slots.size()]);
}

void
TokenFabric::snapshotSave(Serializer &s) const
{
    FS_ASSERT(finalized, "fabric snapshot requires finalize()");
    FS_ASSERT(curCycle % quant == 0,
              "fabric snapshot must happen at a round boundary");
    s.putU(quant);
    s.putU(curCycle);
    s.putU(roundCount);
}

} // namespace firesim
