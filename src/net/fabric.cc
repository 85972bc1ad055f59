#include "net/fabric.hh"

#include <algorithm>
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
    // At most latency/quantum payload batches are buffered, with an
    // empty run before each and after the last, plus one slot spare.
    size_t in_flight = static_cast<size_t>(latency / quantum);
    slots.resize(2 * in_flight + 3);
    // Seed the link with latency/quantum batches of empty tokens: the
    // first `latency` arrival cycles carry nothing because nothing was
    // transmitted before target cycle 0.
    appendEmpties(in_flight);
}

void
TokenChannel::enqueueTail()
{
    ++used;
    if (used < slots.size())
        return;
    std::vector<Slot> bigger(slots.size() * 2);
    for (size_t i = 0; i < used; ++i)
        bigger[i] = std::move(slots[ringIndex(i)]);
    slots = std::move(bigger);
    head = 0;
}

void
TokenChannel::appendEmpties(uint64_t count)
{
    Slot *last = used ? &slots[ringIndex(used - 1)] : nullptr;
    if (last && last->empties &&
        last->batch.start + last->empties * quant == nextPushStart) {
        last->empties += count;
    } else {
        Slot &slot = tailSlot();
        slot.batch.reset(nextPushStart, static_cast<uint32_t>(quant));
        slot.empties = count;
        enqueueTail();
    }
    batches += count;
    nextPushStart += count * quant;
}

TokenBatch *
TokenChannel::admit(const TokenBatch &batch)
{
    FS_ASSERT(batch.len == quant,
              "batch len %u != channel quantum %llu on %s", batch.len,
              (unsigned long long)quant, lbl.c_str());
    // A token produced at cycle M is consumed at M + latency.
    FS_ASSERT(batch.start + lat == nextPushStart,
              "non-contiguous batch push on %s: got %llu expected %llu",
              lbl.c_str(), (unsigned long long)(batch.start + lat),
              (unsigned long long)nextPushStart);
    if (batch.isEmpty()) {
        appendEmpties(1);
        return nullptr;
    }
    Slot &slot = tailSlot();
    slot.batch.reset(nextPushStart, static_cast<uint32_t>(quant));
    slot.empties = 0;
    enqueueTail(); // may grow the ring: re-find the slot below
    ++batches;
    nextPushStart += quant;
    return &slots[ringIndex(used - 1)].batch;
}

void
TokenChannel::publish(TokenBatch &batch)
{
    if (TokenBatch *slot = admit(batch))
        std::swap(slot->flits, batch.flits);
}

void
TokenChannel::push(const TokenBatch &batch)
{
    if (TokenBatch *slot = admit(batch))
        slot->flits.assign(batch.flits.begin(), batch.flits.end());
}

void
TokenChannel::pushRaw(TokenBatch batch)
{
    batch.start += lat;
    Slot &slot = tailSlot();
    slot.batch = std::move(batch);
    slot.empties = 0;
    enqueueTail();
    ++batches;
}

TokenBatch &
TokenChannel::pop()
{
    FS_ASSERT(batches > 0, "pop from empty token channel %s", lbl.c_str());
    Slot &slot = slots[head];
    TokenBatch *batch = &slot.batch;
    if (slot.empties > 0) {
        // Hand out the run's first batch; the slot keeps the rest.
        batch = &idle.reset(slot.batch.start, static_cast<uint32_t>(quant));
        slot.batch.start += quant;
        --slot.empties;
    }
    if (slot.empties == 0) {
        head = ringIndex(1);
        --used;
    }
    --batches;
    nextPopStart = batch->start + quant;
    return *batch;
}

void
TokenChannel::dropEmpties(uint64_t count)
{
    while (count > 0) {
        FS_ASSERT(batches > 0, "idle drain of empty token channel %s",
                  lbl.c_str());
        Slot &slot = slots[head];
        FS_ASSERT(slot.empties > 0,
                  "payload batch at %llu on %s arrived while its consumer "
                  "was not due",
                  (unsigned long long)slot.batch.start, lbl.c_str());
        uint64_t take = std::min(count, slot.empties);
        slot.empties -= take;
        slot.batch.start += take * quant;
        batches -= take;
        count -= take;
        nextPopStart = slot.batch.start;
        if (slot.empties == 0) {
            head = ringIndex(1);
            --used;
        }
    }
}

Cycles
TokenChannel::nextPayloadCycle() const
{
    Cycles at = nextPopStart;
    for (size_t i = 0; i < used; ++i) {
        const Slot &slot = slots[ringIndex(i)];
        if (slot.empties == 0)
            return at;
        at += slot.empties * quant;
    }
    return kNoCycle;
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
    state.outIndex.assign(endpoint->numPorts(), 0);
    state.outPeer.assign(endpoint->numPorts(), -1);
    state.outPeerPort.assign(endpoint->numPorts(), 0);
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
                                       tx_link_id, peer_label});
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
        sched.configure(parHosts);
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
        sa.outIndex[link.portA] = channels.size();
        channels.push_back(std::move(ab));
        sb.outIndex[link.portB] = channels.size();
        channels.push_back(std::move(ba));
        sa.outPeer[link.portA] = &sb - endpoints.data();
        sa.outPeerPort[link.portA] = link.portB;
        sb.outPeer[link.portB] = &sa - endpoints.data();
        sb.outPeerPort[link.portB] = link.portA;
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
        state.remoteOut[rl.port] = static_cast<int64_t>(i);
        state.everyRound = true;
        remoteRx.emplace_back(rl.rxLinkId, rx.get());
        channels.push_back(std::move(rx));
    }

    for (auto &state : endpoints) {
        for (uint32_t p = 0; p < state.in.size(); ++p) {
            bool tx_ok = state.out[p] || state.remoteOut[p] >= 0;
            if (!state.in[p] || !tx_ok)
                fatal("port %u of endpoint %s left unconnected", p,
                      state.endpoint->name().c_str());
        }
        state.inPtrs.resize(state.in.size());
        state.outPtrs.resize(state.in.size());
        state.outBuf.resize(state.in.size());
        state.inNext.assign(state.in.size(), kNoCycle);
        outPorts += state.out.size();
    }
    wake.assign(endpoints.size(), 0);
    due.reserve(endpoints.size());
    taps.resize(channels.size());

    if (stepOrder.empty()) {
        stepOrder.resize(endpoints.size());
        std::iota(stepOrder.begin(), stepOrder.end(), 0);
    }

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
    if (observer->watchesEndpoints())
        endpointObservers.push_back(observer);
    observer->onAttach(*this);
}

void
TokenFabric::tapChannel(size_t idx, uint32_t port, ChannelTap tap)
{
    FS_ASSERT(!running, "tapChannel() mid-run");
    int chan = txChannelOf(idx, port);
    FS_ASSERT(chan >= 0, "tapChannel(%zu, %u): no local channel", idx, port);
    taps[chan].push_back(std::move(tap));
    endpoints[idx].tapped = endpoints[idx].everyRound = true;
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

void
TokenFabric::prepareEndpoint(size_t idx)
{
    EndpointState &state = endpoints[idx];
    auto quantum = static_cast<uint32_t>(quant);

    state.down = false;
    for (const auto &[from, until] : state.parked)
        state.down |= roundOverlaps(curCycle, from, until);

    for (uint32_t p = 0; p < state.in.size(); ++p) {
        TokenChannel *chan = state.in[p];
        bool remote = state.remoteOut[p] >= 0;
        if (!denseRound && !remote && state.inNext[p] > curCycle) {
            // Nothing arrives on this port: leave the channel alone
            // (its consumer side catches up when it is next popped).
            state.inPtrs[p] = &idleIn;
            continue;
        }
        if (!remote && endpointObservers.empty()) {
            // A skipped local producer has not enqueued this round's
            // input yet, and the consumer side may lag. (A remote
            // producer is kept current by the transport, and with an
            // endpoint observer attached every round is dense.)
            chan->fillIdle(curCycle + quant - chan->latency());
            chan->drainTo(curCycle);
        }
        if (!chan->ready())
            panic("channel underflow into %s:%u (%s)",
                  state.endpoint->name().c_str(), p, chan->label().c_str());
        TokenBatch &batch = chan->pop();
        if (batch.start != curCycle)
            panic("non-contiguous batch pop on %s: got %llu expected %llu",
                  chan->label().c_str(), (unsigned long long)batch.start,
                  (unsigned long long)curCycle);
        state.inPtrs[p] = &batch;
        // Wake bookkeeping only matters while some endpoints can sit
        // out rounds, i.e. with no endpoint observer attached.
        if (endpointObservers.empty())
            state.inNext[p] = chan->nextPayloadCycle();
    }

    // Every output is produced into the port's own batch; commit moves
    // it into the channel (empty for a parked endpoint).
    for (uint32_t p = 0; p < state.out.size(); ++p)
        state.outPtrs[p] = &state.outBuf[p].reset(curCycle, quantum);
}

void
TokenFabric::advanceEndpoint(size_t idx)
{
    EndpointState &state = endpoints[idx];
    if (state.down)
        return;
    for (FabricObserver *obs : endpointObservers)
        obs->onAdvanceStart(idx, curCycle);
    state.endpoint->advance(curCycle, quant, state.inPtrs, state.outPtrs);
    for (FabricObserver *obs : endpointObservers)
        obs->onAdvanceEnd(idx, curCycle);
}

void
TokenFabric::commitEndpoint(size_t idx)
{
    EndpointState &state = endpoints[idx];
    for (uint32_t p = 0; p < state.out.size(); ++p) {
        TokenBatch &batch = *state.outPtrs[p];
        TokenChannel *chan = state.out[p];
        if (state.catchUp && !batch.isEmpty())
            panic("%s emitted a flit at %llu, in a round its "
                  "quiescentUntil() declared idle",
                  state.endpoint->name().c_str(),
                  (unsigned long long)batch.absCycle(batch.flits.front()));
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
        if (state.tapped)
            for (const ChannelTap &tap : taps[state.outIndex[p]])
                tap(batch);
        if (batch.isEmpty() && batch.len == quant &&
            batch.start == curCycle) {
            // A well-formed empty batch: a dense round appends it to
            // the channel's empty run; otherwise it stays implicit (the
            // producer side catches up when it next publishes or is
            // popped).
            if (denseRound)
                chan->fillIdle(curCycle + quant);
            continue;
        }
        chan->fillIdle(curCycle);
        Cycles arrival = batch.start + chan->latency();
        bool payload = !batch.isEmpty();
        // Panics, naming the channel, when the batch is malformed.
        chan->publish(batch);
        if (payload && endpointObservers.empty()) {
            EndpointState &peer = endpoints[state.outPeer[p]];
            Cycles &next = peer.inNext[state.outPeerPort[p]];
            next = std::min(next, arrival);
            Cycles &peer_wake = wake[state.outPeer[p]];
            peer_wake = std::min(peer_wake, arrival);
        }
    }
    if (endpointObservers.empty())
        wake[idx] = wakeOf(idx, curCycle + quant);
}

Cycles
TokenFabric::wakeOf(size_t idx, Cycles now) const
{
    const EndpointState &state = endpoints[idx];
    if (state.everyRound)
        return 0;
    Cycles at = state.endpoint->quiescentUntil(now);
    if (at <= now)
        return now; // due next round whatever arrives
    for (Cycles next : state.inNext)
        at = std::min(at, next);
    at -= at % quant; // the start of the round containing it
    for (const auto &window : state.parked) {
        Cycles first = window.first - window.first % quant;
        if (first >= now + quant) // due in the round before it
            at = std::min(at, first - quant);
    }
    return at;
}

void
TokenFabric::run(Cycles cycles)
{
    FS_ASSERT(finalized, "run() before finalize()");
    FS_ASSERT(pendingRemote.empty() || remoteHook,
              "remote links configured but no RemoteRoundHook attached");
    if (cycles == 0)
        return;
    running = true;
    // Start of this run()'s last round, in which every endpoint is
    // stepped so the run ends with all of them caught up.
    Cycles last = curCycle + (cycles - 1) / quant * quant;
    // An endpoint observer watches every endpoint in every round; any
    // observer sees every round, and a remote hook barriers with the
    // peers in every round.
    bool every_endpoint = !endpointObservers.empty();
    bool every_round = !observers.empty() || remoteHook;

    // Endpoint and channel state may have changed between run() calls
    // (a NIC request posted, a hart armed, a batch pushed): ask again.
    for (size_t idx = 0; idx < endpoints.size(); ++idx) {
        EndpointState &state = endpoints[idx];
        for (uint32_t p = 0; p < state.in.size(); ++p)
            state.inNext[p] = state.in[p]->nextPayloadCycle();
        wake[idx] = wakeOf(idx, curCycle);
    }
    if (every_endpoint) {
        due.assign(stepOrder.begin(), stepOrder.end());
        for (uint32_t idx : due)
            endpoints[idx].catchUp = false;
    }

    while (curCycle <= last) {
        if (!every_round) {
            Cycles next = *std::min_element(wake.begin(), wake.end());
            if (next > curCycle) {
                // Nothing is due before `next`: jump there, but no
                // further than the last round.
                Cycles to = std::min(next, last);
                uint64_t jumped = (to - curCycle) / quant;
                curCycle = to;
                roundCount += jumped;
                jumpedRounds += jumped;
            }
        }
        bool final_round = curCycle == last;
        // Dense rounds move every port's batch through its channel, so
        // endpoint observers see every channel exactly as round-by-round
        // stepping leaves it, and the run ends with no channel behind.
        denseRound = every_endpoint || final_round;
        idleIn.reset(curCycle, static_cast<uint32_t>(quant));

        if (every_endpoint) {
            dueSteps += due.size();
        } else {
            due.clear();
            for (size_t idx : stepOrder) {
                bool woken = wake[idx] <= curCycle;
                if (!woken && !final_round)
                    continue;
                endpoints[idx].catchUp = !woken;
                dueSteps += woken;
                due.push_back(static_cast<uint32_t>(idx));
            }
        }

        for (FabricObserver *obs : observers)
            obs->onRoundStart(curCycle, roundCount);

        // Phase 1 (driving thread, step order): down-windows, input
        // pops, output batch resets. Latency seeding guarantees every
        // channel holds this round's input batch once its skipped
        // producer is topped up, so all pops complete before any
        // publish and channels need no locks.
        for (uint32_t idx : due)
            prepareEndpoint(idx);

        // Phase 2: the actual endpoint work, in parallel when a pool
        // is configured. Workers touch only their endpoint's popped
        // slots and output batches; the dispatch barrier publishes
        // their writes.
        if (workers) {
            sched.dispatch(
                *workers, due,
                [](void *ctx, uint32_t idx) {
                    static_cast<TokenFabric *>(ctx)->advanceEndpoint(idx);
                },
                this);
        } else {
            for (uint32_t idx : due)
                advanceEndpoint(idx);
        }

        // Phase 3 (driving thread, step order): channel taps, channel
        // publishes and wake-ups — all shared counters
        // accumulate here, in an order independent of which worker ran
        // what.
        for (uint32_t idx : due)
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

// ---- State image ------------------------------------------------------

void
TokenChannel::snapshotSave(Serializer &s) const
{
    s.putU(lat);
    s.putU(quant);
    s.putU(nextPushStart);
    s.putU(nextPopStart);
    s.putU(batches);
    for (size_t i = 0; i < used; ++i) {
        const Slot &slot = slots[ringIndex(i)];
        if (slot.empties == 0) {
            saveBatch(s, slot.batch);
            continue;
        }
        for (uint64_t k = 0; k < slot.empties; ++k)
            saveBatch(s, TokenBatch(slot.batch.start + k * quant,
                                    static_cast<uint32_t>(quant)));
    }
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
