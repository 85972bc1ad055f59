#include "nic/nic.hh"

#include <cmath>

#include "net/token_io.hh"
#include "snapshot/state_io.hh"

namespace firesim
{

Nic::Nic(NicConfig config, EventQueue &queue, FunctionalMemory &memory,
         MacAddr mac)
    : cfg(std::move(config)), eq(queue), mem(memory), macAddr(mac)
{
    if (cfg.rateP == 0 || cfg.rateK == 0)
        fatal("NIC '%s' rate limit k=%llu p=%llu must be nonzero",
              cfg.name.c_str(), (unsigned long long)cfg.rateK,
              (unsigned long long)cfg.rateP);
    bucket = cfg.rateK;
}

void
Nic::setInterruptHandler(std::function<void()> handler)
{
    interruptHandler = std::move(handler);
}

void
Nic::setRateLimit(uint64_t k, uint64_t p)
{
    if (k == 0 || p == 0)
        fatal("rate limit k=%llu p=%llu must be nonzero",
              (unsigned long long)k, (unsigned long long)p);
    cfg.rateK = k;
    cfg.rateP = p;
    bucket = std::min(bucket, k);
    lastRefill = eq.now();
}

bool
Nic::pushSendRequest(uint64_t addr, uint32_t len)
{
    if (len < kEthHeaderBytes || len > cfg.reservationBufBytes)
        fatal("send request of %u bytes (min %u, max %u)", len,
              kEthHeaderBytes, cfg.reservationBufBytes);
    if (sendReq.size() >= cfg.sendReqDepth)
        return false;
    sendReq.push_back(SendRequest{addr, len});
    readerPump();
    return true;
}

bool
Nic::pushRecvRequest(uint64_t addr)
{
    if (recvReq.size() >= cfg.recvReqDepth)
        return false;
    recvReq.push_back(addr);
    writerPump();
    return true;
}

bool
Nic::popSendComp()
{
    if (sendComp.empty())
        return false;
    sendComp.pop_front();
    readerPump();
    return true;
}

std::optional<RecvCompletion>
Nic::popRecvComp()
{
    if (recvComp.empty())
        return std::nullopt;
    RecvCompletion comp = recvComp.front();
    recvComp.pop_front();
    writerPump();
    return comp;
}

void
Nic::raiseInterrupt()
{
    ++stats_.interruptsRaised;
    if (interruptHandler)
        eq.scheduleIn(0, [this] { interruptHandler(); });
}

// ---- Send path -------------------------------------------------------

void
Nic::readerPump()
{
    if (readerBusy || sendReq.empty())
        return;
    // Backpressure: wait for reservation-buffer space and for the CPU to
    // drain old completions before issuing reads for the next packet.
    const SendRequest &req = sendReq.front();
    if (reservationOccupied + req.len > cfg.reservationBufBytes)
        return;
    if (sendComp.size() >= cfg.compDepth)
        return;

    readerBusy = true;
    reservationOccupied += req.len;
    readerReq = req;
    sendReq.pop_front();

    Cycles dma = cfg.dmaStartLatency +
        static_cast<Cycles>(std::ceil(readerReq.len / cfg.dmaBytesPerCycle));
    eq.scheduleIn(dma, [this] { readerDone(); });
}

void
Nic::readerDone()
{
    TxPacket &pkt = txReady.emplace_back();
    pkt.frame.bytes = bufs.take();
    pkt.frame.bytes.resize(readerReq.len);
    mem.read(readerReq.addr, pkt.frame.bytes.data(), readerReq.len);
    // "The reader sends a completion signal to the controller once
    // all the reads for the packet have been issued."
    sendComp.push_back(1);
    raiseInterrupt();
    readerBusy = false;
    if (!txPumpScheduled) {
        txPumpScheduled = true;
        eq.scheduleIn(cfg.alignLatency, [this] { txPump(); });
    }
    readerPump();
}

void
Nic::refillBucket()
{
    Cycles now = eq.now();
    if (now <= lastRefill)
        return;
    uint64_t periods = (now - lastRefill) / cfg.rateP;
    uint64_t cap = std::max<uint64_t>(cfg.rateK, 16);
    bucket = std::min(bucket + periods * cfg.rateK, cap);
    lastRefill += periods * cfg.rateP;
}

void
Nic::txPump()
{
    txPumpScheduled = false;
    refillBucket();
    Cycles t = std::max(txCursor, eq.now());
    uint64_t cap = std::max<uint64_t>(cfg.rateK, 16);

    while (!txReady.empty()) {
        EthFrame &frame = txReady.front().frame;
        FrameSerializer ser(frame);
        // Walk virtual time forward flit by flit, consuming bucket
        // tokens; when the bucket empties, jump to the next refill.
        // This computes the exact cycle-by-cycle emission schedule of
        // the hardware token bucket without per-cycle events.
        uint64_t vbucket = bucket;
        Cycles vrefill = lastRefill;
        while (!ser.done()) {
            while (vbucket == 0) {
                Cycles next = vrefill + cfg.rateP;
                uint64_t periods = 1;
                if (t > next) {
                    periods = (t - vrefill) / cfg.rateP;
                    next = vrefill + periods * cfg.rateP;
                }
                vbucket = std::min(vbucket + periods * cfg.rateK, cap);
                vrefill = next;
                if (next > t)
                    t = next;
            }
            --vbucket;
            Flit flit = ser.next();
            txOutbox.emplace_back(t, flit);
            t += 1;
        }
        bucket = vbucket;
        lastRefill = vrefill;

        uint32_t len = frame.size();
        bufs.give(std::move(frame.bytes));
        txReady.pop_front();
        ++stats_.framesSent;
        stats_.bytesSent += len;
        // Free the reservation buffer once the last flit has left the
        // NIC; this is what bounds reader run-ahead (backpressure).
        Cycles last_flit = t - 1;
        Cycles free_at = std::max(last_flit, eq.now());
        eq.schedule(free_at, [this, len] {
            FS_ASSERT(reservationOccupied >= len,
                      "reservation underflow");
            reservationOccupied -= len;
            readerPump();
        });
    }
    txCursor = t;
}

void
Nic::drainTx(Cycles window_start, TokenBatch &out)
{
    Cycles window_end = window_start + out.len;
    while (!txOutbox.empty() && txOutbox.front().first < window_end) {
        auto [cycle, flit] = txOutbox.front();
        FS_ASSERT(cycle >= window_start, "tx flit missed its window");
        flit.offset = static_cast<uint32_t>(cycle - window_start);
        out.push(flit);
        txOutbox.pop_front();
    }
}

// ---- Receive path ----------------------------------------------------

bool
Nic::feedFlit(const Flit &flit, Cycles at)
{
    if (!rxAssembler.feed(flit, at, rxSpare))
        return false;
    arrivals.push_back(RxPacket{std::move(rxSpare)});
    rxSpare.bytes = bufs.take();
    return true;
}

void
Nic::admitFrame()
{
    FS_ASSERT(!arrivals.empty(), "admitFrame with no completed frame");
    RxPacket pkt = std::move(arrivals.front());
    arrivals.pop_front();
    uint32_t len = pkt.frame.size();
    // The Ethernet link cannot be back-pressured: drop whole packets
    // when the buffer lacks space, so the OS never sees a partial one.
    if (rxBufOccupied + len > cfg.packetBufBytes) {
        ++stats_.framesDroppedRx;
        bufs.give(std::move(pkt.frame.bytes));
        return;
    }
    rxBufOccupied += len;
    ++stats_.framesReceived;
    stats_.bytesReceived += len;
    rxBuffer.push_back(std::move(pkt));
    writerPump();
}

void
Nic::writerPump()
{
    if (writerBusy || rxBuffer.empty() || recvReq.empty())
        return;
    if (recvComp.size() >= cfg.compDepth)
        return;

    writerBusy = true;
    writerPkt = std::move(rxBuffer.front());
    rxBuffer.pop_front();
    writerAddr = recvReq.front();
    recvReq.pop_front();

    Cycles dma = cfg.dmaStartLatency +
        static_cast<Cycles>(
            std::ceil(writerPkt.frame.size() / cfg.dmaBytesPerCycle));
    eq.scheduleIn(dma, [this] { writerDone(); });
}

void
Nic::writerDone()
{
    uint32_t len = writerPkt.frame.size();
    mem.write(writerAddr, writerPkt.frame.bytes.data(), len);
    bufs.give(std::move(writerPkt.frame.bytes));
    rxBufOccupied -= len;
    // "The writer sends a completion to the controller only after
    // all writes for the packet have retired."
    recvComp.push_back(RecvCompletion{writerAddr, len});
    raiseInterrupt();
    writerBusy = false;
    writerPump();
}

void
Nic::registerStats(StatRegistry &registry, const std::string &prefix) const
{
    registry.registerCounter(prefix + ".framesSent", stats_.framesSent);
    registry.registerCounter(prefix + ".framesReceived",
                             stats_.framesReceived);
    registry.registerCounter(prefix + ".framesDroppedRx",
                             stats_.framesDroppedRx);
    registry.registerCounter(prefix + ".bytesSent", stats_.bytesSent);
    registry.registerCounter(prefix + ".bytesReceived",
                             stats_.bytesReceived);
    registry.registerCounter(prefix + ".interruptsRaised",
                             stats_.interruptsRaised);
}

void
Nic::snapshotSave(Serializer &s) const
{
    s.putU(macAddr.value);
    // Controller queues.
    s.putU(sendReq.size());
    for (const SendRequest &r : sendReq) {
        s.putU(r.addr);
        s.putU(r.len);
    }
    s.putU(recvReq.size());
    for (uint64_t addr : recvReq)
        s.putU(addr);
    s.putU(sendComp.size());
    for (uint8_t c : sendComp)
        s.putU(c);
    s.putU(recvComp.size());
    for (const RecvCompletion &c : recvComp) {
        s.putU(c.addr);
        s.putU(c.len);
    }
    // Send path.
    s.putB(readerBusy);
    if (readerBusy) {
        s.putU(readerReq.addr);
        s.putU(readerReq.len);
    }
    s.putU(reservationOccupied);
    s.putU(txReady.size());
    for (const TxPacket &p : txReady)
        saveFrame(s, p.frame);
    s.putU(txOutbox.size());
    for (const auto &[at, flit] : txOutbox) {
        s.putU(at);
        saveFlit(s, flit);
    }
    s.putB(txPumpScheduled);
    s.putU(txCursor);
    s.putU(bucket);
    s.putU(lastRefill);
    // Receive path.
    saveAssembler(s, rxAssembler);
    s.putU(arrivals.size());
    for (const RxPacket &p : arrivals)
        saveFrame(s, p.frame);
    s.putU(rxBufOccupied);
    s.putU(rxBuffer.size());
    for (const RxPacket &p : rxBuffer)
        saveFrame(s, p.frame);
    s.putB(writerBusy);
    if (writerBusy) {
        s.putU(writerAddr);
        saveFrame(s, writerPkt.frame);
    }
    // Counters.
    saveCounter(s, stats_.framesSent);
    saveCounter(s, stats_.framesReceived);
    saveCounter(s, stats_.framesDroppedRx);
    saveCounter(s, stats_.bytesSent);
    saveCounter(s, stats_.bytesReceived);
    saveCounter(s, stats_.interruptsRaised);
}

} // namespace firesim
