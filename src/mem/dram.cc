#include "mem/dram.hh"

#include "base/logging.hh"
#include "snapshot/state_io.hh"

namespace firesim
{

DramModel::DramModel(DramConfig config)
    : cfg(config)
{
    if (cfg.channels == 0 || cfg.ranksPerChannel == 0 ||
        cfg.banksPerRank == 0) {
        fatal("DRAM geometry must be nonzero");
    }
    banks.resize(static_cast<size_t>(cfg.channels) * cfg.ranksPerChannel *
                 cfg.banksPerRank);
}

DramModel::Bank &
DramModel::bankFor(uint64_t addr, uint64_t &row)
{
    // Address interleaving: line -> channel -> bank -> row. Row bits
    // above, so sequential lines stream within one row of one bank's
    // row buffer per channel.
    uint64_t line = addr / 64;
    uint64_t nbanks = banks.size();
    uint64_t lines_per_row = cfg.rowBytes / 64;
    uint64_t bank_idx = (line / lines_per_row) % nbanks;
    row = line / (lines_per_row * nbanks);
    return banks[bank_idx];
}

Cycles
DramModel::access(uint64_t addr, bool is_write, Cycles now)
{
    uint64_t row = 0;
    Bank &bank = bankFor(addr, row);

    if (is_write)
        ++stats_.writes;
    else
        ++stats_.reads;

    Cycles start = std::max(now, bank.readyAt);
    Cycles column_at;

    if (bank.rowOpen && bank.openRow == row) {
        // Row-buffer hit: column command straight away.
        ++stats_.rowHits;
        column_at = start;
    } else if (!bank.rowOpen) {
        // Closed bank: activate then column.
        ++stats_.rowMisses;
        column_at = start + cfg.tRcd;
        bank.activatedAt = start;
    } else {
        // Conflict: precharge (respecting tRAS), activate, column.
        ++stats_.rowConflicts;
        Cycles precharge_at = start;
        if (bank.activatedAt + cfg.tRas > precharge_at)
            precharge_at = bank.activatedAt + cfg.tRas;
        Cycles activate_at = precharge_at + cfg.tRp;
        column_at = activate_at + cfg.tRcd;
        bank.activatedAt = activate_at;
    }

    bank.rowOpen = true;
    bank.openRow = row;

    Cycles data_done = column_at + cfg.tCl + cfg.tBurst;
    bank.readyAt = column_at + cfg.tBurst; // next column may pipeline
    return cfg.frontendLatency + (data_done - now);
}

void
DramModel::snapshotSave(Serializer &s) const
{
    s.putU(banks.size());
    for (const Bank &b : banks) {
        s.putB(b.rowOpen);
        s.putU(b.openRow);
        s.putU(b.readyAt);
        s.putU(b.activatedAt);
    }
    saveCounter(s, stats_.reads);
    saveCounter(s, stats_.writes);
    saveCounter(s, stats_.rowHits);
    saveCounter(s, stats_.rowMisses);
    saveCounter(s, stats_.rowConflicts);
}

} // namespace firesim
