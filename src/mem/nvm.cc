#include "mem/nvm.hh"

#include <algorithm>

#include "sim/log.hh"

namespace tsoper
{

Nvm::Nvm(const SystemConfig &cfg, EventQueue &eq, StatsRegistry &stats)
    : ranks_(cfg.nvmRanks), writeLatency_(cfg.nvmWriteLatency),
      readLatency_(cfg.nvmReadLatency),
      writeOccupancy_(cfg.nvmWriteOccupancy),
      readOccupancy_(cfg.nvmReadOccupancy), eq_(eq),
      rankBusyUntil_(cfg.nvmRanks, 0),
      writesIssued_(stats.counter("nvm.writes_issued")),
      writesDone_(stats.counter("nvm.writes_done")),
      reads_(stats.counter("nvm.reads")),
      rankWaitCycles_(stats.counter("nvm.rank_wait_cycles"))
{
}

Cycle
Nvm::write(LineAddr line, const LineWords &words, Cycle earliest,
           WriteDone done)
{
    writesIssued_.inc();
    Cycle &busy = rankBusyUntil_[rankOf(line)];
    const Cycle start = std::max(earliest, busy);
    rankWaitCycles_.inc(start - earliest);
    const Cycle completion = start + writeLatency_;
    busy = start + writeOccupancy_;
    eq_.schedule(completion, [this, line, words, done = std::move(done),
                              completion]() mutable {
        auto [it, fresh] = image_.try_emplace(line, zeroLine());
        (void)fresh;
        mergeWords(it->second, words);
        writesDone_.inc();
        if (done)
            done(completion);
    });
    return completion;
}

Cycle
Nvm::read(LineAddr line, Cycle earliest)
{
    reads_.inc();
    Cycle &busy = rankBusyUntil_[rankOf(line)];
    const Cycle start = std::max(earliest, busy);
    rankWaitCycles_.inc(start - earliest);
    const Cycle completion = start + readLatency_;
    busy = start + readOccupancy_;
    return completion;
}

LineWords
Nvm::durable(LineAddr line) const
{
    auto it = image_.find(line);
    return it == image_.end() ? zeroLine() : it->second;
}

} // namespace tsoper
