#include "campaign/runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

namespace tsoper::campaign
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

std::atomic<unsigned> liveOrphans{0};

/** Who settled the attempt first: the worker finishing (Done) or the
 *  timeout path abandoning it (Orphaned).  The loser of the exchange
 *  race learns what the winner did and adjusts the orphan counter —
 *  an orphan that eventually finishes un-counts itself. */
enum class AttemptState : int
{
    Running = 0,
    Done = 1,
    Orphaned = 2,
};

/** One attempt with a wall-clock budget. */
RunResult
attemptWithTimeout(const RunRequest &request,
                   const std::function<RunResult(const RunRequest &)> &fn,
                   std::chrono::milliseconds timeout)
{
    if (timeout.count() <= 0)
        return fn(request);

    auto state = std::make_shared<std::atomic<int>>(
        static_cast<int>(AttemptState::Running));
    auto prom = std::make_shared<std::promise<RunResult>>();
    std::future<RunResult> future = prom->get_future();
    // fn by value: an orphaned attempt keeps running after this
    // function, and its caller's fn, have gone.
    std::thread worker([fn, request, state, prom] {
        try {
            prom->set_value(fn(request));
        } catch (...) {
            prom->set_exception(std::current_exception());
        }
        const int prev = state->exchange(
            static_cast<int>(AttemptState::Done));
        if (prev == static_cast<int>(AttemptState::Orphaned))
            liveOrphans.fetch_sub(1, std::memory_order_relaxed);
    });
    if (future.wait_for(timeout) == std::future_status::ready) {
        worker.join();
        return future.get();
    }
    // The attempt overran its budget.  A simulation has no safe
    // preemption point, so the thread is abandoned; whatever it
    // eventually produces is dropped with the discarded future.
    const int prev =
        state->exchange(static_cast<int>(AttemptState::Orphaned));
    if (prev == static_cast<int>(AttemptState::Done)) {
        // It finished in the instant after the wait gave up — not an
        // orphan after all, take the real result.
        worker.join();
        return future.get();
    }
    liveOrphans.fetch_add(1, std::memory_order_relaxed);
    worker.detach();
    RunResult result;
    result.status = RunStatus::Timeout;
    result.detail = "exceeded " + std::to_string(timeout.count()) +
                    " ms wall-clock budget";
    return result;
}

bool
retryable(RunStatus status)
{
    return status == RunStatus::Timeout || status == RunStatus::Crashed;
}

using CellFn = std::function<RunResult(const RunRequest &)>;

/** runCell with @p fn as the in-process executor. */
CellReport
runCellWith(const RunRequest &request, const RunnerOptions &opt,
            const CellFn &fn)
{
    const bool isolate =
        opt.isolation == Isolation::Subprocess && !opt.cellFn;

    CellReport cell;
    cell.request = request;
    for (unsigned attempt = 0;; ++attempt) {
        if (attempt > 0 && opt.backoffBaseMs) {
            const std::uint64_t raw =
                static_cast<std::uint64_t>(opt.backoffBaseMs)
                << (attempt - 1);
            const std::uint64_t delay = std::min<std::uint64_t>(
                raw, opt.backoffMaxMs ? opt.backoffMaxMs : raw);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
        const Clock::time_point start = Clock::now();
        if (isolate) {
            SubprocessOptions sub = opt.subprocess;
            sub.timeout = opt.timeout;
            SubprocessOutcome outcome = runSubprocess(request, sub);
            cell.result = std::move(outcome.result);
            cell.wallMs = outcome.wallMs;
        } else {
            cell.result = attemptWithTimeout(request, fn, opt.timeout);
            cell.wallMs = msSince(start);
        }
        cell.attempts = attempt + 1;
        cell.attemptLog.push_back(
            {cell.result.status, cell.wallMs, cell.result.detail});
        if (!retryable(cell.result.status))
            return cell;
        if (attempt >= opt.retries) {
            // Transient failure survived every attempt: quarantine the
            // cell so one sick run cannot poison the sweep's totals.
            cell.quarantined = true;
            return cell;
        }
    }
}

} // namespace

unsigned
liveOrphanCount()
{
    return liveOrphans.load(std::memory_order_relaxed);
}

CellReport
runCell(const RunRequest &request, const RunnerOptions &opt)
{
    return runCellWith(request, opt,
                       opt.cellFn ? opt.cellFn
                                  : [](const RunRequest &r) {
                                        return runOne(r);
                                    });
}

CampaignReport
runCampaign(const std::string &name,
            const std::vector<RunRequest> &cells,
            const RunnerOptions &opt)
{
    CampaignReport report;
    report.name = name;
    report.cells.resize(cells.size());
    unsigned jobs = opt.jobs ? opt.jobs
                             : std::thread::hardware_concurrency();
    if (jobs == 0)
        jobs = 1;
    report.jobs = jobs;

    const Clock::time_point start = Clock::now();
    std::atomic<std::size_t> done{0};
    std::mutex progressMutex;

    const auto progressLine = [&](const CellReport &cell,
                                  std::size_t finished) {
        if (!opt.progress)
            return;
        std::lock_guard<std::mutex> lock(progressMutex);
        char head[64];
        std::snprintf(head, sizeof(head), "[%3zu/%zu] %-12s", finished,
                      cells.size(),
                      cell.fromJournal ? "resumed"
                                       : toString(cell.result.status));
        *opt.progress << head << " " << cell.request.id;
        if (cell.fromJournal) {
            *opt.progress << "  (journal)";
        } else {
            *opt.progress << "  ("
                          << static_cast<long>(cell.wallMs) << " ms";
            if (cell.attempts > 1)
                *opt.progress << ", " << cell.attempts << " attempts";
            if (cell.quarantined)
                *opt.progress << ", quarantined";
            *opt.progress << ")";
        }
        *opt.progress << "\n" << std::flush;
    };

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (opt.resumeFrom) {
            const auto it = opt.resumeFrom->cells.find(cells[i].id);
            // Reuse only if the journaled request is the manifest
            // request — a spec edited under the journal re-runs its
            // stale cells instead of silently reusing them.
            if (it != opt.resumeFrom->cells.end() &&
                it->second.request == cells[i]) {
                CellReport cell = it->second;
                cell.fromJournal = true;
                progressLine(cell, ++done);
                report.cells[i] = std::move(cell);
                continue;
            }
        }
        pending.push_back(i);
    }

    // In-process crash cells share one full timing run per key.  The
    // memo is owned by every copy of fn, so an attempt thread orphaned
    // by a timeout keeps it alive past this function.
    const auto timing = std::make_shared<TimingMemo>();
    const CellFn fn = opt.cellFn ? opt.cellFn
                                 : [timing](const RunRequest &r) {
                                       return runOne(r, {}, timing.get());
                                   };
    // Crash fraction outermost, so the cells that share a timing run
    // are claimed apart rather than waiting on each other.
    std::stable_sort(pending.begin(), pending.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cells[a].crashAt < cells[b].crashAt;
                     });

    std::atomic<std::size_t> claimed{0};
    const auto claimCells = [&] {
        for (std::size_t k = claimed++; k < pending.size(); k = claimed++) {
            // Last-first: forward order raised crash-sweep peak RSS 13%.
            const std::size_t i = pending[pending.size() - 1 - k];
            CellReport cell = runCellWith(cells[i], opt, fn);
            if (opt.journal)
                opt.journal->append(cell);
            progressLine(cell, ++done);
            report.cells[i] = std::move(cell);
        }
    };
    std::vector<std::thread> threads(
        std::min<std::size_t>(jobs, pending.size()));
    for (std::thread &t : threads)
        t = std::thread(claimCells);
    for (std::thread &t : threads)
        t.join();

    report.wallMs = msSince(start);
    report.orphanedThreads = liveOrphanCount();
    return report;
}

} // namespace tsoper::campaign
