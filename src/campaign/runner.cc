#include "campaign/runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <map>
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

/** What one attempt of a unit gave each of its cells.  wallMs stays
 *  empty when the executor does not time cells one by one. */
struct Attempt
{
    std::vector<RunResult> results;
    std::vector<double> wallMs;
};

using UnitFn = std::function<Attempt(const std::vector<RunRequest> &)>;

/** One attempt with a wall-clock budget. */
Attempt
attemptWithTimeout(const std::vector<RunRequest> &requests,
                   const UnitFn &fn, std::chrono::milliseconds timeout)
{
    if (timeout.count() <= 0)
        return fn(requests);

    auto state = std::make_shared<std::atomic<int>>(
        static_cast<int>(AttemptState::Running));
    auto prom = std::make_shared<std::promise<Attempt>>();
    std::future<Attempt> future = prom->get_future();
    // fn by value: an orphaned attempt keeps running after this
    // function, and its caller's fn, have gone.
    std::thread worker([fn, requests, state, prom] {
        try {
            prom->set_value(fn(requests));
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
    RunResult timedOut;
    timedOut.status = RunStatus::Timeout;
    timedOut.detail = "exceeded " + std::to_string(timeout.count()) +
                      " ms wall-clock budget";
    return {std::vector<RunResult>(requests.size(), timedOut), {}};
}

bool
retryable(RunStatus status)
{
    return status == RunStatus::Timeout || status == RunStatus::Crashed;
}

/** The in-process executor of @p opt: its cellFn, else runOne, or
 *  runCrashGroup for a crash group. */
UnitFn
unitExecutor(const RunnerOptions &opt)
{
    if (opt.cellFn)
        return [fn = opt.cellFn](const std::vector<RunRequest> &requests) {
            return Attempt{{fn(requests.front())}, {}};
        };
    return [](const std::vector<RunRequest> &requests) {
        Attempt a;
        if (requests.size() == 1)
            a.results.push_back(runOne(requests.front()));
        else
            a.results = runCrashGroup(requests, {}, &a.wallMs);
        return a;
    };
}

/**
 * Run one unit — a cell, or an in-process crash group — under the
 * timeout/retry/backoff policy.  Each attempt runs the whole unit;
 * it is retried while some cell's verdict is transient, and a cell
 * still transient after the last attempt is quarantined.
 */
std::vector<CellReport>
runUnit(const std::vector<RunRequest> &requests, const RunnerOptions &opt,
        const UnitFn &fn)
{
    const bool isolate =
        opt.isolation == Isolation::Subprocess && !opt.cellFn;

    std::vector<CellReport> cells(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
        cells[i].request = requests[i];
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
        Attempt a;
        if (isolate) {
            SubprocessOptions sub = opt.subprocess;
            sub.timeout = opt.timeout;
            SubprocessOutcome outcome =
                runSubprocess(requests.front(), sub);
            a.results.push_back(std::move(outcome.result));
            a.wallMs.push_back(outcome.wallMs);
        } else {
            a = attemptWithTimeout(requests, fn, opt.timeout);
        }
        if (a.wallMs.empty())
            a.wallMs.assign(requests.size(),
                            msSince(start) /
                                static_cast<double>(requests.size()));
        bool transient = false;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            CellReport &cell = cells[i];
            cell.result = std::move(a.results[i]);
            cell.wallMs = a.wallMs[i];
            cell.attempts = attempt + 1;
            cell.attemptLog.push_back(
                {cell.result.status, cell.wallMs, cell.result.detail});
            transient |= retryable(cell.result.status);
        }
        if (!transient)
            return cells;
        if (attempt >= opt.retries) {
            // Transient failure survived every attempt: quarantine the
            // cell so one sick run cannot poison the sweep's totals.
            for (CellReport &cell : cells)
                cell.quarantined = retryable(cell.result.status);
            return cells;
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
    return runUnit({request}, opt, unitExecutor(opt)).front();
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

    // Units of work in manifest order: a cell, or every pending
    // in-process crash cell of one crash group (runCrashGroup).
    const bool grouped =
        opt.isolation == Isolation::InProcess && !opt.cellFn;
    std::vector<std::vector<std::size_t>> units;
    std::map<std::string, std::size_t> unitOfGroup;
    for (const std::size_t i : pending) {
        if (grouped && cells[i].crashAt > 0.0) {
            const auto [it, fresh] = unitOfGroup.try_emplace(
                crashGroupKey(cells[i]), units.size());
            if (!fresh) {
                units[it->second].push_back(i);
                continue;
            }
        }
        units.push_back({i});
    }

    const UnitFn fn = unitExecutor(opt);
    std::atomic<std::size_t> claimed{0};
    const auto claimUnits = [&] {
        for (std::size_t k = claimed++; k < units.size(); k = claimed++) {
            std::vector<RunRequest> requests;
            for (const std::size_t i : units[k])
                requests.push_back(cells[i]);
            std::vector<CellReport> reports = runUnit(requests, opt, fn);
            for (std::size_t j = 0; j < reports.size(); ++j) {
                if (opt.journal)
                    opt.journal->append(reports[j]);
                progressLine(reports[j], ++done);
                report.cells[units[k][j]] = std::move(reports[j]);
            }
        }
    };
    std::vector<std::thread> threads(
        std::min<std::size_t>(jobs, units.size()));
    for (std::thread &t : threads)
        t = std::thread(claimUnits);
    for (std::thread &t : threads)
        t.join();

    report.wallMs = msSince(start);
    report.orphanedThreads = liveOrphanCount();
    return report;
}

} // namespace tsoper::campaign
