/**
 * @file
 * Campaign runner: executes a list of run manifests on `jobs`
 * threads that claim units of work in manifest order, with a
 * per-attempt wall-clock timeout, retry with exponential backoff on
 * transient failure, and live progress reporting, then aggregates
 * everything into a CampaignReport.
 *
 * A unit is a single cell, or — in-process only — a whole crash
 * group: the pending crash cells whose requests differ only in id and
 * crash point (crashGroupKey).  runCrashGroup simulates a group's
 * timing run once and advances one System through its crash points,
 * so a group of N fractional points costs one full run plus the run
 * to its last point instead of N + 1 runs' worth.  Each attempt runs
 * the whole unit under one budget; the unit is retried while some
 * cell's verdict is transient.  A grouped cell's `attempts` is its
 * unit's, and its wallMs is its share of the attempt: the host time
 * from the previous cell's result to its own, so the group's first
 * crash point also carries the workload and the timing run, and the
 * cells' wallMs add up to the group's.  If a group hangs or crashes
 * between crash points, every later point gets that one verdict,
 * whose detail may name other event counts than a solo run of the
 * cell would.
 *
 * Two isolation modes (RunnerOptions::isolation):
 *
 *  - InProcess (default): each attempt calls runOne() (or
 *    runCrashGroup()) on its own thread.  Fast, but a cell that SIGSEGVs takes the campaign down
 *    with it, and a timed-out attempt's thread can only be detached —
 *    it burns a core until the process exits.  The count of such
 *    orphans is tracked (liveOrphanCount()) and surfaced in the
 *    report.
 *  - Subprocess: each attempt fork/execs `tsoper_sim` for one cell
 *    (one crash point per process) with a memory rlimit and a hard
 *    SIGKILL on timeout.  A crashing or runaway
 *    cell is contained: its signal, exit code and stderr tail land in
 *    the CellReport and nothing outlives the attempt.
 *
 * Retries apply to Timeout and Crashed outcomes only: CheckFailed,
 * BadRequest and Hung are deterministic verdicts and re-running them
 * cannot change the answer.  Between attempts the cell backs off
 * exponentially (backoffBaseMs · 2^attempt, capped at backoffMaxMs) so
 * a machine-level hiccup — OOM pressure, a full /tmp — gets time to
 * clear.  A cell whose final status is still transient after the last
 * attempt is *quarantined*: reported separately, excluded from the
 * per-status totals.
 *
 * When a journal is attached (RunnerOptions::journal), every finished
 * cell is durably appended before the campaign moves on; with
 * resumeFrom set, cells whose journaled request matches the manifest
 * are reused verbatim instead of re-run.  See campaign/journal.hh.
 */

#ifndef TSOPER_CAMPAIGN_RUNNER_HH
#define TSOPER_CAMPAIGN_RUNNER_HH

#include <chrono>
#include <functional>
#include <iosfwd>
#include <vector>

#include "campaign/journal.hh"
#include "campaign/report.hh"
#include "campaign/run_request.hh"
#include "campaign/subprocess.hh"

namespace tsoper::campaign
{

enum class Isolation
{
    InProcess,  ///< runOne() on a job thread (default).
    Subprocess, ///< fork/exec tsoper_sim per attempt.
};

struct RunnerOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Per-attempt wall-clock budget (a crash group's attempt runs
     *  the whole group); <= 0 disables the timeout. */
    std::chrono::milliseconds timeout{120000};

    /** Extra attempts after a Timeout/Crashed outcome. */
    unsigned retries = 1;

    /** How each attempt executes (see file comment). */
    Isolation isolation = Isolation::InProcess;

    /** Subprocess-mode knobs (binary path, rlimit, stderr cap).  The
     *  timeout above overrides SubprocessOptions::timeout so both
     *  modes share one budget. */
    SubprocessOptions subprocess;

    /** First retry delay; doubles per attempt.  0 disables backoff. */
    unsigned backoffBaseMs = 250;

    /** Backoff ceiling. */
    unsigned backoffMaxMs = 10'000;

    /** Stream for live per-cell progress lines; nullptr = silent. */
    std::ostream *progress = nullptr;

    /** Write-ahead journal to append finished cells to; nullptr =
     *  no journaling. */
    CampaignJournal *journal = nullptr;

    /** Previously journaled cells to reuse instead of re-running;
     *  nullptr = run everything. */
    const JournalIndex *resumeFrom = nullptr;

    /** Cell executor; defaults to runOne().  Tests substitute fakes
     *  (hung cells, flaky cells) to exercise timeout/retry.  When set
     *  it is used even in Subprocess mode, and every unit is a single
     *  cell. */
    std::function<RunResult(const RunRequest &)> cellFn;
};

/**
 * Attempt threads detached by in-process timeouts that have not (yet)
 * finished on their own.  Process-global: campaigns accumulate.  The
 * CLI warns on stderr when this is non-zero at exit.
 */
unsigned liveOrphanCount();

/**
 * Run one cell under the timeout/retry/backoff policy on the calling
 * thread; the building block runCampaign schedules, exposed for
 * tests.
 */
CellReport runCell(const RunRequest &request, const RunnerOptions &opt);

/**
 * Execute @p cells in parallel and aggregate.  Cell order in the
 * report matches @p cells regardless of completion order.  In-process
 * crash cells run as crash groups (see file comment); resumed cells
 * leave their group, whose other cells run as a smaller group.
 */
CampaignReport runCampaign(const std::string &name,
                           const std::vector<RunRequest> &cells,
                           const RunnerOptions &opt);

} // namespace tsoper::campaign

#endif // TSOPER_CAMPAIGN_RUNNER_HH
