#include "campaign/run_request.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>

#include "core/recovery.hh"
#include "core/system.hh"
#include "sim/log.hh"
#include "sim/stats_json.hh"
#include "sim/trace_sink.hh"
#include "sim/watchdog.hh"
#include "workload/generators.hh"
#include "workload/trace_io.hh"

namespace tsoper::campaign
{

const char *
toString(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok:          return "ok";
      case RunStatus::CheckFailed: return "check-failed";
      case RunStatus::Timeout:     return "timeout";
      case RunStatus::Crashed:     return "crashed";
      case RunStatus::BadRequest:  return "bad-request";
      case RunStatus::Hung:        return "hung";
    }
    return "?";
}

const std::vector<RunStatus> &
allRunStatuses()
{
    static const std::vector<RunStatus> all{
        RunStatus::Ok,      RunStatus::CheckFailed, RunStatus::Timeout,
        RunStatus::Crashed, RunStatus::Hung,        RunStatus::BadRequest};
    return all;
}

bool
runStatusFromName(const std::string &name, RunStatus *out)
{
    for (RunStatus s : allRunStatuses()) {
        if (name == toString(s)) {
            *out = s;
            return true;
        }
    }
    return false;
}

Json
RunRequest::toJson() const
{
    Json j = Json::object();
    j.set("id", Json(id))
        .set("engine", Json(engine))
        .set("bench", Json(bench))
        .set("scale", Json(scale))
        .set("seed", Json(seed))
        .set("cores", Json(cores));
    if (!traceFile.empty())
        j.set("trace", Json(traceFile));
    if (agMaxLines)
        j.set("ag_max_lines", Json(agMaxLines));
    if (agbSliceLines)
        j.set("agb_slice_lines", Json(agbSliceLines));
    if (crashAt > 0.0)
        j.set("crash_at", Json(crashAt));
    j.set("check", Json(check));
    // Trace fields only appear when set, so journals written before the
    // tracing layer still round-trip equal.
    if (!traceCategories.empty())
        j.set("trace_categories", Json(traceCategories));
    if (!traceOut.empty())
        j.set("trace_out", Json(traceOut));
    if (auditPersists)
        j.set("audit_persists", Json(true));
    if (!auditFault.empty())
        j.set("audit_fault", Json(auditFault));
    if (flightRecorder)
        j.set("flight_recorder", Json(flightRecorder));
    j.set("max_cycles", Json(maxCycles));
    return j;
}

RunRequest
runRequestFromJson(const Json &j)
{
    RunRequest r;
    if (const Json *v = j.find("id"); v && v->isString())
        r.id = v->asString();
    if (const Json *v = j.find("engine"); v && v->isString())
        r.engine = v->asString();
    if (const Json *v = j.find("bench"); v && v->isString())
        r.bench = v->asString();
    if (const Json *v = j.find("trace"); v && v->isString())
        r.traceFile = v->asString();
    if (const Json *v = j.find("scale"); v && v->isNumber())
        r.scale = v->asDouble();
    if (const Json *v = j.find("seed"); v && v->isNumber())
        r.seed = v->asUint();
    if (const Json *v = j.find("cores"); v && v->isNumber())
        r.cores = static_cast<unsigned>(v->asUint());
    if (const Json *v = j.find("ag_max_lines"); v && v->isNumber())
        r.agMaxLines = static_cast<unsigned>(v->asUint());
    if (const Json *v = j.find("agb_slice_lines"); v && v->isNumber())
        r.agbSliceLines = static_cast<unsigned>(v->asUint());
    if (const Json *v = j.find("crash_at"); v && v->isNumber())
        r.crashAt = v->asDouble();
    if (const Json *v = j.find("check"); v && v->isBool())
        r.check = v->asBool();
    if (const Json *v = j.find("trace_categories"); v && v->isString())
        r.traceCategories = v->asString();
    if (const Json *v = j.find("trace_out"); v && v->isString())
        r.traceOut = v->asString();
    if (const Json *v = j.find("audit_persists"); v && v->isBool())
        r.auditPersists = v->asBool();
    if (const Json *v = j.find("audit_fault"); v && v->isString())
        r.auditFault = v->asString();
    if (const Json *v = j.find("flight_recorder"); v && v->isNumber())
        r.flightRecorder = static_cast<unsigned>(v->asUint());
    if (const Json *v = j.find("max_cycles"); v && v->isNumber())
        r.maxCycles = v->asUint();
    return r;
}

Json
runResultToJson(const RunResult &res)
{
    Json j = Json::object();
    j.set("status", Json(toString(res.status)));
    if (!res.detail.empty())
        j.set("detail", Json(res.detail));
    j.set("cycles", Json(res.cycles))
        .set("drain_cycles", Json(res.drainCycles));
    if (res.crashCycle)
        j.set("crash_cycle", Json(res.crashCycle));
    j.set("ops", Json(res.ops)).set("stores", Json(res.stores));
    if (!res.recoverySummary.empty())
        j.set("recovery_summary", Json(res.recoverySummary));
    if (res.audited) {
        Json audit = Json::object();
        audit.set("durable_lines", Json(res.durableLines))
            .set("durable_words", Json(res.durableWords))
            .set("buffer_recovered_lines", Json(res.bufferRecoveredLines))
            .set("required_stores", Json(res.requiredStores));
        j.set("audit", std::move(audit));
    }
    if (res.persistAudited) {
        Json audit = Json::object();
        audit.set("ok", Json(res.persistAuditOk));
        if (!res.persistAuditDetail.empty())
            audit.set("detail", Json(res.persistAuditDetail));
        audit.set("commits", Json(res.persistCommits))
            .set("edges", Json(res.persistEdges))
            .set("groups", Json(res.persistGroups));
        j.set("persist_audit", std::move(audit));
    }
    if (res.exitCode != -1)
        j.set("exit_code", Json(res.exitCode));
    if (!res.signalName.empty())
        j.set("signal", Json(res.signalName));
    if (!res.stderrTail.empty())
        j.set("stderr_tail", Json(res.stderrTail));
    j.set("stats", res.stats);
    return j;
}

bool
runResultFromJson(const Json &j, RunResult *out, std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "result document is not an object";
        return false;
    }
    const Json *status = j.find("status");
    if (!status || !status->isString() ||
        !runStatusFromName(status->asString(), &out->status)) {
        if (err)
            *err = "result document has no valid status";
        return false;
    }
    if (const Json *v = j.find("detail"); v && v->isString())
        out->detail = v->asString();
    if (const Json *v = j.find("cycles"); v && v->isNumber())
        out->cycles = v->asUint();
    if (const Json *v = j.find("drain_cycles"); v && v->isNumber())
        out->drainCycles = v->asUint();
    if (const Json *v = j.find("crash_cycle"); v && v->isNumber())
        out->crashCycle = v->asUint();
    if (const Json *v = j.find("ops"); v && v->isNumber())
        out->ops = v->asUint();
    if (const Json *v = j.find("stores"); v && v->isNumber())
        out->stores = v->asUint();
    if (const Json *v = j.find("recovery_summary"); v && v->isString())
        out->recoverySummary = v->asString();
    if (const Json *audit = j.find("audit"); audit && audit->isObject()) {
        out->audited = true;
        if (const Json *v = audit->find("durable_lines");
            v && v->isNumber())
            out->durableLines = v->asUint();
        if (const Json *v = audit->find("durable_words");
            v && v->isNumber())
            out->durableWords = v->asUint();
        if (const Json *v = audit->find("buffer_recovered_lines");
            v && v->isNumber())
            out->bufferRecoveredLines = v->asUint();
        if (const Json *v = audit->find("required_stores");
            v && v->isNumber())
            out->requiredStores = v->asUint();
    }
    if (const Json *audit = j.find("persist_audit");
        audit && audit->isObject()) {
        out->persistAudited = true;
        if (const Json *v = audit->find("ok"); v && v->isBool())
            out->persistAuditOk = v->asBool();
        if (const Json *v = audit->find("detail"); v && v->isString())
            out->persistAuditDetail = v->asString();
        if (const Json *v = audit->find("commits"); v && v->isNumber())
            out->persistCommits = v->asUint();
        if (const Json *v = audit->find("edges"); v && v->isNumber())
            out->persistEdges = v->asUint();
        if (const Json *v = audit->find("groups"); v && v->isNumber())
            out->persistGroups = v->asUint();
    }
    if (const Json *v = j.find("exit_code"); v && v->isNumber())
        out->exitCode = static_cast<int>(v->asInt());
    if (const Json *v = j.find("signal"); v && v->isString())
        out->signalName = v->asString();
    if (const Json *v = j.find("stderr_tail"); v && v->isString())
        out->stderrTail = v->asString();
    if (const Json *v = j.find("stats"))
        out->stats = *v;
    return true;
}

bool
resolveConfig(const RunRequest &r, SystemConfig *cfg, std::string *err)
{
    EngineKind engine;
    ProtocolKind protocol;
    if (!engineFromName(r.engine, &engine, &protocol)) {
        if (err)
            *err = "unknown engine: " + r.engine;
        return false;
    }
    *cfg = makeConfig(engine);
    cfg->protocol = protocol; // only differs for baseline-mesi
    cfg->numCores = r.cores;
    if (r.cores > 8) {
        cfg->meshCols = 6;
        cfg->meshRows = (r.cores + cfg->llcBanks + 5) / 6;
    }
    if (r.agMaxLines)
        cfg->agMaxLines = r.agMaxLines;
    if (r.agbSliceLines)
        cfg->agbSliceLines = r.agbSliceLines;
    cfg->recordStores = r.check;
    cfg->seed = r.seed;
    return true;
}

std::string
crashGroupKey(const RunRequest &r)
{
    RunRequest keyed = r;
    keyed.id.clear();
    keyed.crashAt = 0.0;
    return keyed.toJson().dump();
}

namespace
{

void
fillAudit(RunResult *res, const RecoveryReport &report)
{
    res->recoverySummary = report.summary();
    res->audited = report.audited;
    res->durableLines = report.durableLines;
    res->durableWords = report.durableWords;
    res->bufferRecoveredLines = report.bufferRecoveredLines;
    res->requiredStores = report.consistency.requiredStores;
    if (report.audited && !report.consistency.ok) {
        res->status = RunStatus::CheckFailed;
        res->detail = report.consistency.detail;
    }
}

/** Resolve @p r 's config and build its workload into @p cfg and
 *  @p w.  On failure @p res carries the BadRequest detail; on success
 *  its ops and stores are set. */
bool
prepare(const RunRequest &r, SystemConfig *cfg, Workload *w,
        RunResult *res)
{
    if (!resolveConfig(r, cfg, &res->detail))
        return false; // unknown engine

    if (r.traceFile.empty() && !findProfile(r.bench)) {
        res->detail = "unknown benchmark: " + r.bench;
        return false;
    }
    try {
        *w = r.traceFile.empty()
                 ? generateByName(r.bench, cfg->numCores, r.seed, r.scale)
                 : loadWorkloadFile(r.traceFile);
    } catch (const std::exception &e) {
        res->detail = e.what(); // the workload did not build
        return false;
    }
    std::string error;
    if (!validateWorkload(*w, &error)) {
        res->detail = "invalid workload: " + error;
        return false;
    }
    if (w->perCore.size() != cfg->numCores) {
        res->detail = "invalid workload: it has " +
                      std::to_string(w->perCore.size()) +
                      " cores but the run is configured for " +
                      std::to_string(cfg->numCores) + " (set --cores=" +
                      std::to_string(w->perCore.size()) + ")";
        return false;
    }
    res->ops = w->totalOps();
    res->stores = w->totalStores();
    return true;
}

PersistModel
persistModel(const SystemConfig &cfg)
{
    return cfg.engine == EngineKind::HwRp ? PersistModel::RelaxedSfr
                                          : PersistModel::StrictTso;
}

trace::TraceOptions
traceOptions(const RunRequest &r, const SystemConfig &cfg)
{
    trace::TraceOptions topt;
    topt.categories = r.traceCategories;
    topt.perfettoPath = r.traceOut;
    topt.auditPersists = r.auditPersists;
    topt.auditFault = r.auditFault;
    topt.flightRecorderDepth = r.flightRecorder;
    topt.faultSeed = r.seed;
    // Only TSOPER and STW persist each core's groups strictly in
    // creation order; BSP skips empty epochs and HW-RP interleaves
    // spontaneous persists, so they get the order-graph checks only.
    topt.strictCoreFifo = cfg.engine == EngineKind::Tsoper ||
                          cfg.engine == EngineKind::Stw;
    return topt;
}

/** Finish @p session (if any) and fold its audit and Perfetto outcome
 *  into @p res. */
void
finishTrace(trace::TraceSession *session, RunResult *res)
{
    if (!session)
        return;
    const trace::TraceSession::Outcome out = session->finish();
    if (out.audited) {
        res->persistAudited = true;
        res->persistAuditOk = out.audit.ok;
        res->persistAuditDetail = out.audit.detail;
        res->persistCommits = out.audit.commits;
        res->persistEdges = out.audit.edges;
        res->persistGroups = out.audit.groups;
        if (!out.audit.ok && res->status == RunStatus::Ok) {
            res->status = RunStatus::CheckFailed;
            res->detail = out.audit.detail;
        }
    }
    if (!out.perfettoError.empty() && res->status == RunStatus::Ok) {
        res->status = RunStatus::Crashed;
        res->detail = out.perfettoError;
    }
}

/** Classify the exception in flight into @p res. */
void
failWith(std::exception_ptr error, RunResult *res)
{
    try {
        std::rethrow_exception(error);
    } catch (const HungError &e) {
        // The progress watchdog proved a livelock/deadlock; e.what()
        // carries the reason plus the machine-state dump.  Hung is a
        // deterministic verdict (same seed, same livelock), so the
        // runner does not retry it.
        res->status = RunStatus::Hung;
        res->detail = e.what();
    } catch (const std::exception &e) {
        res->status = RunStatus::Crashed;
        res->detail = e.what();
    }
}

} // namespace

std::vector<RunResult>
runCrashGroup(const std::vector<RunRequest> &group, const RunHooks &hooks,
              std::vector<double> *cellMs)
{
    tsoper_assert(!group.empty(), "runCrashGroup of no requests");
    const std::string key = crashGroupKey(group.front());
    for (const RunRequest &r : group)
        tsoper_assert(r.crashAt > 0.0 && crashGroupKey(r) == key,
                      "runCrashGroup: ", r.id, " is not a crash cell of ",
                      group.front().id, "'s group");

    using Clock = std::chrono::steady_clock;
    Clock::time_point last = Clock::now();
    if (cellMs)
        cellMs->assign(group.size(), 0.0);
    // Charges the host time since the last settled cell to cell i.
    const auto settle = [&](std::size_t i) {
        const Clock::time_point now = Clock::now();
        if (cellMs)
            (*cellMs)[i] =
                std::chrono::duration<double, std::milli>(now - last)
                    .count();
        last = now;
    };

    const RunRequest &r = group.front();
    RunResult base;
    SystemConfig cfg;
    Workload w;
    const bool prepared = prepare(r, &cfg, &w, &base);
    std::vector<RunResult> results(group.size(), base);
    if (!prepared) {
        for (std::size_t i = 0; i < group.size(); ++i)
            settle(i);
        return results;
    }

    // The untraced timing run gives fractional crash points their
    // cycle.  It records no stores: the log serves only the checker.
    RunResult timing = base;
    bool timingFailed = false;
    if (std::any_of(group.begin(), group.end(), [](const RunRequest &q) {
            return q.crashAt <= 1.0;
        })) {
        try {
            SystemConfig fullCfg = cfg;
            fullCfg.recordStores = false;
            System full(fullCfg, w);
            timing.cycles = full.run(r.maxCycles);
            timing.drainCycles = full.stats().get("sys.drain_cycles");
        } catch (...) {
            failWith(std::current_exception(), &timing);
            timingFailed = true;
        }
    }

    // Crash points in ascending cycle order; fractional cells of a
    // failed timing run take its verdict.
    std::vector<std::pair<Cycle, std::size_t>> points;
    for (std::size_t i = 0; i < group.size(); ++i) {
        const double at = group[i].crashAt;
        if (at > 1.0) {
            points.emplace_back(static_cast<Cycle>(at), i);
            continue;
        }
        results[i] = timing;
        if (timingFailed) {
            settle(i);
            continue;
        }
        points.emplace_back(static_cast<Cycle>(
                                static_cast<double>(timing.cycles) * at),
                            i);
    }
    std::stable_sort(points.begin(), points.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    const PersistModel model = persistModel(cfg);
    const trace::TraceOptions topt = traceOptions(r, cfg);
    // Stops @p sys at @p at and fills @p res from it.  The checks are
    // prefix-sound (groups the cold stop left incomplete are skipped),
    // so the persist audit applies to the pre-crash stream as well.
    const auto crashCell = [&](System &sys, Cycle at, RunResult *res,
                               trace::TraceSession *session) {
        sys.runUntilCrash(at);
        res->crashCycle = at;
        res->status = RunStatus::Ok;
        fillAudit(res, recover(sys, model));
        finishTrace(session, res);
        res->stats = statsToJson(sys.stats());
        if (hooks.onFinished)
            hooks.onFinished(sys);
    };

    if (topt.any()) {
        // A trace session covers exactly one run, so a traced cell
        // gets a System of its own.  The session starts just before
        // it is built: the timing run's restarted group ids would
        // otherwise pollute the audit log.
        for (const auto &[at, i] : points) {
            try {
                trace::TraceSession session(topt);
                System sys(cfg, w);
                crashCell(sys, at, &results[i], &session);
            } catch (...) {
                failWith(std::current_exception(), &results[i]);
            }
            settle(i);
        }
        return results;
    }

    if (points.empty())
        return results;
    // One System advanced through every crash point: stopping at an
    // earlier point leaves the run as it was (System::runUntilCrash).
    // A failure ends the run, so it is the verdict of every later
    // point too.
    std::size_t k = 0;
    try {
        System sys(cfg, w);
        for (; k < points.size(); ++k) {
            crashCell(sys, points[k].first, &results[points[k].second],
                      nullptr);
            settle(points[k].second);
        }
    } catch (...) {
        const std::exception_ptr error = std::current_exception();
        for (; k < points.size(); ++k) {
            failWith(error, &results[points[k].second]);
            settle(points[k].second);
        }
    }
    return results;
}

RunResult
runOne(const RunRequest &r, const RunHooks &hooks)
{
    if (r.crashAt > 0.0)
        return runCrashGroup({r}, hooks).front();

    RunResult res;
    SystemConfig cfg;
    Workload w;
    if (!prepare(r, &cfg, &w, &res))
        return res;

    // Started just before the measured System is built.
    const trace::TraceOptions topt = traceOptions(r, cfg);
    std::unique_ptr<trace::TraceSession> session;
    try {
        if (topt.any())
            session = std::make_unique<trace::TraceSession>(topt);
        System sys(cfg, w);
        res.cycles = sys.run(r.maxCycles);
        res.drainCycles = sys.stats().get("sys.drain_cycles");
        res.status = RunStatus::Ok;
        finishTrace(session.get(), &res);
        if (r.check)
            fillAudit(&res, recover(sys, persistModel(cfg)));
        res.stats = statsToJson(sys.stats());
        if (hooks.onFinished)
            hooks.onFinished(sys);
    } catch (...) {
        failWith(std::current_exception(), &res);
    }
    return res;
}

} // namespace tsoper::campaign
