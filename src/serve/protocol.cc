#include "protocol.hh"

#include "common/codec.hh"
#include "common/stats.hh"
#include "serve/snapshot.hh"
#include "serve/wire.hh"
#include "serve/wire_detail.hh"

namespace wg::serve {

namespace {

Json
responseEnvelope(const std::string& request)
{
    Json doc = wire::detail::makeEnvelope("response");
    doc.set("request", Json::string(request));
    return doc;
}

ProtocolResult
errorResponse(const std::string& request, const std::string& error)
{
    Json doc = responseEnvelope(request);
    doc.set("ok", Json::boolean(false));
    doc.set("error", Json::string(error));
    return ProtocolResult{doc.dump(), false};
}

ProtocolResult
okResponse(Json doc)
{
    return ProtocolResult{doc.dump(), false};
}

/** Extract the "id" member; empty + error set when missing/invalid. */
bool
requestId(const Json& doc, std::string& id, std::string& error)
{
    const Json* j = doc.find("id");
    if (j == nullptr || !j->isString() || j->asString().empty()) {
        error = "request requires a non-empty string 'id'";
        return false;
    }
    id = j->asString();
    return true;
}

ProtocolResult
handleSubmit(JobManager& jobs, const Json& doc)
{
    const Json* sweep = doc.find("sweep");
    if (sweep == nullptr)
        return errorResponse("submit", "submit requires 'sweep'");
    SweepSpec spec({}, {});
    std::string error;
    if (!wire::fromJson(*sweep, spec, error))
        return errorResponse("submit", error);
    std::uint64_t priority = 0;
    if (const Json* p = doc.find("priority")) {
        if (!p->isNumber() || p->asDouble() < 0)
            return errorResponse(
                "submit", "'priority' must be a non-negative integer");
        priority = p->asU64();
        if (priority > 1u << 16)
            return errorResponse("submit", "'priority' out of range");
    }
    // A resumed submission carries the checkpoint's completed cells;
    // they seed the runner's cache before the job is admitted so the
    // job only recomputes the unfinished remainder.
    std::size_t seeded = 0;
    if (const Json* arr = doc.find("cells")) {
        if (!arr->isArray())
            return errorResponse("submit", "'cells' must be an array");
        std::vector<wire::ResultCell> cells;
        for (const Json& cell : arr->items()) {
            wire::ResultCell parsed;
            if (!wire::parseResultDoc(cell, parsed, error))
                return errorResponse("submit", error);
            cells.push_back(std::move(parsed));
        }
        seeded = jobs.seedCells(cells);
    }
    JobManager::SubmitOutcome out =
        jobs.submit(spec, static_cast<unsigned>(priority));
    if (!out.ok)
        return errorResponse("submit", out.error);
    Json resp = responseEnvelope("submit");
    resp.set("ok", Json::boolean(true));
    resp.set("id", Json::string(out.id));
    resp.set("deduped", Json::boolean(out.deduped));
    if (doc.find("cells") != nullptr)
        resp.set("seeded", Json::number(std::uint64_t(seeded)));
    return okResponse(std::move(resp));
}

ProtocolResult
handleCheckpoint(JobManager& jobs, const Json& doc)
{
    std::string id;
    std::string error;
    if (!requestId(doc, id, error))
        return errorResponse("checkpoint", error);
    SweepSpec spec({}, {});
    std::vector<JobCell> cells;
    if (!jobs.checkpoint(id, spec, cells, error))
        return errorResponse("checkpoint", error);
    // checkpoint() pinned the effective options into the spec, so
    // every cell was computed under exactly *spec.options.
    std::vector<Json> cellDocs;
    cellDocs.reserve(cells.size());
    for (const JobCell& cell : cells)
        cellDocs.push_back(wire::resultDoc(cell.bench, cell.technique,
                                           *spec.options, *cell.result));
    Json resp = responseEnvelope("checkpoint");
    resp.set("ok", Json::boolean(true));
    resp.set("id", Json::string(id));
    resp.set("snapshot", wire::jobSnapshotDoc(id, spec, cellDocs));
    return okResponse(std::move(resp));
}

ProtocolResult
handleStatus(JobManager& jobs, const Json& doc)
{
    Json resp = responseEnvelope("status");
    if (doc.find("id") != nullptr) {
        std::string id;
        std::string error;
        if (!requestId(doc, id, error))
            return errorResponse("status", error);
        std::optional<JobStatus> status = jobs.status(id);
        if (!status)
            return errorResponse("status", "unknown job '" + id + "'");
        resp.set("ok", Json::boolean(true));
        resp.set("job", statusJson(*status));
        return okResponse(std::move(resp));
    }
    Json list = Json::array();
    for (const JobStatus& s : jobs.listJobs())
        list.append(statusJson(s));
    resp.set("ok", Json::boolean(true));
    resp.set("jobs", std::move(list));
    return okResponse(std::move(resp));
}

ProtocolResult
handleResult(JobManager& jobs, const Json& doc)
{
    std::string id;
    std::string error;
    if (!requestId(doc, id, error))
        return errorResponse("result", error);
    std::vector<JobCell> cells;
    ExperimentOptions optsUsed;
    if (!jobs.results(id, cells, optsUsed, error))
        return errorResponse("result", error);
    Json resp = responseEnvelope("result");
    resp.set("ok", Json::boolean(true));
    resp.set("id", Json::string(id));
    Json arr = Json::array();
    for (const JobCell& cell : cells)
        arr.append(wire::resultDoc(cell.bench, cell.technique, optsUsed,
                                   *cell.result));
    resp.set("cells", std::move(arr));
    return okResponse(std::move(resp));
}

ProtocolResult
handleCancel(JobManager& jobs, const Json& doc)
{
    std::string id;
    std::string error;
    if (!requestId(doc, id, error))
        return errorResponse("cancel", error);
    if (!jobs.cancel(id, error))
        return errorResponse("cancel", error);
    Json resp = responseEnvelope("cancel");
    resp.set("ok", Json::boolean(true));
    resp.set("id", Json::string(id));
    return okResponse(std::move(resp));
}

ProtocolResult
handleStats(JobManager& jobs)
{
    StatSet set;
    jobs.publishStats(set);
    Json stats = Json::object();
    for (const auto& [name, value] : set.entries())
        stats.set(name, Json::number(value));
    Json resp = responseEnvelope("stats");
    resp.set("ok", Json::boolean(true));
    resp.set("stats", std::move(stats));
    return okResponse(std::move(resp));
}

ProtocolResult
handleDrain(JobManager& jobs)
{
    jobs.drain();
    Json resp = responseEnvelope("drain");
    resp.set("ok", Json::boolean(true));
    ProtocolResult out = okResponse(std::move(resp));
    out.drained = true;
    return out;
}

ProtocolResult
handleSubscribe(JobManager& jobs, ConnState& conn, const Json& doc)
{
    std::string id;
    std::string error;
    if (!requestId(doc, id, error))
        return errorResponse("subscribe", error);
    if (conn.sub != nullptr)
        return errorResponse("subscribe",
                             "connection already subscribed to job '" +
                                 conn.sub->jobId + "'");
    std::shared_ptr<Subscription> sub = jobs.subscribe(id, error);
    if (sub == nullptr)
        return errorResponse("subscribe", error);
    conn.sub = std::move(sub);
    Json resp = responseEnvelope("subscribe");
    resp.set("ok", Json::boolean(true));
    resp.set("id", Json::string(id));
    return okResponse(std::move(resp));
}

ProtocolResult
handleUnsubscribe(JobManager& jobs, ConnState& conn)
{
    if (conn.sub == nullptr)
        return errorResponse("unsubscribe",
                             "connection has no subscription");
    const std::string id = conn.sub->jobId;
    jobs.unsubscribe(conn.sub);
    conn.sub.reset();
    Json resp = responseEnvelope("unsubscribe");
    resp.set("ok", Json::boolean(true));
    resp.set("id", Json::string(id));
    return okResponse(std::move(resp));
}

} // namespace

ProtocolResult
handleRequestLine(JobManager& jobs, ConnState& conn,
                  const std::string& line)
{
    Json doc;
    std::string error;
    if (!Json::parse(line, doc, error))
        return errorResponse("?", "malformed request: " + error);
    if (!doc.isObject())
        return errorResponse("?", "request must be a JSON object");
    const Json* wire_v = doc.find("wire");
    if (wire_v == nullptr || !wire_v->isNumber())
        return errorResponse("?", "request missing numeric 'wire'");
    if (wire_v->asU64() < wire::kMinSchemaVersion ||
        wire_v->asU64() > wire::kSchemaVersion)
        return errorResponse(
            "?", "unsupported wire version " +
                     std::to_string(wire_v->asU64()) + " (expected " +
                     std::to_string(wire::kMinSchemaVersion) + ".." +
                     std::to_string(wire::kSchemaVersion) + ")");
    const Json* type = doc.find("type");
    if (type == nullptr || !type->isString())
        return errorResponse("?", "request missing string 'type'");
    const std::string& t = type->asString();
    if (t == "submit")
        return handleSubmit(jobs, doc);
    if (t == "status")
        return handleStatus(jobs, doc);
    if (t == "result")
        return handleResult(jobs, doc);
    if (t == "cancel")
        return handleCancel(jobs, doc);
    if (t == "checkpoint")
        return handleCheckpoint(jobs, doc);
    if (t == "stats")
        return handleStats(jobs);
    if (t == "drain")
        return handleDrain(jobs);
    if (t == "subscribe")
        return handleSubscribe(jobs, conn, doc);
    if (t == "unsubscribe")
        return handleUnsubscribe(jobs, conn);
    return errorResponse(t, "unknown request type '" + t + "'");
}

Json
statusJson(const JobStatus& status)
{
    Json j = Json::object();
    j.set("id", Json::string(status.id));
    j.set("state", Json::string(jobStateName(status.state)));
    j.set("priority", Json::number(std::uint64_t(status.priority)));
    j.set("totalCells", Json::number(std::uint64_t(status.totalCells)));
    j.set("completedCells",
          Json::number(std::uint64_t(status.completedCells)));
    j.set("deduped", Json::boolean(status.deduped));
    j.set("submitSeq", Json::number(status.submitSeq));
    j.set("startSeq", Json::number(status.startSeq));
    if (!status.error.empty())
        j.set("error", Json::string(status.error));
    return j;
}

bool
parseStatusJson(const Json& j, JobStatus& out, std::string& error)
{
    using namespace codec;
    const std::string path = "status";
    const JsonPath at(path);
    std::string state;
    if (!getString(j, path, "id", out.id, error) ||
        !getString(j, path, "state", state, error) ||
        !getOptionalString(j, path, "error", out.error, error) ||
        !decodeMember(j, at, "priority", out.priority, error) ||
        !decodeMember(j, at, "totalCells", out.totalCells, error) ||
        !decodeMember(j, at, "completedCells", out.completedCells,
                      error) ||
        !decodeMember(j, at, "deduped", out.deduped, error) ||
        !decodeMember(j, at, "submitSeq", out.submitSeq, error) ||
        !decodeMember(j, at, "startSeq", out.startSeq, error))
        return false;
    for (JobState s :
         {JobState::Queued, JobState::Running, JobState::Done,
          JobState::Cancelled, JobState::Failed}) {
        if (state == jobStateName(s)) {
            out.state = s;
            return true;
        }
    }
    return failAt(error, path + ".state",
                  "unknown job state '" + state + "'");
}

} // namespace wg::serve
