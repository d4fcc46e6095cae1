#include "client.hh"

#include <chrono>
#include <thread>

#include "common/codec.hh"
#include "serve/protocol.hh"
#include "serve/snapshot.hh"
#include "serve/wire_detail.hh"

namespace wg::serve {

using namespace codec;
using wire::detail::makeEnvelope;

namespace {

/** Root of the error paths of daemon responses. */
const std::string kRoot = "$";

} // namespace

bool
Client::connect(std::uint16_t port, int timeoutMs, std::string& error)
{
    fd_ = connectTcp(port, timeoutMs, error);
    if (!fd_.valid())
        return false;
    reader_ = std::make_unique<LineReader>(fd_.get());
    return true;
}

bool
Client::roundTrip(const Json& request, const std::string& expect,
                  int timeoutMs, Json& response, std::string& error)
{
    if (!fd_.valid()) {
        error = "not connected";
        return false;
    }
    if (!sendAll(fd_.get(), request.dump() + "\n", error))
        return false;
    std::string line;
    LineReader::Status st = reader_->readLine(line, timeoutMs, error);
    if (st == LineReader::Status::Timeout) {
        error = "timed out waiting for the daemon's response";
        return false;
    }
    if (st == LineReader::Status::Eof) {
        error = "daemon closed the connection";
        return false;
    }
    if (st == LineReader::Status::Error)
        return false;
    if (!Json::parse(line, response, error)) {
        error = "malformed response: " + error;
        return false;
    }
    std::string req;
    bool ok = false;
    if (!wire::checkEnvelope(response, "response", error) ||
        !getString(response, kRoot, "request", req, error) ||
        !decodeMember(response, JsonPath(kRoot), "ok", ok, error))
        return false;
    if (req != expect) {
        error = "response for the wrong request type";
        return false;
    }
    if (!ok) {
        std::string why = "daemon reported an unspecified error";
        getOptionalString(response, kRoot, "error", why, error);
        error = why;
        return false;
    }
    return true;
}

bool
Client::submit(const SweepSpec& spec, unsigned priority,
               std::string& id, bool& deduped, std::string& error)
{
    Json req = makeEnvelope("submit");
    req.set("priority", Json::number(std::uint64_t(priority)));
    req.set("sweep", wire::toJson(spec));
    Json resp;
    if (!roundTrip(req, "submit", timeout_ms_, resp, error))
        return false;
    return getString(resp, kRoot, "id", id, error) &&
           decodeMember(resp, JsonPath(kRoot), "deduped", deduped, error);
}

bool
Client::submitSnapshot(const Json& snapshotDoc, unsigned priority,
                       std::string& id, bool& deduped,
                       std::uint64_t& seeded, std::string& error)
{
    // Validate client-side so a corrupt file fails with a sharp error
    // before anything hits the daemon; the original sweep/cells JSON
    // is then passed through verbatim (lexemes preserved).
    std::string snapId;
    SweepSpec spec({}, {});
    std::vector<wire::ResultCell> cells;
    if (!wire::parseJobSnapshotDoc(snapshotDoc, snapId, spec, cells,
                                   error))
        return false;
    Json req = makeEnvelope("submit");
    req.set("priority", Json::number(std::uint64_t(priority)));
    req.set("sweep", Json(*snapshotDoc.find("sweep")));
    req.set("cells", Json(*snapshotDoc.find("cells")));
    Json resp;
    if (!roundTrip(req, "submit", timeout_ms_, resp, error))
        return false;
    const JsonPath at(kRoot);
    return getString(resp, kRoot, "id", id, error) &&
           decodeMember(resp, at, "deduped", deduped, error) &&
           decodeMember(resp, at, "seeded", seeded, error);
}

bool
Client::checkpoint(const std::string& id, Json& snapshotDoc,
                   std::string& error)
{
    Json req = makeEnvelope("checkpoint");
    req.set("id", Json::string(id));
    Json resp;
    if (!roundTrip(req, "checkpoint", timeout_ms_, resp, error))
        return false;
    const Json* snap = nullptr;
    if (!getMember(resp, kRoot, "snapshot", snap, error))
        return false;
    if (!snap->isObject())
        return failAt(error, "$.snapshot", "expected an object");
    snapshotDoc = Json(*snap);
    return true;
}

bool
Client::status(const std::string& id, JobStatus& out,
               std::string& error)
{
    Json req = makeEnvelope("status");
    req.set("id", Json::string(id));
    Json resp;
    if (!roundTrip(req, "status", timeout_ms_, resp, error))
        return false;
    const Json* job = nullptr;
    return getMember(resp, kRoot, "job", job, error) &&
           parseStatusJson(*job, out, error);
}

bool
Client::listJobs(std::vector<JobStatus>& out, std::string& error)
{
    Json resp;
    if (!roundTrip(makeEnvelope("status"), "status", timeout_ms_,
                   resp, error))
        return false;
    const Json* jobs = nullptr;
    if (!getArray(resp, kRoot, "jobs", 0, jobs, error))
        return false;
    out.clear();
    for (const Json& j : jobs->items()) {
        JobStatus s;
        if (!parseStatusJson(j, s, error))
            return false;
        out.push_back(std::move(s));
    }
    return true;
}

bool
Client::waitForJob(const std::string& id, int pollMs, int timeoutMs,
                   JobStatus& out, std::string& error)
{
    // Client-side pacing only; the daemon's results are independent of
    // when we ask.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeoutMs);
    for (;;) {
        if (!status(id, out, error))
            return false;
        if (out.state == JobState::Done ||
            out.state == JobState::Cancelled ||
            out.state == JobState::Failed)
            return true;
        if (std::chrono::steady_clock::now() >= deadline) {
            error = "timed out waiting for job '" + id + "' (" +
                    jobStateName(out.state) + ", " +
                    std::to_string(out.completedCells) + "/" +
                    std::to_string(out.totalCells) + " cells)";
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
    }
}

bool
Client::results(const std::string& id,
                std::vector<wire::ResultCell>& out, std::string& error)
{
    Json req = makeEnvelope("result");
    req.set("id", Json::string(id));
    Json resp;
    if (!roundTrip(req, "result", timeout_ms_, resp, error))
        return false;
    const Json* cells = nullptr;
    if (!getArray(resp, kRoot, "cells", 0, cells, error))
        return false;
    out.clear();
    for (const Json& doc : cells->items()) {
        wire::ResultCell cell;
        if (!wire::parseResultDoc(doc, cell, error))
            return false;
        out.push_back(std::move(cell));
    }
    return true;
}

bool
Client::cancel(const std::string& id, std::string& error)
{
    Json req = makeEnvelope("cancel");
    req.set("id", Json::string(id));
    Json resp;
    return roundTrip(req, "cancel", timeout_ms_, resp, error);
}

bool
Client::stats(std::map<std::string, double>& out, std::string& error)
{
    Json resp;
    if (!roundTrip(makeEnvelope("stats"), "stats", timeout_ms_,
                   resp, error))
        return false;
    const Json* stats = nullptr;
    if (!getMember(resp, kRoot, "stats", stats, error))
        return false;
    if (!stats->isObject())
        return failAt(error, "$.stats", "expected an object");
    out.clear();
    const JsonPath root(kRoot);
    const JsonPath at(root, "stats");
    for (const auto& [name, value] : stats->members())
        if (!decodeValue(value, JsonPath(at, name.c_str()), out[name],
                         error))
            return false;
    return true;
}

bool
Client::drain(int timeoutMs, std::string& error)
{
    Json resp;
    return roundTrip(makeEnvelope("drain"), "drain", timeoutMs,
                     resp, error);
}

namespace {

bool
parseFrameLine(const Json& doc, Frame& out, std::string& error)
{
    const std::string path = "frame";
    const JsonPath at(path);
    out = Frame{};
    std::string k;
    if (!getString(doc, path, "frame", k, error) ||
        !getString(doc, path, "id", out.jobId, error))
        return false;
    if (k == "meta" || k == "epoch" || k == "final") {
        out.kind = k == "meta" ? FrameKind::Meta
                   : k == "epoch" ? FrameKind::Epoch
                                  : FrameKind::Final;
        const Json* data = nullptr;
        if (!decodeMember(doc, at, "cell", out.cell, error) ||
            !getMember(doc, path, "data", data, error))
            return false;
        if (!data->isObject())
            return failAt(error, path + ".data", "expected an object");
        // dump() re-emits preserved number lexemes, so these are the
        // exact bytes the daemon embedded (the offline jsonl line).
        out.data = data->dump();
        return out.kind != FrameKind::Meta ||
               (getOptionalString(doc, path, "bench", out.bench, error) &&
                getOptionalString(doc, path, "technique", out.technique,
                                  error));
    }
    if (k == "progress") {
        out.kind = FrameKind::Progress;
        if (!decodeMember(doc, at, "completedCells", out.completedCells,
                          error) ||
            !decodeMember(doc, at, "totalCells", out.totalCells, error))
            return false;
        const Json* eta = doc.find("etaMs");
        out.etaMs =
            (eta != nullptr && eta->isNumber()) ? eta->asDouble() : -1.0;
        return true;
    }
    if (k == "result") {
        out.kind = FrameKind::Result;
        return getString(doc, path, "state", out.state, error) &&
               getOptionalString(doc, path, "error", out.error, error) &&
               decodeMember(doc, at, "droppedFrames", out.droppedFrames,
                            error);
    }
    return failAt(error, path + ".frame", "unknown frame kind '" + k + "'");
}

} // namespace

bool
Client::subscribe(const std::string& id, std::string& error)
{
    if (subscribed_) {
        error = "already subscribed";
        return false;
    }
    Json req = makeEnvelope("subscribe");
    req.set("id", Json::string(id));
    Json resp;
    if (!roundTrip(req, "subscribe", timeout_ms_, resp, error))
        return false;
    subscribed_ = true;
    return true;
}

bool
Client::unsubscribe(std::string& error)
{
    if (!subscribed_) {
        error = "not subscribed";
        return false;
    }
    if (!sendAll(fd_.get(), makeEnvelope("unsubscribe").dump() + "\n",
                 error))
        return false;
    // Frames already in flight interleave ahead of the response;
    // discard them until the unsubscribe response line arrives.
    std::string line;
    for (;;) {
        LineReader::Status st =
            reader_->readLine(line, timeout_ms_, error);
        if (st == LineReader::Status::Timeout) {
            error = "timed out waiting for the unsubscribe response";
            return false;
        }
        if (st == LineReader::Status::Eof) {
            error = "daemon closed the connection";
            return false;
        }
        if (st == LineReader::Status::Error)
            return false;
        Json doc;
        if (!Json::parse(line, doc, error)) {
            error = "malformed line during unsubscribe: " + error;
            return false;
        }
        const Json* type = doc.find("type");
        if (type != nullptr && type->isString() &&
            type->asString() == "frame")
            continue;
        const Json* req = doc.find("request");
        if (req == nullptr || !req->isString() ||
            req->asString() != "unsubscribe") {
            error = "unexpected response during unsubscribe";
            return false;
        }
        subscribed_ = false;
        const Json* ok = doc.find("ok");
        if (ok == nullptr || !ok->isBool() || !ok->asBool()) {
            const Json* err = doc.find("error");
            error = (err != nullptr && err->isString())
                        ? err->asString()
                        : "daemon rejected the unsubscribe";
            return false;
        }
        return true;
    }
}

bool
Client::nextFrame(Frame& out, int timeoutMs, std::string& error)
{
    if (!subscribed_) {
        error = "not subscribed";
        return false;
    }
    std::string line;
    LineReader::Status st = reader_->readLine(line, timeoutMs, error);
    if (st == LineReader::Status::Timeout) {
        error = "timed out waiting for a frame";
        return false;
    }
    if (st == LineReader::Status::Eof) {
        error = "daemon closed the connection";
        return false;
    }
    if (st == LineReader::Status::Error)
        return false;
    Json doc;
    if (!Json::parse(line, doc, error)) {
        error = "malformed frame: " + error;
        return false;
    }
    const Json* type = doc.find("type");
    if (type == nullptr || !type->isString() ||
        type->asString() != "frame") {
        error = "expected a frame line, got something else";
        return false;
    }
    if (!parseFrameLine(doc, out, error))
        return false;
    if (out.kind == FrameKind::Result)
        subscribed_ = false; // stream is over; daemon pushes no more
    return true;
}

} // namespace wg::serve
