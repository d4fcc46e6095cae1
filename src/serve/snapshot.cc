#include "snapshot.hh"

#include "serve/wire_detail.hh"

namespace wg::serve::wire {

using namespace codec;
using namespace detail;

namespace {

Json
snapshotIdentityToJson(const SnapshotIdentity& id)
{
    Json j = Json::object();
    j.set("bench", Json::string(id.bench));
    j.set("technique", Json::string(techniqueName(id.technique)));
    j.set("options", toJson(id.options));
    Json overrides = Json::object();
    overrides.set("scheduler", Json::string(id.schedulerOverride));
    overrides.set("pg", Json::string(id.pgOverride));
    overrides.set("adaptive", Json::boolean(id.adaptiveOverride));
    overrides.set("gateSfu", Json::boolean(id.gateSfuOverride));
    j.set("overrides", std::move(overrides));
    return j;
}

bool
snapshotIdentityFromJson(const Json& j, const std::string& path,
                         SnapshotIdentity& out, std::string& error)
{
    std::string technique_name;
    if (!getString(j, path, "bench", out.bench, error) ||
        !getString(j, path, "technique", technique_name, error))
        return false;
    if (!parseTechnique(technique_name, out.technique))
        return failAt(error, path + ".technique",
                      "unknown technique '" + technique_name + "'");
    const Json* options = nullptr;
    if (!getMember(j, path, "options", options, error) ||
        !fromJson(*options, out.options, error))
        return false;
    const Json* overrides = nullptr;
    if (!getMember(j, path, "overrides", overrides, error))
        return false;
    const std::string opath = path + ".overrides";
    const JsonPath at(opath);
    return getString(*overrides, opath, "scheduler",
                     out.schedulerOverride, error) &&
           getString(*overrides, opath, "pg", out.pgOverride, error) &&
           decodeMember(*overrides, at, "adaptive", out.adaptiveOverride,
                        error) &&
           decodeMember(*overrides, at, "gateSfu", out.gateSfuOverride,
                        error);
}

} // namespace

Json
gpuSnapshotToJson(const GpuSnapshot& s)
{
    return encode(s);
}

bool
gpuSnapshotFromJson(const Json& j, const std::string& path,
                    GpuSnapshot& out, std::string& error)
{
    if (!decode(j, path, out, error))
        return false;
    if (out.sms.empty())
        return failAt(error, path + ".sms", "must not be empty");
    return true;
}

bool
snapshotConfig(const SnapshotIdentity& id, GpuConfig& out,
               std::string& error)
{
    out = makeConfig(id.technique, id.options);
    if (!id.schedulerOverride.empty() &&
        !parseSchedulerPolicy(id.schedulerOverride, out.sm.scheduler)) {
        error = "unknown scheduler override '" + id.schedulerOverride +
                "'";
        return false;
    }
    if (!id.pgOverride.empty() &&
        !parsePgPolicy(id.pgOverride, out.sm.pg.policy)) {
        error = "unknown pg override '" + id.pgOverride + "'";
        return false;
    }
    if (id.adaptiveOverride)
        out.sm.pg.adaptiveIdleDetect = true;
    if (id.gateSfuOverride)
        out.sm.pg.gateSfu = true;
    const std::vector<std::string> problems = out.validate();
    if (!problems.empty()) {
        error = "invalid configuration: " + problems.front();
        return false;
    }
    return true;
}

JsonLimits
snapshotJsonLimits()
{
    JsonLimits limits;
    // One trace ring holds up to 2^20 events; leave headroom above it.
    limits.maxContainerItems = std::size_t(1) << 21;
    return limits;
}

Json
snapshotDoc(const SnapshotIdentity& id, const GpuSnapshot& snap)
{
    Json doc = makeEnvelope("snapshot");
    // The identity members are spliced into the document root so the
    // doc reads like a resultDoc header. Keep the temporary alive for
    // the whole splice: members() views into it.
    const Json identity = snapshotIdentityToJson(id);
    for (const auto& [key, value] : identity.members())
        doc.set(key, Json(value));
    doc.set("snapshot", gpuSnapshotToJson(snap));
    return doc;
}

Json
jobSnapshotDoc(const std::string& id, const SweepSpec& spec,
               const std::vector<Json>& cellDocs)
{
    Json doc = makeEnvelope("jobSnapshot");
    doc.set("id", Json::string(id));
    doc.set("sweep", toJson(spec));
    Json cells = Json::array();
    for (const Json& cell : cellDocs)
        cells.append(Json(cell));
    doc.set("cells", std::move(cells));
    return doc;
}

bool
parseJobSnapshotDoc(const Json& doc, std::string& id, SweepSpec& spec,
                    std::vector<ResultCell>& cells, std::string& error)
{
    if (!checkEnvelope(doc, "jobSnapshot", error))
        return false;
    std::string jid;
    if (!getString(doc, "$", "id", jid, error))
        return false;
    const Json* sweep = nullptr;
    if (!getMember(doc, "$", "sweep", sweep, error))
        return false;
    if (!fromJson(*sweep, spec, error))
        return false;
    const Json* arr = nullptr;
    if (!getArray(doc, "$", "cells", 0, arr, error))
        return false;
    cells.clear();
    for (const Json& cell : arr->items()) {
        ResultCell out;
        if (!parseResultDoc(cell, out, error))
            return false;
        cells.push_back(std::move(out));
    }
    id = std::move(jid);
    return true;
}

bool
parseSnapshotDoc(const Json& doc, SnapshotIdentity& id,
                 GpuSnapshot& snap, std::string& error)
{
    if (!checkEnvelope(doc, "snapshot", error))
        return false;
    if (!snapshotIdentityFromJson(doc, "$", id, error))
        return false;
    const Json* body = nullptr;
    if (!getMember(doc, "$", "snapshot", body, error))
        return false;
    if (snap.sms.size() != 0)
        snap = GpuSnapshot{};
    if (!gpuSnapshotFromJson(*body, "snapshot", snap, error))
        return false;
    if (snap.sms.size() != id.options.numSms)
        return failAt(error, "snapshot.sms",
                      "SM count does not match options.numSms");
    return true;
}

} // namespace wg::serve::wire
