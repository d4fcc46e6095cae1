#include "wire.hh"

#include "serve/wire_detail.hh"
#include "workload/profile.hh"

namespace wg::serve::wire {

namespace detail {

Json
makeEnvelope(const char* type)
{
    Json doc = Json::object();
    doc.set("wire", Json::number(kSchemaVersion));
    doc.set("type", Json::string(type));
    return doc;
}

} // namespace detail

using namespace codec;
using namespace detail;

bool
checkEnvelope(const Json& doc, const std::string& type,
              std::string& error)
{
    if (!doc.isObject())
        return failAt(error, "$", "expected an object document");
    const Json* v = doc.find("wire");
    if (v == nullptr || !v->isNumber())
        return failAt(error, "$.wire", "missing schema version");
    if (v->asU64() < kMinSchemaVersion || v->asU64() > kSchemaVersion) {
        error = "$.wire: unsupported schema version " +
                std::to_string(v->asU64()) + " (this build speaks " +
                std::to_string(kMinSchemaVersion) + ".." +
                std::to_string(kSchemaVersion) + ")";
        return false;
    }
    std::string t;
    if (!getString(doc, "$", "type", t, error))
        return false;
    if (t != type)
        return failAt(error, "$.type",
                      "expected '" + type + "', got '" + t + "'");
    return true;
}

bool
parseTechnique(const std::string& name, Technique& out)
{
    for (Technique t : allTechniques()) {
        if (name == techniqueName(t)) {
            out = t;
            return true;
        }
    }
    return false;
}

Json
toJson(const ExperimentOptions& opts)
{
    return encode(opts);
}

bool
fromJson(const Json& j, ExperimentOptions& out, std::string& error)
{
    if (!decode(j, "options", out, error))
        return false;
    if (out.numSms == 0 || out.numSms > GpuConfig::kMaxSms)
        return failAt(error, "options.numSms",
                      "must be in [1, " +
                          std::to_string(GpuConfig::kMaxSms) + "]");
    return true;
}

Json
toJson(const SweepSpec& spec)
{
    Json j = Json::object();
    Json benches = Json::array();
    for (const std::string& b : spec.benches)
        benches.append(Json::string(b));
    j.set("benches", std::move(benches));
    Json techniques = Json::array();
    for (Technique t : spec.techniques)
        techniques.append(Json::string(techniqueName(t)));
    j.set("techniques", std::move(techniques));
    if (spec.options)
        j.set("options", toJson(*spec.options));
    return j;
}

bool
fromJson(const Json& j, SweepSpec& out, std::string& error)
{
    const Json* benches = nullptr;
    if (!getArray(j, "sweep", "benches", 0, benches, error))
        return false;
    if (benches->items().empty())
        return failAt(error, "sweep.benches", "must not be empty");
    std::vector<std::string> bench_names;
    for (std::size_t i = 0; i < benches->items().size(); ++i) {
        const Json& b = benches->items()[i];
        if (!b.isString())
            return failAt(error,
                          "sweep.benches." + std::to_string(i),
                          "expected a string");
        bench_names.push_back(b.asString());
    }
    const Json* techniques = nullptr;
    if (!getArray(j, "sweep", "techniques", 0, techniques, error))
        return false;
    if (techniques->items().empty())
        return failAt(error, "sweep.techniques", "must not be empty");
    std::vector<Technique> techs;
    for (std::size_t i = 0; i < techniques->items().size(); ++i) {
        const Json& t = techniques->items()[i];
        Technique parsed = Technique::Baseline;
        if (!t.isString() || !parseTechnique(t.asString(), parsed))
            return failAt(error,
                          "sweep.techniques." + std::to_string(i),
                          "unknown technique");
        techs.push_back(parsed);
    }
    std::optional<ExperimentOptions> options;
    if (const Json* o = j.find("options")) {
        ExperimentOptions parsed;
        if (!fromJson(*o, parsed, error))
            return false;
        options = parsed;
    }
    out = SweepSpec(std::move(bench_names), std::move(techs),
                    std::move(options));
    return true;
}

Json
resultDoc(const std::string& bench, Technique technique,
          const ExperimentOptions& opts, const SimResult& result)
{
    Json doc = makeEnvelope("result");
    doc.set("bench", Json::string(bench));
    doc.set("technique", Json::string(techniqueName(technique)));
    doc.set("options", toJson(opts));
    Json body = Json::object();
    body.set("cycles", Json::number(result.cycles));
    body.set("totalSmCycles", Json::number(result.totalSmCycles));
    body.set("smCycles", encodeValue(result.smCycles));
    body.set("aggregate", encode(result.aggregate));
    Json energy = Json::object();
    energy.set("int", encode(result.intEnergy));
    energy.set("fp", encode(result.fpEnergy));
    energy.set("sfu", encode(result.sfuEnergy));
    energy.set("ldst", encode(result.ldstEnergy));
    body.set("energy", std::move(energy));
    doc.set("result", std::move(body));
    return doc;
}

bool
parseResultDoc(const Json& doc, ResultCell& out, std::string& error)
{
    if (!checkEnvelope(doc, "result", error))
        return false;
    std::string technique_name;
    if (!getString(doc, "$", "bench", out.bench, error) ||
        !getString(doc, "$", "technique", technique_name, error))
        return false;
    if (!parseTechnique(technique_name, out.technique))
        return failAt(error, "$.technique",
                      "unknown technique '" + technique_name + "'");
    const Json* options = nullptr;
    if (!getMember(doc, "$", "options", options, error) ||
        !fromJson(*options, out.options, error))
        return false;

    // Rebuild the full configuration the same way the runner derives
    // it; reject (never abort on) configs this build finds invalid.
    SimResult fresh;
    out.result = std::move(fresh);
    out.result.config = makeConfig(out.technique, out.options);
    {
        std::vector<std::string> problems = out.result.config.validate();
        if (!problems.empty())
            return failAt(error, "$.options",
                          "invalid configuration: " + problems.front());
    }

    const Json* body = nullptr;
    if (!getMember(doc, "$", "result", body, error))
        return false;
    const std::string path = "result";
    const JsonPath at(path);
    SimResult& r = out.result;
    if (!decodeMember(*body, at, "cycles", r.cycles, error) ||
        !decodeMember(*body, at, "totalSmCycles", r.totalSmCycles,
                      error) ||
        !decodeMember(*body, at, "smCycles", r.smCycles, error))
        return false;
    if (r.smCycles.size() != out.options.numSms)
        return failAt(error, path + ".smCycles",
                      "length does not match options.numSms");
    if (!decodeMember(*body, at, "aggregate", r.aggregate, error))
        return false;
    const Json* energy = findMember(*body, at, "energy", error);
    const JsonPath eat(at, "energy");
    if (energy == nullptr ||
        !decodeMember(*energy, eat, "int", r.intEnergy, error) ||
        !decodeMember(*energy, eat, "fp", r.fpEnergy, error) ||
        !decodeMember(*energy, eat, "sfu", r.sfuEnergy, error) ||
        !decodeMember(*energy, eat, "ldst", r.ldstEnergy, error))
        return false;

    // The per-type idle histograms are pure aggregations (Gpu::run
    // builds them the same way); rebuilding keeps the wire format
    // non-redundant and the two views impossible to disagree.
    const auto& cl = out.result.aggregate.clusters;
    for (std::size_t type = 0; type < 2; ++type) {
        if (cl[type][0].idleHist.maxBin() !=
            cl[type][1].idleHist.maxBin())
            return failAt(error, path + ".aggregate.clusters",
                          "cluster idleHist maxBin mismatch");
    }
    out.result.intIdleHist = cl[0][0].idleHist;
    out.result.intIdleHist.merge(cl[0][1].idleHist);
    out.result.fpIdleHist = cl[1][0].idleHist;
    out.result.fpIdleHist.merge(cl[1][1].idleHist);
    return true;
}

std::string
canonicalKey(const SweepSpec& spec)
{
    return toJson(spec).dump();
}

} // namespace wg::serve::wire
