#include "stream.hh"

#include "common/json.hh"
#include "metrics/exporters.hh"
#include "serve/wire.hh"

namespace wg::serve::stream {

namespace {

/** The shared envelope head, up to (not including) the kind fields. */
std::string
framePrefix(const char* kind, const std::string& id)
{
    std::string out = "{\"wire\":";
    out += std::to_string(wire::kSchemaVersion);
    out += ",\"type\":\"frame\",\"frame\":\"";
    out += kind;
    out += "\",\"id\":\"";
    out += jsonEscape(id);
    out += '"';
    return out;
}

} // namespace

std::string
metaFrame(const std::string& id, std::size_t cell,
          const std::string& bench, const std::string& technique,
          const metrics::EpochSeries* series)
{
    std::string out = framePrefix("meta", id);
    out += ",\"cell\":";
    out += std::to_string(cell);
    out += ",\"bench\":\"";
    out += jsonEscape(bench);
    out += "\",\"technique\":\"";
    out += jsonEscape(technique);
    out += "\",\"data\":";
    out += metrics::jsonlMetaLine(series != nullptr,
                                  series ? series->epochLength : 0,
                                  series ? series->numSms() : 0);
    out += '}';
    return out;
}

std::string
epochFrame(const std::string& id, std::size_t cell, SmId sm,
           const metrics::EpochSample& s)
{
    std::string out = framePrefix("epoch", id);
    out += ",\"cell\":";
    out += std::to_string(cell);
    out += ",\"data\":";
    out += metrics::jsonlEpochLine(sm, s);
    out += '}';
    return out;
}

std::string
finalFrame(const std::string& id, std::size_t cell,
           const StatSet& registry)
{
    std::string out = framePrefix("final", id);
    out += ",\"cell\":";
    out += std::to_string(cell);
    out += ",\"data\":";
    out += metrics::jsonlFinalLine(registry);
    out += '}';
    return out;
}

std::string
progressFrame(const std::string& id, std::size_t completedCells,
              std::size_t totalCells, double etaMs)
{
    std::string out = framePrefix("progress", id);
    out += ",\"completedCells\":";
    out += std::to_string(completedCells);
    out += ",\"totalCells\":";
    out += std::to_string(totalCells);
    if (etaMs >= 0.0) {
        out += ",\"etaMs\":";
        out += formatMetricValue(etaMs);
    }
    out += '}';
    return out;
}

std::string
resultFrame(const std::string& id, const char* state,
            const std::string& error)
{
    std::string out = framePrefix("result", id);
    out += ",\"state\":\"";
    out += state;
    out += '"';
    if (!error.empty()) {
        out += ",\"error\":\"";
        out += jsonEscape(error);
        out += '"';
    }
    out += ",\"droppedFrames\":0}";
    return out;
}

std::vector<std::string>
cellFrames(const std::string& id, std::size_t cell,
           const std::string& bench, const std::string& technique,
           const metrics::EpochSeries* series, const StatSet& registry)
{
    std::vector<std::string> out;
    out.reserve(2 + (series ? series->totalSamples() : 0));
    out.push_back(metaFrame(id, cell, bench, technique, series));
    if (series != nullptr) {
        for (SmId sm = 0; sm < series->numSms(); ++sm)
            for (const metrics::EpochSample& s : series->perSm[sm])
                out.push_back(epochFrame(id, cell, sm, s));
    }
    out.push_back(finalFrame(id, cell, registry));
    return out;
}

} // namespace wg::serve::stream
