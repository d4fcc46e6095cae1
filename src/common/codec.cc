#include "codec.hh"

namespace wg::codec {

bool
failAt(std::string& error, const std::string& path,
       const std::string& what)
{
    error = path + ": " + what;
    return false;
}

bool
getMember(const Json& obj, const std::string& path, const char* key,
          const Json*& out, std::string& error)
{
    out = findMember(obj, JsonPath(path), key, error);
    return out != nullptr;
}

bool
getArray(const Json& obj, const std::string& path, const char* key,
         std::size_t size, const Json*& out, std::string& error)
{
    const JsonPath at(path);
    return getMember(obj, path, key, out, error) &&
           checkArray(*out, JsonPath(at, key), size, error);
}

bool
checkArray(const Json& v, const JsonPath& path, std::size_t size,
           std::string& error)
{
    if (!v.isArray())
        return failAt(error, path.str(), "expected an array");
    if (size != 0 && v.items().size() != size)
        return failAt(error, path.str(),
                      "expected exactly " + std::to_string(size) +
                          " elements, got " +
                          std::to_string(v.items().size()));
    return true;
}

Json
histogramToJson(const Histogram& h)
{
    Json j = Json::object();
    j.set("maxBin", Json::number(h.maxBin()));
    Json bins = Json::array();
    for (std::uint64_t b = 0; b <= h.maxBin(); ++b)
        bins.append(Json::number(h.bin(b)));
    j.set("bins", std::move(bins));
    j.set("overflow", Json::number(h.overflow()));
    j.set("total", Json::number(h.total()));
    j.set("sum", Json::number(h.sum()));
    return j;
}

bool
histogramFromJson(const Json& j, const std::string& path, Histogram& out,
                  std::string& error)
{
    std::uint64_t max_bin = 0;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    std::uint64_t sum = 0;
    const JsonPath at(path);
    if (!decodeMember(j, at, "maxBin", max_bin, error) ||
        !decodeMember(j, at, "overflow", overflow, error) ||
        !decodeMember(j, at, "total", total, error) ||
        !decodeMember(j, at, "sum", sum, error))
        return false;
    if (max_bin > 1 << 20)
        return failAt(error, path + ".maxBin", "implausibly large");
    const Json* bins_j = nullptr;
    if (!getArray(j, path, "bins", max_bin + 1, bins_j, error))
        return false;
    const std::string bins_path = path + ".bins";
    std::vector<std::uint64_t> bins;
    if (!decodeValue(*bins_j, JsonPath(bins_path), bins, error))
        return false;
    std::uint64_t binned = 0;
    for (std::uint64_t b : bins)
        binned += b;
    if (binned + overflow != total)
        return failAt(error, path,
                      "total does not equal sum(bins) + overflow");
    out = Histogram::fromRaw(max_bin, std::move(bins), overflow, total,
                             sum);
    return true;
}

} // namespace wg::codec
