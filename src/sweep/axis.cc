#include "sweep/axis.hh"

#include <stdexcept>

#include "sim/param_registry.hh"

namespace hermes::sweep
{

std::vector<std::string>
splitCommaList(const std::string &spec, const std::string &what)
{
    std::vector<std::string> out;
    if (spec.empty())
        throw std::invalid_argument(what + " '" + spec +
                                    "' has no entries");
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? spec.size() : comma;
        if (end == start)
            throw std::invalid_argument(what + " '" + spec +
                                        "' has an empty entry");
        out.push_back(spec.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (out.empty())
        throw std::invalid_argument(what + " '" + spec +
                                    "' has no entries");
    return out;
}

Axis
parseAxis(const std::string &spec)
{
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0)
        throw std::invalid_argument(
            "axis spec must look like key=v1,v2,...; got '" + spec +
            "'");
    Axis axis;
    axis.key = spec.substr(0, eq);
    axis.values = splitCommaList(spec.substr(eq + 1), "axis spec");
    // Check every value the way expandAxis applies it, so a model knob
    // ("popet.act_threshold") or a corpus knob ("corpus.chase.alu") is
    // an axis like any core parameter.
    SystemConfig scratch = SystemConfig::baseline(1);
    for (const std::string &v : axis.values)
        ParamRegistry::instance().apply(scratch, axis.key, v);
    return axis;
}

std::vector<ConfigPoint>
expandAxis(const SystemConfig &base, const std::string &spec)
{
    const Axis axis = parseAxis(spec);
    std::vector<ConfigPoint> out;
    out.reserve(axis.values.size());
    for (const std::string &v : axis.values) {
        ConfigPoint pt{axis.key + "=" + v, base};
        ParamRegistry::instance().apply(pt.config, axis.key, v);
        out.push_back(std::move(pt));
    }
    return out;
}

std::vector<ConfigPoint>
expandGrid(const SystemConfig &base, const std::vector<std::string> &specs)
{
    std::vector<ConfigPoint> points{{"", base}};
    for (const std::string &spec : specs) {
        std::vector<ConfigPoint> next;
        for (const ConfigPoint &pt : points) {
            for (ConfigPoint &sub : expandAxis(pt.config, spec)) {
                sub.label = pt.label.empty()
                                ? sub.label
                                : pt.label + "/" + sub.label;
                next.push_back(std::move(sub));
            }
        }
        points = std::move(next);
    }
    return points;
}

} // namespace hermes::sweep
