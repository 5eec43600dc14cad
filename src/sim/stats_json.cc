#include "sim/stats_json.hh"

namespace tsoper
{

Json
statsToJson(const StatsRegistry &reg)
{
    Json counters = Json::object();
    for (const auto &[name, c] : reg.counters())
        counters.set(name, Json(c.value()));

    Json histograms = Json::object();
    for (const auto &[name, h] : reg.histograms()) {
        const auto counts = h.buckets();
        Json buckets = Json::array(counts.size());
        for (const auto &[value, count] : counts) {
            Json pair = Json::array(2);
            pair.push(Json(value)).push(Json(count));
            buckets.push(std::move(pair));
        }
        Json entry = Json::object();
        entry.set("samples", Json(h.samples()))
            .set("total", Json(h.total()))
            .set("min", Json(h.min()))
            .set("max", Json(h.max()))
            .set("mean", Json(h.mean()))
            .set("buckets", std::move(buckets));
        histograms.set(name, std::move(entry));
    }

    Json series = Json::object();
    for (const auto &[name, ts] : reg.series()) {
        // Sized arrays: one allocation per [cycle, value] point.
        Json points = Json::array(ts.points().size());
        for (const auto &[cycle, value] : ts.points()) {
            Json pair = Json::array(2);
            pair.push(Json(static_cast<std::uint64_t>(cycle)))
                .push(Json(value));
            points.push(std::move(pair));
        }
        series.set(name, std::move(points));
    }

    Json doc = Json::object();
    doc.set("counters", std::move(counters))
        .set("histograms", std::move(histograms))
        .set("series", std::move(series));
    return doc;
}

namespace
{

bool
schemaError(std::string *err, const std::string &msg)
{
    if (err)
        *err = "stats json: " + msg;
    return false;
}

} // namespace

bool
statsFromJson(const Json &doc, StatsRegistry *out, std::string *err)
{
    if (!doc.isObject())
        return schemaError(err, "document is not an object");

    if (const Json *counters = doc.find("counters")) {
        if (!counters->isObject())
            return schemaError(err, "\"counters\" is not an object");
        for (const auto &[name, v] : counters->members()) {
            if (!v.isNumber())
                return schemaError(err,
                                   "counter \"" + name + "\" not a number");
            out->counter(name).inc(v.asUint());
        }
    }

    if (const Json *histograms = doc.find("histograms")) {
        if (!histograms->isObject())
            return schemaError(err, "\"histograms\" is not an object");
        for (const auto &[name, entry] : histograms->members()) {
            const Json *buckets =
                entry.isObject() ? entry.find("buckets") : nullptr;
            if (!buckets || !buckets->isArray())
                return schemaError(
                    err, "histogram \"" + name + "\" has no bucket list");
            Histogram &h = out->histogram(name);
            for (std::size_t i = 0; i < buckets->size(); ++i) {
                const Json &pair = buckets->at(i);
                if (!pair.isArray() || pair.size() != 2 ||
                    !pair.at(0).isNumber() || !pair.at(1).isNumber())
                    return schemaError(
                        err, "histogram \"" + name + "\" bucket " +
                                 std::to_string(i) + " malformed");
                h.add(pair.at(0).asUint(), pair.at(1).asUint());
            }
            // Moments are derived from the buckets; cross-check the
            // recorded sample count to catch truncated documents.
            if (const Json *samples = entry.find("samples")) {
                if (samples->isNumber() &&
                    samples->asUint() != h.samples())
                    return schemaError(
                        err, "histogram \"" + name +
                                 "\" sample count mismatch");
            }
        }
    }

    if (const Json *series = doc.find("series")) {
        if (!series->isObject())
            return schemaError(err, "\"series\" is not an object");
        for (const auto &[name, points] : series->members()) {
            if (!points.isArray())
                return schemaError(
                    err, "series \"" + name + "\" is not an array");
            TimeSeries &ts = out->timeSeries(name);
            for (std::size_t i = 0; i < points.size(); ++i) {
                const Json &pair = points.at(i);
                if (!pair.isArray() || pair.size() != 2 ||
                    !pair.at(0).isNumber() || !pair.at(1).isNumber())
                    return schemaError(
                        err, "series \"" + name + "\" point " +
                                 std::to_string(i) + " malformed");
                ts.sample(static_cast<Cycle>(pair.at(0).asUint()),
                          pair.at(1).asDouble());
            }
        }
    }

    return true;
}

std::string
statsJsonText(const StatsRegistry &reg, int indent)
{
    return statsToJson(reg).dump(indent);
}

} // namespace tsoper
