/** @file Tests for the JSON document model and the stats exporter. */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>

#include "sim/json.hh"
#include "sim/stats_json.hh"

using namespace tsoper;

// --- Json value model -------------------------------------------------

TEST(Json, ScalarDumps)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
    EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).dump(),
              "18446744073709551615");
    EXPECT_EQ(Json(0.5).dump(), "0.5");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(Json("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
    EXPECT_EQ(Json(std::string("\x01", 1)).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrderAndReplaceInPlace)
{
    Json obj = Json::object();
    obj.set("z", Json(1)).set("a", Json(2)).set("z", Json(3));
    EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
    EXPECT_EQ(obj.size(), 2u);
    EXPECT_EQ((*obj.find("z")).asInt(), 3);
    EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, PrettyPrinting)
{
    Json obj = Json::object();
    obj.set("a", Json(1));
    Json arr = Json::array();
    arr.push(Json(2)).push(Json(3));
    obj.set("b", std::move(arr));
    EXPECT_EQ(obj.dump(2),
              "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    3\n  ]\n}");
}

TEST(Json, ParseScalars)
{
    Json v;
    ASSERT_TRUE(Json::parse("null", &v));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(Json::parse(" true ", &v));
    EXPECT_TRUE(v.asBool());
    ASSERT_TRUE(Json::parse("-12", &v));
    EXPECT_EQ(v.asInt(), -12);
    ASSERT_TRUE(Json::parse("18446744073709551615", &v));
    EXPECT_EQ(v.asUint(), 18446744073709551615ull);
    ASSERT_TRUE(Json::parse("2.5e3", &v));
    EXPECT_DOUBLE_EQ(v.asDouble(), 2500.0);
    ASSERT_TRUE(Json::parse("\"a\\u0041b\"", &v));
    EXPECT_EQ(v.asString(), "aAb");
}

TEST(Json, ParseNested)
{
    Json v;
    ASSERT_TRUE(Json::parse(
        "{\"xs\": [1, 2, {\"y\": null}], \"ok\": false}", &v));
    ASSERT_TRUE(v.isObject());
    const Json &xs = v["xs"];
    ASSERT_EQ(xs.size(), 3u);
    EXPECT_EQ(xs.at(1).asInt(), 2);
    EXPECT_TRUE(xs.at(2)["y"].isNull());
    EXPECT_FALSE(v["ok"].asBool());
}

TEST(Json, ParseErrors)
{
    Json v;
    std::string err;
    EXPECT_FALSE(Json::parse("", &v, &err));
    EXPECT_FALSE(Json::parse("{", &v, &err));
    EXPECT_FALSE(Json::parse("[1,]", &v, &err));
    EXPECT_FALSE(Json::parse("tru", &v, &err));
    EXPECT_FALSE(Json::parse("1 2", &v, &err));
    EXPECT_FALSE(Json::parse("\"abc", &v, &err));
    EXPECT_NE(err.find("offset"), std::string::npos);
}

TEST(Json, RoundTripEquality)
{
    Json doc = Json::object();
    doc.set("name", Json("round trip"))
        .set("count", Json(std::uint64_t{1} << 60))
        .set("frac", Json(0.1));
    Json arr = Json::array();
    arr.push(Json(-1)).push(Json(true)).push(Json());
    doc.set("mix", std::move(arr));

    Json back;
    ASSERT_TRUE(Json::parse(doc.dump(), &back));
    EXPECT_EQ(back, doc);
    EXPECT_EQ(back.dump(), doc.dump());

    // Pretty and compact forms parse to the same document.
    Json pretty;
    ASSERT_TRUE(Json::parse(doc.dump(2), &pretty));
    EXPECT_EQ(pretty, doc);
}

TEST(Json, DoubleFormattingIsShortestRoundTrip)
{
    // 0.1 must not serialize as 0.1000000000000000055511...
    EXPECT_EQ(Json(0.1).dump(), "0.1");
    // A value needing all 17 digits survives.
    const double tricky = 0.12345678901234567;
    Json back;
    ASSERT_TRUE(Json::parse(Json(tricky).dump(), &back));
    EXPECT_EQ(back.asDouble(), tricky);
}

namespace
{

/** The original double formatter: the shortest "%.*g" that strtod
 *  parses back to the same value.  Json must keep its bytes. */
std::string
referenceDouble(double d)
{
    if (!std::isfinite(d))
        return "null";
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d)
            break;
    }
    return buf;
}

} // namespace

TEST(Json, DoublesFormatExactlyAsTheShortestPrintfRoundTrip)
{
    std::mt19937_64 rng(20261020);
    std::size_t checked = 0;
    while (checked < 100000) {
        const std::uint64_t bits = rng();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        if (!std::isfinite(d))
            continue;
        ASSERT_EQ(Json(d).dump(), referenceDouble(d)) << "bits " << bits;
        ++checked;
    }
    // Values as stats produce them: ratios and means.
    for (int i = 0; i < 20000; ++i) {
        const double d = static_cast<double>(rng() % 100000) /
                         static_cast<double>(1 + rng() % 1000);
        ASSERT_EQ(Json(d).dump(), referenceDouble(d));
    }
    // Integral values, as the counts of the stats series are.
    for (int i = -20000; i <= 20000; ++i)
        ASSERT_EQ(Json(static_cast<double>(i)).dump(),
                  referenceDouble(static_cast<double>(i)));
    for (int i = 0; i < 20000; ++i) {
        double d = static_cast<double>(rng() >> (11 + rng() % 50));
        for (unsigned zeros = rng() % 16; zeros && d < 1e15; --zeros)
            d *= 10;
        ASSERT_EQ(Json(d).dump(), referenceDouble(d)) << d;
        ASSERT_EQ(Json(-d).dump(), referenceDouble(-d)) << -d;
    }
    const double edges[] = {0.0,
                            -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            DBL_MIN,
                            DBL_MAX,
                            -DBL_MAX,
                            0.1 + 0.2,
                            9.5e99,
                            1e100,
                            1e-100,
                            1e22,
                            1e23,
                            5e-324,
                            2.2250738585072009e-308,
                            123456789012345680.0,
                            0.5,
                            100.0,
                            1.0 / 3.0,
                            1e15,
                            9007199254740991.0,
                            9007199254740992.0,
                            9007199254740994.0,
                            -9007199254740991.0,
                            4503599627370497.0,
                            1234567890123456.0,
                            1e21};
    for (double d : edges)
        EXPECT_EQ(Json(d).dump(), referenceDouble(d)) << d;
    EXPECT_EQ(Json(-0.0).dump(), "-0");
    EXPECT_EQ(Json(0.1 + 0.2).dump(), "0.30000000000000004");
    EXPECT_EQ(Json(100.0).dump(), "1e+02");
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, IntegersFormatAsPrintfAtBothExtremes)
{
    const std::int64_t ints[] = {std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max(),
                                 -1, 0, 1};
    for (std::int64_t i : ints) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(i));
        EXPECT_EQ(Json(i).dump(), buf);
    }
    const std::uint64_t uints[] = {
        0, 1, std::numeric_limits<std::uint64_t>::max(),
        std::uint64_t{1} << 63};
    for (std::uint64_t u : uints) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(u));
        EXPECT_EQ(Json(u).dump(), buf);
    }
}

TEST(Json, MutatingACopyNeverChangesTheOriginal)
{
    Json inner = Json::array();
    inner.push(Json(1)).push(Json("two"));
    Json doc = Json::object();
    doc.set("inner", inner).set("n", Json(7));
    const std::string before = doc.dump();

    Json copy = doc;
    EXPECT_EQ(copy, doc);
    copy.set("n", Json(8)).set("extra", Json(true));
    Json nested = copy["inner"];
    nested.push(Json(3.5));
    copy.set("inner", nested);

    EXPECT_EQ(doc.dump(), before);
    EXPECT_EQ(inner.dump(), "[1,\"two\"]");
    EXPECT_EQ(copy.dump(),
              "{\"inner\":[1,\"two\",3.5],\"n\":8,\"extra\":true}");

    // The other direction: mutating the original leaves copies alone.
    Json arr = Json::array();
    arr.push(Json(1));
    const Json snapshot = arr;
    arr.push(Json(2));
    EXPECT_EQ(snapshot.dump(), "[1]");
    EXPECT_EQ(arr.dump(), "[1,2]");

    // Copies of empty containers are independent too.
    Json empty = Json::object();
    Json emptyCopy = empty;
    emptyCopy.set("k", Json(1));
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.dump(), "{}");
    EXPECT_EQ(emptyCopy.dump(), "{\"k\":1}");
}

TEST(Json, StreamedDumpMatchesTheString)
{
    // Large enough for several flushes of the streamed writer.
    Json points = Json::array();
    for (int i = 0; i < 40000; ++i) {
        Json pair = Json::array();
        pair.push(Json(static_cast<std::uint64_t>(i) * 977))
            .push(Json(i / 7.0));
        points.push(std::move(pair));
    }
    Json doc = Json::object();
    doc.set("series", points).set("name", Json("s\n1"));
    for (int indent : {-1, 0, 2}) {
        std::ostringstream os;
        doc.dump(os, indent);
        EXPECT_EQ(os.str(), doc.dump(indent)) << "indent " << indent;
    }
    std::ostringstream small;
    Json(42).dump(small);
    EXPECT_EQ(small.str(), "42");
}

// --- Stats exporter ---------------------------------------------------

namespace
{

StatsRegistry
makeRegistry()
{
    StatsRegistry reg;
    reg.counter("sys.cycles").inc(123456789);
    reg.counter("slc.links").inc(17);
    reg.histogram("ag.size").add(1, 5);
    reg.histogram("ag.size").add(3, 2);
    reg.histogram("ag.size").add(80);
    reg.histogram("list.len").add(2, 9);
    reg.timeSeries("sfr.size").sample(100, 1.5);
    reg.timeSeries("sfr.size").sample(250, 4.0);
    return reg;
}

} // namespace

TEST(StatsJson, ExportSchema)
{
    const StatsRegistry reg = makeRegistry();
    const Json doc = statsToJson(reg);
    EXPECT_EQ(doc["counters"]["sys.cycles"].asUint(), 123456789u);
    const Json &ag = doc["histograms"]["ag.size"];
    EXPECT_EQ(ag["samples"].asUint(), 8u);
    EXPECT_EQ(ag["min"].asUint(), 1u);
    EXPECT_EQ(ag["max"].asUint(), 80u);
    ASSERT_EQ(ag["buckets"].size(), 3u);
    EXPECT_EQ(ag["buckets"].at(0).at(0).asUint(), 1u);
    EXPECT_EQ(ag["buckets"].at(0).at(1).asUint(), 5u);
    const Json &series = doc["series"]["sfr.size"];
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series.at(1).at(0).asUint(), 250u);
    EXPECT_DOUBLE_EQ(series.at(1).at(1).asDouble(), 4.0);
}

TEST(StatsJson, RoundTripIsByteIdentical)
{
    const StatsRegistry reg = makeRegistry();
    const std::string text = statsJsonText(reg);

    Json doc;
    ASSERT_TRUE(Json::parse(text, &doc));
    StatsRegistry back;
    std::string err;
    ASSERT_TRUE(statsFromJson(doc, &back, &err)) << err;

    // Identical re-export and identical text dump.
    EXPECT_EQ(statsJsonText(back), text);
    std::ostringstream a, b;
    reg.dump(a);
    back.dump(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(StatsJson, ImportRejectsMalformedDocuments)
{
    StatsRegistry reg;
    std::string err;

    Json notObject = Json::array();
    EXPECT_FALSE(statsFromJson(notObject, &reg, &err));

    Json badCounter = Json::object();
    badCounter.set("counters",
                   Json::object().set("x", Json("not a number")));
    EXPECT_FALSE(statsFromJson(badCounter, &reg, &err));
    EXPECT_NE(err.find("x"), std::string::npos);

    // Sample-count mismatch (truncated bucket list) is caught.
    Json mismatch;
    ASSERT_TRUE(Json::parse(
        "{\"histograms\": {\"h\": {\"samples\": 5, "
        "\"buckets\": [[1, 2]]}}}",
        &mismatch));
    EXPECT_FALSE(statsFromJson(mismatch, &reg, &err));
    EXPECT_NE(err.find("mismatch"), std::string::npos);
}

TEST(StatsJson, EmptyRegistry)
{
    StatsRegistry reg;
    const Json doc = statsToJson(reg);
    EXPECT_EQ(doc.dump(),
              "{\"counters\":{},\"histograms\":{},\"series\":{}}");
    StatsRegistry back;
    EXPECT_TRUE(statsFromJson(doc, &back, nullptr));
}
