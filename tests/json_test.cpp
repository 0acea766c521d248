// Tests for common/json — the value model, writer and parser behind the
// campaign outcome store and the bench trajectories.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"

namespace hmpt {
namespace {

TEST(JsonTest, BuildsAndDumpsAllKinds) {
  JsonObject o;
  o["null"] = Json();
  o["flag"] = Json(true);
  o["count"] = Json(42);
  o["ratio"] = Json(0.5);
  o["name"] = Json("campaign");
  o["list"] = Json(JsonArray{Json(1), Json(2)});
  const Json doc(std::move(o));

  EXPECT_EQ(doc.dump(-1),
            "{\"null\":null,\"flag\":true,\"count\":42,\"ratio\":0.5,"
            "\"name\":\"campaign\",\"list\":[1,2]}");
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  JsonObject o;
  o["zebra"] = Json(1);
  o["alpha"] = Json(2);
  const Json doc(std::move(o));
  EXPECT_EQ(doc.dump(-1), "{\"zebra\":1,\"alpha\":2}");
}

TEST(JsonTest, ParseRoundTripsDump) {
  JsonObject inner;
  inner["text"] = Json("line\nbreak \"quoted\" back\\slash");
  inner["tiny"] = Json(1e-17);
  inner["negative"] = Json(-3.25);
  JsonObject o;
  o["inner"] = Json(std::move(inner));
  o["items"] = Json(JsonArray{Json(false), Json(), Json("x")});
  const Json doc(std::move(o));

  for (const int indent : {-1, 0, 2, 4}) {
    const Json reparsed = Json::parse(doc.dump(indent));
    EXPECT_EQ(reparsed.dump(-1), doc.dump(-1)) << "indent " << indent;
  }
}

TEST(JsonTest, NumbersRoundTripExactly) {
  // The outcome store relies on exact double round trips: a resumed
  // campaign must reproduce byte-identical artefacts from parsed values.
  for (const double value :
       {1.0 / 3.0, 6.02214076e23, -2.5e-13, 1e15, 123456789.125, 0.0}) {
    const Json parsed = Json::parse(Json(value).dump(-1));
    EXPECT_EQ(parsed.as_number(), value);
  }
}

TEST(JsonTest, ControlCharactersEscape) {
  const Json doc(std::string("bell\x07tab\t"));
  EXPECT_EQ(doc.dump(-1), "\"bell\\u0007tab\\t\"");
  EXPECT_EQ(Json::parse(doc.dump(-1)).as_string(), doc.as_string());
}

TEST(JsonTest, AccessorsEnforceKinds) {
  const Json doc = Json::parse("{\"a\": 1}");
  EXPECT_THROW(doc.as_array(), Error);
  EXPECT_THROW(doc.at("a").as_string(), Error);
  EXPECT_THROW(doc.at("missing"), Error);
  EXPECT_EQ(doc.number_or("a", 7.0), 1.0);
  EXPECT_EQ(doc.number_or("missing", 7.0), 7.0);
  EXPECT_EQ(doc.string_or("missing", "fallback"), "fallback");
}

TEST(JsonTest, ParserRejectsGarbage) {
  for (const char* text :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "\"unterminated", "{\"a\":1,}", "[1]]", "nan", "\"bad\\q\""}) {
    EXPECT_THROW(Json::parse(text), Error) << "'" << text << "'";
  }
}

TEST(JsonTest, CopiesAreDeep) {
  JsonObject o;
  o["list"] = Json(JsonArray{Json(1)});
  Json a(std::move(o));
  Json b = a;
  // Mutating the copy must not alias the original.
  JsonObject o2;
  o2["list"] = Json(JsonArray{Json(1), Json(2)});
  b = Json(std::move(o2));
  EXPECT_EQ(a.at("list").as_array().size(), 1u);
  EXPECT_EQ(b.at("list").as_array().size(), 2u);
}

TEST(JsonTest, NonFiniteNumbersRefuseToSerialise) {
  EXPECT_THROW(Json(std::nan("")).dump(), Error);
  EXPECT_THROW(Json(INFINITY).dump(), Error);
}

TEST(JsonTest, OutOfRangeNumbersAreMalformed) {
  // A literal a double cannot hold would read back as inf (which dump
  // refuses to write) or as a silent 0: both break the round trip.
  for (const char* text :
       {"1e999", "-1e999", "1e-400", "-1e-400", "[1, 1e999]",
        "{\"a\": 1e-400}"}) {
    try {
      Json::parse(text);
      ADD_FAILURE() << "'" << text << "' parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed number"),
                std::string::npos)
          << e.what();
    }
  }
  // The extremes that do fit still parse exactly.
  EXPECT_EQ(Json::parse("1.7976931348623157e+308").as_number(), DBL_MAX);
  EXPECT_EQ(Json::parse("4.9406564584124654e-324").as_number(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(Json::parse("2.2250738585072014e-308").as_number(), DBL_MIN);
}

// The number format is part of the outcome store's cross-build contract:
// "%.0f" for integers below 1e15 in magnitude, "%.17g" otherwise. This is
// the printf reference the writer must match byte for byte.
std::string printf_reference(double v) {
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15)
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  else
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(JsonTest, NumbersMatchPrintfAndRoundTripBitExactly) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 123456789.125, 6.02214076e23,
      DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0), 1e15, -1e15, 1e15 - 1, -(1e15 - 1),
      1e15 + 1, 999999999999999.5, std::nextafter(1e15, 0.0),
      std::nextafter(1e15, 2e15), 9007199254740992.0, 9007199254740993.0,
      1e-5, 1e-4, 1e16, 1e17, 1e21, 1e22, 5e-324, 2.5e-13};
  std::mt19937_64 rng(14);
  std::uniform_int_distribution<std::int64_t> near_edge(-2000000, 2000000);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  while (values.size() < 100000) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    switch (values.size() % 5) {
      case 0:  // any finite bit pattern
        v = std::bit_cast<double>(bits);
        break;
      case 1:  // subnormal: zero exponent field
        v = std::bit_cast<double>(bits & 0x800FFFFFFFFFFFFFull);
        break;
      case 2:  // integers straddling the 1e15 format switch
        v = 1e15 + static_cast<double>(near_edge(rng));
        if (bits & 1) v = -v;
        break;
      case 3:  // half-integers and short fractions near it
        v = 1e15 + static_cast<double>(near_edge(rng)) / 4.0;
        break;
      default:  // the magnitudes outcomes hold: times, ratios, bytes
        v = unit(rng) * std::pow(10.0, static_cast<int>(bits % 24) - 8);
    }
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : values) {
    const std::string text = Json(v).dump(-1);
    ASSERT_EQ(text, printf_reference(v)) << "bits "
                                         << std::bit_cast<std::uint64_t>(v);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(Json::parse(text).as_number()),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
}

TEST(JsonTest, WriterReproducesDumpLayout) {
  JsonObject inner;
  inner["empty_list"] = Json(JsonArray{});
  inner["empty_object"] = Json(JsonObject{});
  inner["text"] = Json("q\"\\\x01");
  JsonObject o;
  o["inner"] = Json(std::move(inner));
  o["list"] = Json(JsonArray{Json(1), Json(JsonArray{Json(2.5)}), Json()});
  o["flag"] = Json(false);
  const Json doc(std::move(o));

  for (const int indent : {-1, 0, 2, 4}) {
    std::string streamed;
    JsonWriter w(streamed, indent);
    w.begin_object();
    w.key("inner");
    w.begin_object();
    w.key("empty_list");
    w.begin_array();
    w.end_array();
    w.key("empty_object");
    w.begin_object();
    w.end_object();
    w.key("text");
    w.value("q\"\\\x01");
    w.end_object();
    w.key("list");
    w.begin_array();
    w.value(1);
    w.begin_array();
    w.value(2.5);
    w.end_array();
    w.null();
    w.end_array();
    w.key("flag");
    w.value(false);
    w.end_object();
    EXPECT_EQ(streamed, doc.dump(indent)) << "indent " << indent;
  }
  EXPECT_EQ(doc.dump(2).back(), '\n');
  EXPECT_NE(doc.dump(-1).back(), '\n');
  EXPECT_EQ(Json(JsonArray{}).dump(2), "[]\n");
  EXPECT_EQ(Json(7).dump(0), "7\n");
}

TEST(JsonTest, WriterRejectsMisnesting) {
  std::string out;
  JsonWriter object_writer(out);
  object_writer.begin_object();
  EXPECT_THROW(object_writer.value(1), Error);   // member without a key
  EXPECT_THROW(object_writer.end_array(), Error);
  JsonWriter array_writer(out);
  array_writer.begin_array();
  EXPECT_THROW(array_writer.key("k"), Error);    // key inside an array
  EXPECT_THROW(array_writer.end_object(), Error);
  JsonWriter top(out);
  EXPECT_THROW(top.end_array(), Error);
}

}  // namespace
}  // namespace hmpt
