#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace vmstorm::obs {
namespace {

TEST(JsonParse, ObjectWithEveryValueKind) {
  auto r = parse_json(R"({"b":true,"f":false,"z":null,"n":-12.5,)"
                      R"("s":"hi","a":[1,2,3],"o":{"k":"v"}})");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const JsonValue& doc = *r;
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc["b"].as_bool());
  EXPECT_TRUE(doc["f"].is_bool());
  EXPECT_FALSE(doc["f"].as_bool());
  EXPECT_TRUE(doc["z"].is_null());
  EXPECT_DOUBLE_EQ(doc["n"].as_number(), -12.5);
  EXPECT_EQ(doc["s"].as_string(), "hi");
  ASSERT_TRUE(doc["a"].is_array());
  ASSERT_EQ(doc["a"].items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc["a"].items()[1].as_number(), 2.0);
  EXPECT_EQ(doc["o"]["k"].as_string(), "v");
  // Member order is source order.
  ASSERT_EQ(doc.members().size(), 7u);
  EXPECT_EQ(doc.members()[0].first, "b");
  EXPECT_EQ(doc.members()[6].first, "o");
}

TEST(JsonParse, NumberForms) {
  // is_uint: a plain non-negative integer token that fits in uint64_t,
  // read exactly (2^53 + 1 has no exact double).
  struct Case {
    const char* text;
    double number;
    bool is_uint;
    std::uint64_t uint;
  };
  for (const Case& c : {
           Case{"0", 0.0, true, 0},
           Case{"-0.5", -0.5, false, 0},
           Case{"1e3", 1000.0, false, 0},
           Case{"2.5E-2", 0.025, false, 0},
           Case{"-1", -1.0, false, 0},
           Case{"1.0", 1.0, false, 0},
           Case{"9007199254740993", 9007199254740993.0, true,
                9007199254740993ull},
           Case{"18446744073709551615", 18446744073709551615.0, true,
                18446744073709551615ull},
           Case{"18446744073709551616", 18446744073709551616.0, false, 0},
       }) {
    auto r = parse_json(c.text);
    ASSERT_TRUE(r.is_ok()) << c.text << ": " << r.status().to_string();
    EXPECT_DOUBLE_EQ(r->as_number(), c.number) << c.text;
    EXPECT_EQ(r->is_uint(), c.is_uint) << c.text;
    EXPECT_EQ(r->as_uint(), c.uint) << c.text;
  }
}

TEST(JsonParse, StringEscapes) {
  auto r = parse_json(R"("a\n\t\"\\\/Az")");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->as_string(), "a\n\t\"\\/Az");
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8) {
  auto bmp = parse_json(R"("\u0041\u00e9\u20ac")");
  ASSERT_TRUE(bmp.is_ok()) << bmp.status().to_string();
  EXPECT_EQ(bmp->as_string(), "A\xc3\xa9\xe2\x82\xac");
  // A surrogate pair is one code point, U+1F600: 4-byte UTF-8, not CESU-8.
  auto pair = parse_json(R"("\ud83d\ude00!")");
  ASSERT_TRUE(pair.is_ok()) << pair.status().to_string();
  EXPECT_EQ(pair->as_string(), "\xf0\x9f\x98\x80!");
}

TEST(JsonParse, RejectsLoneSurrogates) {
  for (const char* bad : {
           R"("\ud83d")",        // high surrogate at the end
           R"("\ud83dx")",       // high surrogate then a plain char
           R"("\ud83d\n")",     // high surrogate then another escape
           R"("\ud83d\u0041")", // high surrogate then a BMP escape
           R"("\ud83d\ud83d")", // two high surrogates
           R"("\ude00")",        // low surrogate alone
           R"("\ud83d\ude0")",  // truncated low surrogate
       }) {
    auto r = parse_json(bad);
    EXPECT_FALSE(r.is_ok()) << "accepted: " << bad;
  }
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad : {
           "",                 // empty document
           "{",                // unterminated object
           "[1,]",             // trailing comma
           "{\"a\":1} extra",  // trailing garbage
           "'single'",         // wrong quotes
           "nul",              // truncated literal
           "\"unterminated",   // unterminated string
           "{\"a\" 1}",        // missing colon
           "NaN",              // not a JSON number
           "01",               // leading zero
           "-01",              // leading zero after the sign
           ".5",               // no integer part
           "-.5",              // no integer part after the sign
           "1.",               // no fraction digits
           "1e",               // no exponent digits
           "1e+",              // no exponent digits after the sign
           "+1",               // explicit plus sign
           "-",                // sign alone
           "0x10",             // hex
           "{\"a\":1,\"a\":2}",  // duplicate member name
       }) {
    auto r = parse_json(bad);
    EXPECT_FALSE(r.is_ok()) << "accepted: " << bad;
  }
}

TEST(JsonParse, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(parse_json(deep).is_ok());
  std::string shallow = "[[[[[[[[[[1]]]]]]]]]]";
  EXPECT_TRUE(parse_json(shallow).is_ok());
}

TEST(JsonValue, AccessorsDefaultOnKindMismatch) {
  auto r = parse_json(R"({"s":"text","n":3})");
  ASSERT_TRUE(r.is_ok());
  const JsonValue& doc = *r;
  EXPECT_DOUBLE_EQ(doc["s"].as_number(), 0.0);
  EXPECT_FALSE(doc["s"].as_bool());
  EXPECT_FALSE(doc["s"].is_uint());
  EXPECT_EQ(doc["n"].as_string(), "");
  EXPECT_TRUE(doc["n"].items().empty());
  EXPECT_TRUE(doc["n"].members().empty());
  // Missing keys chase to a null value instead of dereferencing nothing.
  EXPECT_TRUE(doc["missing"].is_null());
  EXPECT_TRUE(doc["missing"]["deeper"]["still"].is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
  ASSERT_NE(doc.find("n"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("n")->as_number(), 3.0);
}

TEST(JsonParse, RoundTripsJsonWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("vmstorm-engine-v1");
  w.key("quick").value(false);
  w.key("sim").begin_object();
  w.key("events_processed").value(std::uint64_t{123456});
  w.end_object();
  w.key("arms").begin_array();
  w.begin_object();
  w.key("name").value("off");
  w.key("wall_seconds").value(1.25);
  w.end_object();
  w.end_array();
  w.end_object();
  auto r = parse_json(w.str());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const JsonValue& doc = *r;
  EXPECT_EQ(doc["schema"].as_string(), "vmstorm-engine-v1");
  EXPECT_TRUE(doc["quick"].is_bool());
  EXPECT_FALSE(doc["quick"].as_bool());
  EXPECT_DOUBLE_EQ(doc["sim"]["events_processed"].as_number(), 123456.0);
  ASSERT_EQ(doc["arms"].items().size(), 1u);
  EXPECT_EQ(doc["arms"].items()[0]["name"].as_string(), "off");
  EXPECT_DOUBLE_EQ(doc["arms"].items()[0]["wall_seconds"].as_number(), 1.25);
}

}  // namespace
}  // namespace vmstorm::obs
