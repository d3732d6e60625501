// Campaign-runner tests (see docs/campaigns.md): the strict JSON parser,
// spec validation (unknown keys, bad enums, empty matrices are loud
// errors), matrix expansion (labels/titles/order/table sharing/fault
// arithmetic/seed policy), and — the porting contract — executor
// equivalence: an expanded campaign run through SweepRunner must render
// every point byte-identically to the hand-written construction it ports.
// Also: the standard flags' parse-time range checks, and a parse + expand
// of every committed campaigns/*.json.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "campaign_worker.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/json.h"
#include "sim/campaign.h"
#include "sim/fault.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/slim_fly.h"
#include "topology/spec.h"
#include "topology/topology.h"

namespace d2net {
namespace {

using bench::render_point_json;

// ------------------------------------------------------------- parse_json

TEST(ParseJson, ParsesScalarsArraysObjects) {
  const JsonValue v = parse_json(R"({"a": 1, "b": [2.5, "x", true, null], "c": {}})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->number_is_int);
  EXPECT_EQ(a->integer, 1);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 4u);
  EXPECT_FALSE(b->array[0].number_is_int);
  EXPECT_DOUBLE_EQ(b->array[0].number, 2.5);
  EXPECT_EQ(b->array[1].str, "x");
  EXPECT_TRUE(b->array[2].boolean);
  EXPECT_TRUE(b->array[3].is_null());
  EXPECT_TRUE(v.find("c")->is_object());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ParseJson, DecodesEscapes) {
  const JsonValue v = parse_json(R"(["a\"b\\c\nA"])");
  EXPECT_EQ(v.array[0].str, "a\"b\\c\nA");
}

TEST(ParseJson, RejectsMalformedDocuments) {
  for (const char* bad : {
           "{",                    // unterminated object
           "[1, ]",                // trailing comma
           "{} trailing",          // junk after the document
           R"({"a": 1, "a": 2})",  // duplicate key
           R"(["unterminated)",    // unterminated string
           "[nan]",                // not a JSON literal
           "[01]",                 // leading zero
           "",                     // empty input
       }) {
    EXPECT_THROW(parse_json(bad), ArgumentError) << bad;
  }
}

TEST(ParseJson, ErrorsCarrySourceNameAndLocation) {
  try {
    parse_json("{\n  \"a\": }\n}", "my.json");
    FAIL() << "expected ArgumentError";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("my.json"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos);  // line 2
  }
}

// ----------------------------------------------------- spec parse/validate

std::string parse_error(const std::string& text) {
  try {
    parse_campaign_spec(text, "spec");
  } catch (const ArgumentError& e) {
    return e.what();
  }
  return "";
}

const char* kTinySpec = R"({
  "name": "t",
  "systems": [{"label": "S", "topology": "sf:q=5"}],
  "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]
})";

TEST(CampaignSpec, ParsesMinimalSpec) {
  const CampaignSpec spec = parse_campaign_spec(kTinySpec);
  EXPECT_EQ(spec.name, "t");
  ASSERT_EQ(spec.systems.size(), 1u);
  EXPECT_EQ(spec.systems[0].topology, "sf:q=5");
  ASSERT_EQ(spec.sweeps.size(), 1u);
  EXPECT_EQ(spec.sweeps[0].kind, CampaignSweepKind::kLoadSweep);
  EXPECT_EQ(spec.sweeps[0].traffic, CampaignTraffic::kUniform);
  ASSERT_EQ(spec.sweeps[0].series.size(), 1u);
  // Default label is the fig6 convention.
  EXPECT_EQ(spec.sweeps[0].series[0].label, "{system} {routing}");
}

TEST(CampaignSpec, RejectsUnknownKeysAtEveryLevel) {
  EXPECT_NE(parse_error(R"({"name": "t", "bogus": 1, "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min"}]}]})")
                .find("unknown key 'bogus'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5", "typo": true}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min"}]}]})")
                .find("$.systems[0]: unknown key 'typo'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5], "warmup": 1,
      "series": [{"routing": "min"}]}]})")
                .find("$.sweeps[0]: unknown key 'warmup'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min", "speed": 9}]}]})")
                .find("series[0]: unknown key 'speed'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "fault": {"frac": 0.1, "when": 2}, "series": [{"routing": "min"}]}]})")
                .find("fault: unknown key 'when'"),
            std::string::npos);
}

TEST(CampaignSpec, RejectsBadEnums) {
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "fastest"}]}]})")
                .find("unknown routing 'fastest'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "traffic": "bursty",
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("unknown traffic 'bursty'"),
            std::string::npos);
}

TEST(CampaignSpec, RejectsEmptyMatrices) {
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [],
      "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("at least one system"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": []})")
                .find("at least one sweep"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [],
      "series": [{"routing": "min"}]}]})")
                .find("load grid must be non-empty"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": []}]})")
                .find("series list must be non-empty"),
            std::string::npos);
}

TEST(CampaignSpec, RejectsCrossKindKeysWithTargetedMessage) {
  // A load-sweep key on an exchange sweep names the misplacement, not just
  // "unknown key".
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "kind": "exchange",
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("only valid for load_sweep sweeps"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "bytes_per_pair": 64,
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("only valid for exchange sweeps"),
            std::string::npos);
}

TEST(CampaignSpec, ValidatesTemplatesFiltersAndDuplicates) {
  // per_system needs {system} in the title, and vice versa.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "per_system": true,
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("need '{system}' in the title"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u {system}", "loads": [0.5],
      "series": [{"routing": "min"}]}]})")
                .find("requires per_system"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "systems": ["Nope"],
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("unknown system 'Nope'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}, {"label": "S", "topology": "oft:k=4"}],
      "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("duplicate system label"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [
      {"title": "u", "loads": [0.5], "series": [{"routing": "min"}]},
      {"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("duplicate sweep title"),
            std::string::npos);
  // Two default-labelled series with the same routing collide; with
  // different routings the resolved labels differ and parse fine.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min"}, {"routing": "min"}]}]})")
                .find("duplicate series label"),
            std::string::npos);
  EXPECT_EQ(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min"}, {"routing": "valiant"}]}]})"),
            "");
}

TEST(CampaignSpec, ValidatesFaultAndSeriesKnobs) {
  // recovery/reroute on a series require the sweep to schedule faults.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min", "recovery": "none"}]}]})")
                .find("requires a sweep 'fault'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "fault": {"frac": 1.5}, "series": [{"routing": "min"}]}]})")
                .find("fraction in (0, 1]"),
            std::string::npos);
  // shift is tied to traffic = shift.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "shift": 3,
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("'shift' requires traffic = shift"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "traffic": "shift",
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("missing required key 'shift'"),
            std::string::npos);
}

TEST(CampaignSpec, ValidatesGridAxis) {
  // grid is a load-sweep axis.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "kind": "exchange",
      "grid": {"param": "ni", "values": [1]}, "series": [{"routing": "min"}]}]})")
                .find("only valid for load_sweep sweeps"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "speed", "values": [1]}, "series": [{"routing": "ugal"}]}]})")
                .find("unknown grid param 'speed'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "ni", "values": []}, "series": [{"routing": "ugal"}]}]})")
                .find("grid values must be non-empty"),
            std::string::npos);
  // ni values must be integers >= 1; c values numbers > 0.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "ni", "values": [2.5]}, "series": [{"routing": "ugal"}]}]})")
                .find("expected an integer >= 1"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "c", "values": [0.0]}, "series": [{"routing": "ugal"}]}]})")
                .find("expected a number > 0"),
            std::string::npos);
  // A series cannot pin the knob the grid varies.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "ni", "values": [1, 4]},
      "series": [{"routing": "ugal", "ni": 2}]}]})")
                .find("already varies 'ni'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "c", "values": [0.25]},
      "series": [{"routing": "ugal", "c": 1.0}]}]})")
                .find("already varies 'c'"),
            std::string::npos);
  // Custom labels on a grid sweep must carry the {grid} placeholder, or the
  // expanded series would collide.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "ni", "values": [1, 4]},
      "series": [{"label": "ugal", "routing": "ugal"}]}]})")
                .find("must contain '{grid}'"),
            std::string::npos);
  // Default label under a grid is the bare placeholder.
  const CampaignSpec ok = parse_campaign_spec(R"({"name": "t",
      "systems": [{"label": "S", "topology": "sf:q=5"}],
      "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "ni", "values": [1, 4]},
      "series": [{"routing": "ugal"}]}]})");
  ASSERT_TRUE(ok.sweeps[0].grid.has_value());
  EXPECT_TRUE(ok.sweeps[0].grid->is_ni);
  EXPECT_EQ(ok.sweeps[0].series[0].label, "{grid}");
}

TEST(CampaignSpec, RejectsIntegersBeyondIntWithTheirPath) {
  // Narrowing used to wrap these: 4294967297 ran as nI=1, 3000000000 went
  // negative and aborted mid-run.
  for (const char* ni : {"4294967297", "3000000000"}) {
    EXPECT_NE(parse_error(std::string(R"({"name": "t", "systems": [{"label": "S",
        "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
        "series": [{"routing": "ugal", "ni": )") + ni + "}]}]}")
                  .find("sweeps[0].series[0].ni: expected an integer <= 2147483647"),
              std::string::npos)
        << ni;
    EXPECT_NE(parse_error(std::string(R"({"name": "t", "systems": [{"label": "S",
        "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
        "grid": {"param": "ni", "values": [1, )") + ni +
                          R"(]}, "series": [{"routing": "ugal"}]}]})")
                  .find("sweeps[0].grid.values[1]: expected an integer <= 2147483647"),
              std::string::npos)
        << ni;
  }
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "fault": {"frac": 0.1, "at_div": 4294967297}, "series": [{"routing": "min"}]}]})")
                .find("sweeps[0].fault.at_div: expected an integer <= 2147483647"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "traffic": "shift",
      "shift": 4294967297, "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("sweeps[0].shift: expected an integer <= 2147483647"),
            std::string::npos);
  // INT_MAX itself still parses.
  EXPECT_EQ(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "ugal", "ni": 2147483647}]}]})"),
            "");
}

TEST(CampaignStatus, RejectsShardCountsBeyondIntWithThePlanPath) {
  const CampaignSpec spec = parse_campaign_spec(kTinySpec);
  CampaignParams params;
  params.duration = us(2);
  params.warmup = us(1);
  const ExpandedCampaign plan = expand_campaign(spec, params);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "d2net_status_range";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "leases");
  bench::BenchOptions opts;
  opts.journal_dir = dir.string();
  for (const char* plan_json : {R"({"shards": 4294967297, "shard_points": 1})",
                                R"({"shards": 1, "shard_points": 3000000000})"}) {
    std::ofstream(dir / "leases" / "plan.json", std::ios::trunc) << plan_json;
    try {
      bench::print_campaign_status(plan, opts, 30.0);
      ADD_FAILURE() << "accepted " << plan_json;
    } catch (const ArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find((dir / "leases" / "plan.json").string()),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignSpec, ValidatesPropagationKnobs) {
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "ugal_th", "detection_us": 0.5}]}]})")
                .find("requires a sweep 'fault'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "fault": {"frac": 0.05},
      "series": [{"routing": "ugal_th", "flood_hop_us": 0.1}]}]})")
                .find("requires 'detection_us'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "fault": {"frac": 0.05},
      "series": [{"routing": "ugal_th", "detection_us": 0}]}]})")
                .find("expected a number > 0"),
            std::string::npos);
}

// --------------------------------------------------------------- expansion

const char* kMatrixSpec = R"({
  "name": "m",
  "systems": [
    {"label": "A", "topology": "sf:q=5", "topology_full": "sf:q=7"},
    {"label": "B", "topology": "oft:k=4"}
  ],
  "sweeps": [
    {"title": "uni", "traffic": "uniform", "loads": [0.2, 0.4],
     "series": [{"routing": "min"}, {"routing": "valiant"}]},
    {"title": "faults — {system}", "per_system": true, "seed_mode": "base",
     "systems": ["A"], "loads": [0.7],
     "fault": {"frac": 0.05, "at_div": 4, "restore_div": 4, "sample_div": 12},
     "series": [
       {"label": "MIN static", "routing": "min", "recovery": "none", "reroute": false},
       {"label": "UGAL-Th reroute", "routing": "ugal_th"}]},
    {"title": "a2a", "kind": "exchange", "bytes_per_pair": 64,
     "series": [{"routing": "min"}, {"routing": "ugal_th"}]}
  ]
})";

TEST(CampaignExpansion, ExpandsTheMatrixInBenchOrder) {
  const CampaignSpec spec = parse_campaign_spec(kMatrixSpec);
  CampaignParams params;
  params.seed = 3;
  params.duration = us(16);
  params.warmup = us(4);
  const ExpandedCampaign plan = expand_campaign(spec, params);
  ASSERT_EQ(plan.steps.size(), 3u);

  // Sweep 1: system-major, series-minor; default labels resolve.
  const CampaignRun& uni = *plan.steps[0].load;
  EXPECT_EQ(uni.title, "uni");
  ASSERT_EQ(uni.series.size(), 4u);
  EXPECT_EQ(uni.series[0].label, "A MIN");
  EXPECT_EQ(uni.series[1].label, "A INR");
  EXPECT_EQ(uni.series[2].label, "B MIN");
  EXPECT_EQ(uni.series[3].label, "B INR");
  // One shared table and pattern per system; derived per-point seeds.
  EXPECT_EQ(uni.series[0].table.get(), uni.series[1].table.get());
  EXPECT_NE(uni.series[0].table.get(), uni.series[2].table.get());
  EXPECT_EQ(uni.series[0].pattern, uni.series[1].pattern);
  EXPECT_FALSE(uni.series[0].seed_override.has_value());
  EXPECT_FALSE(uni.series[0].fault.enabled());
  EXPECT_EQ(uni.series[0].loads, (std::vector<double>{0.2, 0.4}));

  // Sweep 2: per-system fault sweep, filtered to A, pinned to the base seed.
  const CampaignRun& faults = *plan.steps[1].load;
  EXPECT_EQ(faults.title, "faults — A");
  ASSERT_EQ(faults.series.size(), 2u);
  EXPECT_EQ(faults.series[0].label, "MIN static");
  EXPECT_EQ(faults.series[1].label, "UGAL-Th reroute");
  ASSERT_TRUE(faults.series[0].seed_override.has_value());
  EXPECT_EQ(*faults.series[0].seed_override, 3u);
  EXPECT_EQ(faults.series[0].fault.recovery, FaultRecovery::kNone);
  EXPECT_FALSE(faults.series[0].fault.reroute);
  EXPECT_EQ(faults.series[1].fault.recovery, FaultRecovery::kSalvage);
  EXPECT_TRUE(faults.series[1].fault.reroute);
  // The transient-faults bench's arithmetic, reproduced exactly.
  const Topology& topo_a = plan.topologies[0];
  const TimePs t_burst = params.warmup + (params.duration - params.warmup) / 4;
  const int count = std::max(1, static_cast<int>(0.05 * topo_a.num_links()));
  const auto expected =
      make_link_burst(topo_a, t_burst, count, params.seed,
                      (params.duration - params.warmup) / 4);
  ASSERT_EQ(faults.series[0].fault.schedule.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(faults.series[0].fault.schedule[i].time, expected[i].time);
    EXPECT_EQ(faults.series[0].fault.schedule[i].a, expected[i].a);
    EXPECT_EQ(faults.series[0].fault.schedule[i].b, expected[i].b);
  }
  EXPECT_EQ(faults.series[0].fault.recovery_sample, params.duration / 12);
  // Both fault series share the burst (the contrast is recovery policy).
  ASSERT_EQ(faults.series[1].fault.schedule.size(), expected.size());
  EXPECT_EQ(faults.series[1].fault.schedule[0].time, expected[0].time);

  // Sweep 3: exchange rows, system-major x series-minor, one exchange
  // series per row on the invocation seed, under the composed title.
  ASSERT_FALSE(plan.steps[2].load.has_value());
  const CampaignRun& ex = *plan.steps[2].exchange;
  EXPECT_EQ(ex.title, exchange_table_title("a2a", 64, A2aOrder::kShuffled));
  ASSERT_EQ(ex.series.size(), 4u);
  EXPECT_EQ(ex.systems, (std::vector<std::string>{"A", "A", "B", "B"}));
  EXPECT_EQ(ex.series[0].label, "A MIN");
  EXPECT_EQ(ex.series[1].label, "A UGAL-Th");
  EXPECT_EQ(ex.series[1].strategy, RoutingStrategy::kUgalThreshold);
  EXPECT_EQ(ex.series[0].topo, &plan.topologies[0]);
  EXPECT_EQ(ex.series[2].topo, &plan.topologies[1]);
  for (const SweepSeriesSpec& row : ex.series) {
    ASSERT_TRUE(row.exchange.has_value());
    EXPECT_EQ(row.exchange->bytes_per_pair, 64);
    EXPECT_EQ(row.exchange->order, A2aOrder::kShuffled);
    EXPECT_EQ(row.exchange->time_limit, us(5'000'000.0));
    ASSERT_TRUE(row.seed_override.has_value());
    EXPECT_EQ(*row.seed_override, 3u);
    EXPECT_EQ(sweep_series_points(row), 1u);
  }
  EXPECT_EQ(step_point_count(plan.steps[2]), 4u);
}

TEST(CampaignExpansion, GridExpandsSeriesMajorGridMinor) {
  // The adaptive-panel shape (fig8): one spec series crossed with the grid
  // values, labels resolved the benches' way ("nI=4", "c=0.25").
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "g",
    "systems": [{"label": "SF", "topology": "sf:q=5"}],
    "sweeps": [
      {"title": "vary nI", "loads": [0.5],
       "grid": {"param": "ni", "values": [1, 4, 8]},
       "series": [{"routing": "ugal_th", "c": 1.0}]},
      {"title": "vary c", "loads": [0.5],
       "grid": {"param": "c", "values": [0.25, 1.0, 4.0]},
       "series": [{"routing": "ugal_th", "ni": 4}]}
    ]
  })");
  const ExpandedCampaign plan = expand_campaign(spec, CampaignParams{});
  ASSERT_EQ(plan.steps.size(), 2u);

  const CampaignRun& ni = *plan.steps[0].load;
  ASSERT_EQ(ni.series.size(), 3u);
  EXPECT_EQ(ni.series[0].label, "nI=1");
  EXPECT_EQ(ni.series[1].label, "nI=4");
  EXPECT_EQ(ni.series[2].label, "nI=8");
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ni.series[i].params.has_value()) << i;
    EXPECT_DOUBLE_EQ(ni.series[i].params->c, 1.0) << i;
  }
  EXPECT_EQ(ni.series[0].params->num_indirect, 1);
  EXPECT_EQ(ni.series[2].params->num_indirect, 8);

  const CampaignRun& c = *plan.steps[1].load;
  ASSERT_EQ(c.series.size(), 3u);
  EXPECT_EQ(c.series[0].label, "c=0.25");
  EXPECT_EQ(c.series[1].label, "c=1.00");
  EXPECT_EQ(c.series[2].label, "c=4.00");
  ASSERT_TRUE(c.series[0].params.has_value());
  EXPECT_EQ(c.series[0].params->num_indirect, 4);
  EXPECT_DOUBLE_EQ(c.series[0].params->c, 0.25);
  EXPECT_DOUBLE_EQ(c.series[2].params->c, 4.0);
}

TEST(CampaignExpansion, PropagationKnobsReachTheFaultConfig) {
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "p",
    "systems": [{"label": "SF", "topology": "sf:q=5"}],
    "sweeps": [{"title": "prop", "loads": [0.5],
                "fault": {"frac": 0.05},
                "series": [
                  {"label": "oracle", "routing": "ugal_th"},
                  {"label": "modeled", "routing": "ugal_th",
                   "detection_us": 0.5, "flood_hop_us": 0.2}]}]
  })");
  CampaignParams params;
  params.duration = us(8);
  params.warmup = us(2);
  const ExpandedCampaign plan = expand_campaign(spec, params);
  const CampaignRun& ls = *plan.steps[0].load;
  ASSERT_EQ(ls.series.size(), 2u);
  EXPECT_FALSE(ls.series[0].fault.propagation);
  EXPECT_TRUE(ls.series[1].fault.propagation);
  EXPECT_EQ(ls.series[1].fault.detection_delay, us(0.5));
  EXPECT_EQ(ls.series[1].fault.flood_process, us(0.2));
  // Both series still share the sweep burst.
  ASSERT_FALSE(ls.series[1].fault.schedule.empty());
  EXPECT_EQ(ls.series[0].fault.schedule.size(), ls.series[1].fault.schedule.size());
}

TEST(CampaignExpansion, FullSelectsTheFullTopologyWhenPresent) {
  const CampaignSpec spec = parse_campaign_spec(kMatrixSpec);
  CampaignParams dflt;
  CampaignParams full;
  full.full = true;
  const ExpandedCampaign a = expand_campaign(spec, dflt);
  const ExpandedCampaign b = expand_campaign(spec, full);
  // A has a topology_full (sf:q=7 is bigger); B falls back to its default.
  EXPECT_GT(b.topologies[0].num_nodes(), a.topologies[0].num_nodes());
  EXPECT_EQ(b.topologies[1].num_nodes(), a.topologies[1].num_nodes());
}

TEST(CampaignExpansion, RejectsBadTopologySpecWithSystemContext) {
  const CampaignSpec spec = parse_campaign_spec(R"({"name": "t",
    "systems": [{"label": "S", "topology": "sf:q=6"}],
    "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]})");
  try {
    expand_campaign(spec, CampaignParams{});
    FAIL() << "expected ArgumentError";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("campaign system 'S'"), std::string::npos);
  }
}

// ---------------------------------------------------- executor equivalence
//
// The porting contract, at unit scale: running an expanded campaign sweep
// through SweepRunner renders every point byte-identically to the
// hand-written SweepSeriesSpec construction it replaces.

TEST(CampaignEquivalence, ExpandedSweepMatchesHandWrittenConstruction) {
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "e",
    "systems": [{"label": "SF", "topology": "sf:q=5"}],
    "sweeps": [{"title": "uni", "loads": [0.3, 0.6],
                "series": [{"routing": "min"}, {"routing": "valiant"}]}]
  })");
  CampaignParams params;
  params.seed = 7;
  params.duration = us(2);
  params.warmup = us(0.5);
  const ExpandedCampaign plan = expand_campaign(spec, params);
  ASSERT_EQ(plan.steps.size(), 1u);

  SweepRunOptions opts;
  opts.jobs = 1;
  opts.config.seed = params.seed;
  opts.duration = params.duration;
  opts.warmup = params.warmup;
  SweepRunner campaign_runner(opts);
  const auto campaign = campaign_runner.run(plan.steps[0].load->series);

  // The fig6-style hand-written construction of the same sweep.
  const Topology topo = build_slim_fly(5);
  const auto table = std::make_shared<const MinimalTable>(topo);
  const UniformTraffic uni(topo.num_nodes());
  std::vector<SweepSeriesSpec> hand;
  for (RoutingStrategy s : {RoutingStrategy::kMinimal, RoutingStrategy::kValiant}) {
    SweepSeriesSpec sp;
    sp.label = std::string("SF ") + to_string(s);
    sp.topo = &topo;
    sp.table = table;
    sp.strategy = s;
    sp.pattern = &uni;
    sp.loads = {0.3, 0.6};
    hand.push_back(std::move(sp));
  }
  SweepRunner hand_runner(opts);
  const auto expected = hand_runner.run(hand);

  ASSERT_EQ(campaign.size(), expected.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    EXPECT_EQ(plan.steps[0].load->series[s].label, hand[s].label);
    ASSERT_EQ(campaign[s].size(), expected[s].size());
    for (std::size_t i = 0; i < expected[s].size(); ++i) {
      EXPECT_EQ(render_point_json(campaign[s][i]), render_point_json(expected[s][i]))
          << "series " << s << " point " << i;
    }
  }
}

TEST(CampaignEquivalence, BaseSeedFaultSeriesMatchesDirectSimStack) {
  // The transient-faults port: seed_mode = base + a per-series fault config
  // must reproduce the serial bench's direct SimStack run bit-for-bit.
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "e",
    "systems": [{"label": "SF", "topology": "sf:q=5"}],
    "sweeps": [{"title": "tf — {system}", "per_system": true, "seed_mode": "base",
                "loads": [0.7],
                "fault": {"frac": 0.05, "at_div": 4, "restore_div": 4, "sample_div": 12},
                "series": [{"label": "MIN static", "routing": "min",
                            "recovery": "none", "reroute": false}]}]
  })");
  CampaignParams params;
  params.seed = 11;
  params.duration = us(4);
  params.warmup = us(1);
  const ExpandedCampaign plan = expand_campaign(spec, params);

  SweepRunOptions opts;
  opts.jobs = 1;
  opts.config.seed = params.seed;
  opts.duration = params.duration;
  opts.warmup = params.warmup;
  SweepRunner runner(opts);
  const auto campaign = runner.run(plan.steps[0].load->series);

  // The bench's construction: default SimConfig + seed + fault schedule.
  const Topology topo = build_slim_fly(5);
  SimConfig cfg;
  cfg.seed = params.seed;
  const TimePs t_burst = params.warmup + (params.duration - params.warmup) / 4;
  const int count = std::max(1, static_cast<int>(0.05 * topo.num_links()));
  cfg.fault.schedule = make_link_burst(topo, t_burst, count, params.seed,
                                       (params.duration - params.warmup) / 4);
  cfg.fault.recovery = FaultRecovery::kNone;
  cfg.fault.reroute = false;
  cfg.fault.recovery_sample = params.duration / 12;
  const UniformTraffic uni(topo.num_nodes());
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  SweepPoint direct;
  direct.offered = 0.7;
  direct.result = stack.run_open_loop(uni, 0.7, params.duration, params.warmup);

  ASSERT_EQ(campaign.size(), 1u);
  ASSERT_EQ(campaign[0].size(), 1u);
  EXPECT_EQ(render_point_json(campaign[0][0]), render_point_json(direct));
}

// ----------------------------------------------------- standard bench flags

// Parses `args` through the standard bench flags, as every bench main does, and
// returns the ArgumentError text ("" when the flags are accepted). Parsing
// only: read_standard_flags starts no threads, whatever --jobs says.
std::string standard_flags_error(const std::vector<std::string>& args) {
  Cli cli("test");
  bench::add_standard_flags(cli);
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  try {
    cli.parse(static_cast<int>(argv.size()), argv.data());
    bench::read_standard_flags(cli);
  } catch (const ArgumentError& e) {
    return e.what();
  }
  return "";
}

TEST(StandardFlags, RejectsOutOfRangeValuesNamingTheFlag) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> bad = {
      // Non-finite: us() would turn these into garbage TimePs.
      {{"--duration-us=nan"}, "--duration-us"},
      {{"--metrics-sample-us=inf"}, "--metrics-sample-us"},
      {{"--point-timeout=inf"}, "--point-timeout"},
      // Beyond the TimePs range, or non-zero but below 1 ps.
      {{"--duration-us=1e300"}, "--duration-us"},
      {{"--metrics-sample-us=1e-9"}, "--metrics-sample-us"},
      {{"--flow-interval-us=1e-9"}, "--flow-interval-us"},
      {{"--flow-interval-us=1e20"}, "--flow-interval-us"},
      {{"--warmup-us=1e-9"}, "--warmup-us"},
      // The run window itself; --full scales the default warm-up to 10 us
      // before the check.
      {{"--duration-us=0"}, "--duration-us"},
      {{"--duration-us=-2"}, "--duration-us"},
      {{"--warmup-us=-1"}, "--warmup-us"},
      {{"--warmup-us=16"}, "--warmup-us"},
      {{"--full", "--duration-us=5"}, "--warmup-us"},
      // Integers an int cannot hold must not wrap.
      {{"--jobs=4294967297"}, "--jobs"},
      {{"--jobs=-1"}, "--jobs"},
      {{"--shards=4294967298"}, "--shards"},
      {{"--shards=0"}, "--shards"},
      {{"--flow-active=4294967297"}, "--flow-active"},
      {{"--point-retries=4294967296"}, "--point-retries"},
      {{"--point-retries=2147483647"}, "--point-retries"},  // 1 + retries attempts
  };
  for (const auto& [args, flag] : bad) {
    const std::string err = standard_flags_error(args);
    EXPECT_NE(err, "") << args.back() << " was accepted";
    EXPECT_NE(err.find(flag), std::string::npos) << args.back() << ": " << err;
  }
  for (const std::vector<std::string>& good :
       {std::vector<std::string>{}, {"--warmup-us=0"}, {"--duration-us=2", "--warmup-us=0.5"},
        {"--metrics-sample-us=1e-6"}, {"--flow-interval-us=0"}, {"--jobs=2147483647"},
        {"--full", "--duration-us=20"}}) {
    EXPECT_EQ(standard_flags_error(good), "") << (good.empty() ? "" : good.back());
  }
}

TEST(StandardFlags, CampaignIntegerFlagsRejectValuesAnIntCannotHold) {
  // d2net_campaign's own integer flags, declared as it declares them.
  for (const auto& [arg, flag, min] : std::vector<std::tuple<std::string, std::string, int>>{
           {"--workers=4294967297", "workers", 1},
           {"--workers=0", "workers", 1},
           {"--shard-points=4294967298", "shard-points", 0},
           {"--shard-points=-1", "shard-points", 0}}) {
    Cli cli("test");
    cli.flag(flag, std::int64_t{min}, "an integer flag");
    std::vector<char*> argv{const_cast<char*>("prog"), const_cast<char*>(arg.c_str())};
    ASSERT_TRUE(cli.parse(2, argv.data()));
    try {
      bench::read_int_flag(cli, flag, min);
      ADD_FAILURE() << arg << " was accepted";
    } catch (const ArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos) << e.what();
    }
  }
}

// ------------------------------------------------------- committed specs

// Every committed campaigns/*.json must parse and expand at default scale;
// the figure specs keep the names of the binaries they replaced (the
// "bench" field of their --json output and part of their spec hash).
TEST(CommittedSpecs, EveryCampaignParsesAndExpandsAtDefaultScale) {
  const std::map<std::string, std::string> figure_names = {
      {"fig6", "bench_fig6_oblivious"},          {"fig7", "bench_fig7_sf_adaptive"},
      {"fig8", "bench_fig8_sf_adaptive_th"},     {"fig9", "bench_fig9_mlfm_adaptive"},
      {"fig10", "bench_fig10_oft_adaptive"},     {"fig11", "bench_fig11_mlfm_adaptive_th"},
      {"fig12", "bench_fig12_oft_adaptive_th"}, {"fig13", "bench_fig13_all_to_all"}};
  Cli cli("test");
  bench::add_standard_flags(cli);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, const_cast<char**>(argv)));
  const bench::BenchOptions opts = bench::read_standard_flags(cli);
  const CampaignParams params{opts.full, opts.seed, opts.duration, opts.warmup};

  std::size_t figures_seen = 0;
  std::size_t specs_seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(D2NET_SOURCE_DIR) + "/campaigns")) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const CampaignSpec spec = parse_campaign_spec(text.str(), entry.path().string());
    const ExpandedCampaign plan = expand_campaign(spec, params);
    EXPECT_FALSE(plan.steps.empty());
    ++specs_seen;
    const auto fig = figure_names.find(entry.path().stem().string());
    if (fig != figure_names.end()) {
      EXPECT_EQ(spec.name, fig->second);
      ++figures_seen;
    }
  }
  EXPECT_EQ(figures_seen, figure_names.size());
  EXPECT_GE(specs_seen, figure_names.size());
}

TEST(CommittedCampaigns, TopologyFingerprintsArePinned) {
  // Every system of every committed spec, at default and --full scale: a
  // generator change that rewires a committed system (while keeping its
  // router/node/link counts) moves its hash here, and with it the journal
  // identity that refuses stale results.
  const std::map<std::string, std::string> pinned = {
      {"sf:q=5", "ac4a1af67a8cf096"},         {"oft:k=4", "55a6f4d25c19bb4a"},
      {"sf:q=7", "d144bdd95e5f4826"},         {"sf:q=13", "d83cf7c72dcecd2d"},
      {"sf:q=7,p=ceil", "33f7be9abc5efcc6"},  {"sf:q=13,p=ceil", "01a1bedc1a19b1b5"},
      {"mlfm:h=7", "fe444d0b9778c3d1"},       {"mlfm:h=15", "5ccf21ccf6008026"},
      {"oft:k=6", "5e1cf0dbeca173b4"},        {"oft:k=12", "cc2180d19eeff049"},
  };
  std::set<std::string> seen;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(D2NET_SOURCE_DIR) + "/campaigns")) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const CampaignSpec spec = parse_campaign_spec(text.str(), entry.path().string());
    for (const CampaignSystem& sys : spec.systems) {
      for (const std::string& ts : {sys.topology, sys.topology_full}) {
        if (ts.empty() || !seen.insert(ts).second) continue;
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(
                          topology_fingerprint(build_topology_from_spec(ts))));
        const auto it = pinned.find(ts);
        EXPECT_TRUE(it != pinned.end() && it->second == hex)
            << entry.path().filename().string() << ": {\"" << ts << "\", \"" << hex << "\"},";
      }
    }
  }
  EXPECT_EQ(seen.size(), pinned.size());
}

}  // namespace
}  // namespace d2net
