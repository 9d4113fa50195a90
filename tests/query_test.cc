#include "query/parser.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "factor/optimizer.h"
#include "harness/runner.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace fw {
namespace {

TEST(ParseQuery, Figure1aStyle) {
  Result<StreamQuery> query = ParseQuery(
      "SELECT MIN(temperature) FROM input GROUP BY device_id, "
      "WINDOWS(TUMBLINGWINDOW(20), TUMBLINGWINDOW(30), "
      "TUMBLINGWINDOW(40))");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->agg, Agg("MIN"));
  EXPECT_EQ(query->value_column, "temperature");
  EXPECT_EQ(query->source, "input");
  EXPECT_TRUE(query->per_key);
  EXPECT_EQ(query->key_column, "device_id");
  EXPECT_EQ(query->windows.ToString(), "{T(20), T(30), T(40)}");
}

TEST(ParseQuery, CompactWindowForms) {
  Result<StreamQuery> query = ParseQuery(
      "SELECT MAX(v) FROM s GROUP BY WINDOWS(T(10), W(40, 10))");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(query->per_key);
  EXPECT_TRUE(query->windows.Contains(Window(40, 10)));
  EXPECT_TRUE(query->windows.Contains(Window(10, 10)));
}

TEST(ParseQuery, HoppingWindows) {
  Result<StreamQuery> query = ParseQuery(
      "SELECT AVG(load) FROM metrics GROUP BY host, "
      "WINDOWS(HOPPINGWINDOW(60, 10), HOPPINGWINDOW(120, 10))");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->agg, Agg("AVG"));
  EXPECT_TRUE(query->windows.Contains(Window(60, 10)));
  EXPECT_TRUE(query->windows.Contains(Window(120, 10)));
}

TEST(ParseQuery, CaseInsensitiveKeywords) {
  Result<StreamQuery> query = ParseQuery(
      "select sum(x) from s group by k, windows(tumblingwindow(5))");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->agg, Agg("SUM"));
  EXPECT_EQ(query->key_column, "k");  // Identifier case preserved.
}

TEST(ParseQuery, AllAggregates) {
  for (const char* name : {"MIN", "MAX", "SUM", "COUNT", "AVG", "STDEV",
                           "VARIANCE", "RANGE", "MEDIAN"}) {
    std::string sql = std::string("SELECT ") + name +
                      "(v) FROM s GROUP BY WINDOWS(T(10))";
    Result<StreamQuery> query = ParseQuery(sql);
    ASSERT_TRUE(query.ok()) << sql;
    EXPECT_EQ(query->agg->name, name);
  }
}

TEST(ParseQuery, WindowsBeforeKey) {
  Result<StreamQuery> query = ParseQuery(
      "SELECT MIN(v) FROM s GROUP BY WINDOWS(T(10)), k");
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query->per_key);
}

TEST(ParseQuery, Errors) {
  // Missing WINDOWS clause.
  EXPECT_FALSE(ParseQuery("SELECT MIN(v) FROM s").ok());
  EXPECT_FALSE(ParseQuery("SELECT MIN(v) FROM s GROUP BY k").ok());
  // Unknown aggregate.
  EXPECT_FALSE(
      ParseQuery("SELECT FOO(v) FROM s GROUP BY WINDOWS(T(10))").ok());
  // Unknown window constructor.
  EXPECT_FALSE(
      ParseQuery("SELECT MIN(v) FROM s GROUP BY WINDOWS(SESSION(10))")
          .ok());
  // Bad window parameters (slide > range).
  EXPECT_FALSE(ParseQuery(
                   "SELECT MIN(v) FROM s GROUP BY WINDOWS(W(10, 20))")
                   .ok());
  // Duplicate windows.
  EXPECT_FALSE(ParseQuery(
                   "SELECT MIN(v) FROM s GROUP BY WINDOWS(T(10), T(10))")
                   .ok());
  // Two grouping keys.
  EXPECT_FALSE(
      ParseQuery("SELECT MIN(v) FROM s GROUP BY a, b, WINDOWS(T(10))")
          .ok());
  // Duplicate WINDOWS clauses.
  EXPECT_FALSE(ParseQuery("SELECT MIN(v) FROM s GROUP BY WINDOWS(T(10)), "
                          "WINDOWS(T(20))")
                   .ok());
  // Trailing garbage.
  EXPECT_FALSE(
      ParseQuery("SELECT MIN(v) FROM s GROUP BY WINDOWS(T(10)) extra")
          .ok());
  // Lexer error.
  EXPECT_FALSE(ParseQuery("SELECT MIN(v) FROM s; DROP TABLE").ok());
  // Empty input.
  EXPECT_FALSE(ParseQuery("").ok());
}

TEST(ParseQuery, ToSqlRoundTrip) {
  const char* sql =
      "SELECT MIN(temperature) FROM input GROUP BY device_id, "
      "WINDOWS(TUMBLINGWINDOW(20), HOPPINGWINDOW(40, 10))";
  Result<StreamQuery> query = ParseQuery(sql);
  ASSERT_TRUE(query.ok());
  Result<StreamQuery> reparsed = ParseQuery(query->ToSql());
  ASSERT_TRUE(reparsed.ok()) << query->ToSql();
  EXPECT_EQ(reparsed->ToSql(), query->ToSql());
  EXPECT_EQ(reparsed->windows.ToString(), query->windows.ToString());
}

// Example 1 through the SQL front door: the model costs of the shared
// and the original plans, and the shared plan with its hidden factor
// window T(10).
TEST(SqlSession, Example1CostsAndPlan) {
  StreamSession session;
  Result<QueryId> id = session.AddQuery(
      "SELECT MIN(t) FROM input GROUP BY device, "
      "WINDOWS(T(20), T(30), T(40))");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const StreamSession::SessionStats stats = session.Stats();
  EXPECT_DOUBLE_EQ(stats.original_cost, 360.0);
  EXPECT_DOUBLE_EQ(stats.shared_cost, 150.0);
  EXPECT_NEAR(stats.predicted_boost, 2.4, 1e-9);
  Result<std::string> explain = session.Explain(*id);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("shared plan (4 operators"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("T(10) <- <input>  [factor]  [hidden]"),
            std::string::npos)
      << *explain;
}

TEST(SqlSession, ParseErrorsFailAddQuery) {
  StreamSession session;
  EXPECT_FALSE(session.AddQuery("SELECT BOGUS").ok());
  EXPECT_EQ(session.num_queries(), 0u);
}

TEST(SqlSession, OptimizerOptionsArePassedThrough) {
  StreamSession::Options options;
  options.optimizer.enable_factor_windows = false;
  StreamSession session(options);
  ASSERT_TRUE(session
                  .AddQuery("SELECT SUM(v) FROM s GROUP BY "
                            "WINDOWS(T(20), T(30), T(40))")
                  .ok());
  EXPECT_DOUBLE_EQ(session.Stats().shared_cost, 246.0);  // Algorithm 1.
}

TEST(OptimizeQuery, HoppingRangePlanExecutesCorrectly) {
  Result<StreamQuery> query = ParseQuery(
      "SELECT RANGE(v) FROM s GROUP BY WINDOWS(W(20, 10), W(40, 10), "
      "W(60, 10))");
  ASSERT_TRUE(query.ok());
  Result<OptimizationOutcome> outcome =
      OptimizeQuery(query->windows, query->agg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->semantics, CoverageSemantics::kCoveredBy);
  std::vector<Event> events = GenerateSyntheticStream(5000, 1, 3);
  EXPECT_TRUE(VerifyEquivalence(
                  QueryPlan::Original(query->windows, query->agg),
                  QueryPlan::FromMinCostWcg(outcome->with_factors,
                                            query->agg),
                  events, 1)
                  .ok());
}

TEST(ParseQuery, FuzzPrefixesNeverCrash) {
  // Every prefix of a valid query must parse cleanly or fail cleanly.
  const std::string sql =
      "SELECT MIN(temperature) FROM input GROUP BY device_id, "
      "WINDOWS(TUMBLINGWINDOW(20), HOPPINGWINDOW(40, 10))";
  for (size_t len = 0; len <= sql.size(); ++len) {
    Result<StreamQuery> result = ParseQuery(sql.substr(0, len));
    if (result.ok()) {
      EXPECT_FALSE(result->windows.empty());
    }
  }
}

TEST(ParseQuery, FuzzMutationsNeverCrash) {
  const std::string sql =
      "SELECT SUM(v) FROM s GROUP BY k, WINDOWS(T(10), W(40, 10))";
  Rng rng(4242);
  const char alphabet[] = "(),0123456789ABCMINSUWX _";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = sql;
    int edits = 1 + static_cast<int>(rng.Uniform(0, 3));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(0, mutated.size() - 1);
      mutated[pos] = alphabet[rng.Uniform(0, sizeof(alphabet) - 2)];
    }
    Result<StreamQuery> result = ParseQuery(mutated);  // Must not crash.
    if (result.ok()) {
      // Whatever parsed must be internally consistent.
      EXPECT_FALSE(result->windows.empty());
      EXPECT_FALSE(result->source.empty());
    }
  }
}

}  // namespace
}  // namespace fw
