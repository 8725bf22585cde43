// Prediction join + UDFs: end-to-end through the provider, covering every
// shipped function, ON vs NATURAL equivalence, FLATTENED semantics, TOP,
// and the error surface.

#include "core/prediction_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/provider.h"
#include "datagen/warehouse.h"

namespace dmx {
namespace {

class PredictionJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    conn_ = provider_.Connect();
    datagen::WarehouseConfig config;
    config.num_customers = 400;
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_.database(), config).ok());
    Must(R"(
      CREATE MINING MODEL [M] (
        [Customer ID] LONG KEY,
        [Gender] TEXT DISCRETE,
        [Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT,
        [Product Purchases] TABLE(
          [Product Name] TEXT KEY,
          [Product Type] TEXT DISCRETE RELATED TO [Product Name]
        )
      ) USING Naive_Bayes)");
    Must(R"(
      INSERT INTO [M]
      SHAPE {SELECT [Customer ID], [Gender], [Age] FROM Customers
             ORDER BY [Customer ID]}
      APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
               ORDER BY [CustID]}
              RELATE [Customer ID] TO [CustID]) AS [Product Purchases])");
  }

  Rowset Must(const std::string& command) {
    auto result = conn_->Execute(command);
    EXPECT_TRUE(result.ok()) << command << "\n-> "
                             << result.status().ToString();
    return result.ok() ? std::move(result).value() : Rowset();
  }

  Status Fails(const std::string& command) {
    auto result = conn_->Execute(command);
    EXPECT_FALSE(result.ok()) << command;
    return result.status();
  }

  static constexpr const char* kNaturalSource = R"(
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID], [Gender] FROM Customers
              ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";

  // The same caseset with no cases: its master query selects nothing.
  static constexpr const char* kEmptySource = R"(
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID], [Gender] FROM Customers
              WHERE [Customer ID] < 0 ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";

  // An association model that predicts the [Product Purchases] table, and
  // the caseset it is joined with.
  void TrainRec() {
    Must(R"(
      CREATE MINING MODEL [Rec] (
        [Customer ID] LONG KEY,
        [Product Purchases] TABLE([Product Name] TEXT KEY) PREDICT
      ) USING Association_Rules(MINIMUM_SUPPORT = 0.05,
                                MINIMUM_PROBABILITY = 0.3))");
    Must(R"(
      INSERT INTO [Rec]
      SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
      APPEND ({SELECT [CustID], [Product Name] FROM Sales ORDER BY [CustID]}
              RELATE [Customer ID] TO [CustID]) AS [Product Purchases])");
  }

  static constexpr const char* kRecSource = R"(
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";

  Provider provider_;
  std::unique_ptr<Connection> conn_;
};

TEST_F(PredictionJoinTest, EveryScalarUdf) {
  Rowset r = Must(std::string(R"(
    SELECT t.[Customer ID],
           Predict([Age]) AS P,
           [M].[Age] AS ColumnForm,
           PredictProbability([Age]) AS Prob,
           PredictSupport([Age]) AS Supp,
           PredictVariance([Age]) AS Var,
           PredictStdev([Age]) AS Sd,
           RangeMin([Age]) AS Lo,
           RangeMid([Age]) AS Mid,
           RangeMax([Age]) AS Hi
    FROM [M])") + kNaturalSource);
  ASSERT_EQ(r.num_rows(), 400u);
  for (size_t i = 0; i < r.num_rows(); ++i) {
    // Predict([Age]) and [M].[Age] agree.
    EXPECT_TRUE(r.at(i, 1).Equals(r.at(i, 2)));
    double prob = r.at(i, 3).double_value();
    EXPECT_GT(prob, 0);
    EXPECT_LE(prob, 1 + 1e-9);
    EXPECT_GT(r.at(i, 4).double_value(), 0);  // support
    // Range* bracket the bucket: Lo <= Mid <= Hi when bounded.
    if (!r.at(i, 7).is_null() && !r.at(i, 9).is_null()) {
      EXPECT_LE(r.at(i, 7).double_value(), r.at(i, 8).double_value());
      EXPECT_LE(r.at(i, 8).double_value(), r.at(i, 9).double_value());
    }
  }
}

TEST_F(PredictionJoinTest, HistogramIsSortedAndNormalized) {
  Rowset r = Must(std::string(R"(
    SELECT PredictHistogram([Age]) AS H FROM [M])") + kNaturalSource);
  for (const Row& row : r.rows()) {
    ASSERT_TRUE(row[0].is_table());
    const NestedTable& h = *row[0].table_value();
    ASSERT_GT(h.num_rows(), 0u);
    double total = 0;
    double previous = 2;
    size_t prob_col = *h.schema()->ResolveColumn("$PROBABILITY");
    for (const Row& entry : h.rows()) {
      double p = entry[prob_col].double_value();
      EXPECT_LE(p, previous + 1e-12);  // descending
      previous = p;
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST_F(PredictionJoinTest, TopCountTrimsHistograms) {
  Rowset r = Must(std::string(R"(
    SELECT TopCount(PredictHistogram([Age]), $Probability, 2) AS H
    FROM [M])") + kNaturalSource);
  for (const Row& row : r.rows()) {
    EXPECT_LE(row[0].table_value()->num_rows(), 2u);
  }
}

// TopCount ranks a source TABLE column's rows as they come with the case,
// unflattened and FLATTENED alike.
TEST_F(PredictionJoinTest, TopCountOverSourceTable) {
  Rowset source = Must(std::string(R"(
    SELECT t.[Customer ID], t.[Product Purchases] FROM [M])") +
                       kNaturalSource);
  const std::string items = R"(
    t.[Customer ID],
    TopCount(t.[Product Purchases], [Product Name], 2) AS T FROM [M])";
  Rowset nested = Must("SELECT" + items + kNaturalSource);
  ASSERT_EQ(nested.num_rows(), source.num_rows());
  ASSERT_GT(nested.num_rows(), 0u);
  size_t flat_rows = 0;
  for (size_t r = 0; r < nested.num_rows(); ++r) {
    const NestedTable& purchases = *source.at(r, 1).table_value();
    const int name = purchases.schema()->FindColumn("Product Name");
    ASSERT_GE(name, 0);
    std::vector<Row> want = purchases.rows();
    std::stable_sort(want.begin(), want.end(),
                     [name](const Row& a, const Row& b) {
                       return a[name].Compare(b[name]) > 0;
                     });
    if (want.size() > 2) want.resize(2);
    flat_rows += std::max<size_t>(1, want.size());
    const std::vector<Row>& got = nested.at(r, 1).table_value()->rows();
    ASSERT_EQ(got.size(), want.size()) << "case " << r;
    for (size_t i = 0; i < got.size(); ++i) {
      for (size_t c = 0; c < want[i].size(); ++c) {
        EXPECT_TRUE(got[i][c].Equals(want[i][c]))
            << "case " << r << " row " << i << " column " << c;
      }
    }
  }
  Rowset streamed = Must("SELECT FLATTENED" + items + kNaturalSource);
  EXPECT_TRUE(streamed.schema()->HasColumn("T.Product Name"));
  auto flattened = FlattenRowset(nested);
  ASSERT_TRUE(flattened.ok()) << flattened.status().ToString();
  ASSERT_EQ(streamed.num_rows(), flat_rows);
  ASSERT_EQ(flattened->num_rows(), flat_rows);
  for (size_t r = 0; r < streamed.num_rows(); ++r) {
    for (size_t c = 0; c < streamed.schema()->num_columns(); ++c) {
      const Value& got = streamed.at(r, c);
      const Value& want = flattened->at(r, c);
      EXPECT_TRUE((got.is_null() && want.is_null()) || got.Equals(want))
          << "row " << r << " column " << c;
    }
  }
}

TEST_F(PredictionJoinTest, OnClauseMatchesNatural) {
  std::string on_query = R"(
    SELECT t.[Customer ID], [M].[Age]
    FROM [M]
    PREDICTION JOIN
      (SHAPE {SELECT [Customer ID], [Gender] FROM Customers
              ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t
    ON [M].[Gender] = t.[Gender] AND
       [M].[Product Purchases].[Product Name] =
         t.[Product Purchases].[Product Name] AND
       [M].[Product Purchases].[Product Type] =
         t.[Product Purchases].[Product Type])";
  Rowset on_result = Must(on_query);
  Rowset natural = Must(std::string(R"(
    SELECT t.[Customer ID], [M].[Age] FROM [M])") + kNaturalSource);
  ASSERT_EQ(on_result.num_rows(), natural.num_rows());
  for (size_t i = 0; i < natural.num_rows(); ++i) {
    EXPECT_TRUE(on_result.at(i, 0).Equals(natural.at(i, 0)));
    EXPECT_TRUE(on_result.at(i, 1).Equals(natural.at(i, 1)));
  }
}

TEST_F(PredictionJoinTest, TopLimitsCases) {
  Rowset r = Must(std::string(R"(
    SELECT TOP 7 t.[Customer ID] FROM [M])") + kNaturalSource);
  EXPECT_EQ(r.num_rows(), 7u);
}

TEST_F(PredictionJoinTest, FlattenedExpandsAndRenames) {
  Rowset nested = Must(std::string(R"(
    SELECT t.[Customer ID], PredictHistogram([Age]) AS H
    FROM [M])") + kNaturalSource);
  Rowset flat = Must(std::string(R"(
    SELECT FLATTENED t.[Customer ID], PredictHistogram([Age]) AS H
    FROM [M])") + kNaturalSource);
  size_t expected = 0;
  for (const Row& row : nested.rows()) {
    expected += std::max<size_t>(1, row[1].table_value()->num_rows());
  }
  EXPECT_EQ(flat.num_rows(), expected);
  EXPECT_TRUE(flat.schema()->HasColumn("H.Age"));
  EXPECT_TRUE(flat.schema()->HasColumn("H.$PROBABILITY"));
}

// FLATTENED expands each case as it is scored; TOP n still counts cases,
// not flat rows.
TEST_F(PredictionJoinTest, FlattenedTopCountsCases) {
  Rowset nested = Must(std::string(R"(
    SELECT TOP 3 t.[Customer ID], PredictHistogram([Age]) AS H
    FROM [M])") + kNaturalSource);
  ASSERT_EQ(nested.num_rows(), 3u);
  Rowset flat = Must(std::string(R"(
    SELECT FLATTENED TOP 3 t.[Customer ID], PredictHistogram([Age]) AS H
    FROM [M])") + kNaturalSource);
  size_t expected = 0;
  for (const Row& row : nested.rows()) {
    expected += std::max<size_t>(1, row[1].table_value()->num_rows());
  }
  EXPECT_GT(expected, 3u);
  ASSERT_EQ(flat.num_rows(), expected);
  std::vector<Value> ids;
  for (const Row& row : flat.rows()) {
    if (ids.empty() || !ids.back().Equals(row[0])) ids.push_back(row[0]);
  }
  ASSERT_EQ(ids.size(), 3u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(ids[i].Equals(nested.at(i, 0))) << i;
  }
}

// Two TABLE items flatten to the product of their rows, in the order
// FlattenRowset gives the unflattened statement.
TEST_F(PredictionJoinTest, FlattenedTwoTablesMatchFlattenRowset) {
  const std::string items = R"(
    t.[Customer ID], PredictHistogram([Age]) AS A,
    PredictProbability([Age]) AS P,
    TopCount(PredictHistogram([Age]), $Probability, 2) AS B
    FROM [M])";
  Rowset nested = Must("SELECT" + items + kNaturalSource);
  Rowset streamed = Must("SELECT FLATTENED" + items + kNaturalSource);
  auto flattened = FlattenRowset(nested);
  ASSERT_TRUE(flattened.ok()) << flattened.status().ToString();
  ASSERT_EQ(streamed.schema()->num_columns(),
            flattened->schema()->num_columns());
  for (size_t c = 0; c < streamed.schema()->num_columns(); ++c) {
    const ColumnDef& got = streamed.schema()->column(c);
    const ColumnDef& want = flattened->schema()->column(c);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.type, want.type) << got.name;
  }
  EXPECT_TRUE(streamed.schema()->HasColumn("A.$PROBABILITY"));
  EXPECT_TRUE(streamed.schema()->HasColumn("B.Age"));
  ASSERT_EQ(streamed.num_rows(), flattened->num_rows());
  size_t product = 0;
  for (const Row& row : nested.rows()) {
    product += row[1].table_value()->num_rows() *
               row[3].table_value()->num_rows();
  }
  EXPECT_EQ(streamed.num_rows(), product);
  // Each case gives A's rows times B's, A varying slowest.
  std::vector<Row> expected;
  for (const Row& row : nested.rows()) {
    for (const Row& a : row[1].table_value()->rows()) {
      for (const Row& b : row[3].table_value()->rows()) {
        Row flat = {row[0]};
        flat.insert(flat.end(), a.begin(), a.end());
        flat.push_back(row[2]);
        flat.insert(flat.end(), b.begin(), b.end());
        expected.push_back(std::move(flat));
      }
    }
  }
  for (size_t r = 0; r < streamed.num_rows(); ++r) {
    for (size_t c = 0; c < streamed.schema()->num_columns(); ++c) {
      const Value& got = streamed.at(r, c);
      EXPECT_TRUE(got.Equals(expected[r][c])) << "row " << r << " column " << c;
      const Value& want = flattened->at(r, c);
      ASSERT_TRUE((got.is_null() && want.is_null()) || got.Equals(want))
          << "row " << r << " column " << c << ": " << got.ToString()
          << " vs " << want.ToString();
    }
  }
}

// A table item with no rows still gives its case one row, NULL-padded.
TEST_F(PredictionJoinTest, FlattenedEmptyTableGivesOneNullRow) {
  Rowset flat = Must(std::string(R"(
    SELECT FLATTENED t.[Customer ID],
           TopCount(PredictHistogram([Age]), $Probability, 0) AS E,
           Predict([Age]) AS P
    FROM [M])") + kNaturalSource);
  ASSERT_EQ(flat.num_rows(), 400u);
  ASSERT_EQ(flat.schema()->num_columns(), 7u);
  EXPECT_EQ(flat.schema()->column(1).name, "E.Age");
  EXPECT_EQ(flat.schema()->column(6).name, "P");
  for (const Row& row : flat.rows()) {
    EXPECT_FALSE(row[0].is_null());
    for (size_t c = 1; c <= 5; ++c) EXPECT_TRUE(row[c].is_null()) << c;
    EXPECT_FALSE(row[6].is_null());
  }
}

TEST_F(PredictionJoinTest, FlattenRowsetHandlesEmptyTables) {
  auto nested_schema = Schema::Make({{"K", DataType::kLong}});
  Rowset input(Schema::Make({{"Id", DataType::kLong},
                             ColumnDef("T", nested_schema)}));
  (void)input.Append({Value::Long(1),
                      Value::Table(NestedTable::Make(nested_schema, {}))});
  auto flat = FlattenRowset(input);
  ASSERT_TRUE(flat.ok());
  ASSERT_EQ(flat->num_rows(), 1u);
  EXPECT_TRUE(flat->at(0, 1).is_null());  // empty table -> one NULL row
}

// A nested TABLE column expands before the columns after its table, and an
// empty one still gives a row of NULLs: the order flattening one TABLE
// column at a time gives.
TEST_F(PredictionJoinTest, FlattenRowsetExpandsNestedTablesDepthFirst) {
  auto inner = Schema::Make({{"Y", DataType::kLong}});
  auto outer =
      Schema::Make({{"X", DataType::kLong}, ColumnDef("U", inner)});
  auto side = Schema::Make({{"Z", DataType::kLong}});
  Rowset input(Schema::Make({{"Id", DataType::kLong}, ColumnDef("T", outer),
                             ColumnDef("V", side)}));
  auto u = NestedTable::Make(inner, {{Value::Long(10)}, {Value::Long(11)}});
  ASSERT_TRUE(
      input
          .Append({Value::Long(1),
                   Value::Table(NestedTable::Make(
                       outer, {{Value::Long(1), Value::Table(u)},
                               {Value::Long(2),
                                Value::Table(NestedTable::Make(inner, {}))}})),
                   Value::Table(NestedTable::Make(
                       side, {{Value::Long(100)}, {Value::Long(101)}}))})
          .ok());
  auto flat = FlattenRowset(input);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ASSERT_EQ(flat->schema()->num_columns(), 4u);
  EXPECT_EQ(flat->schema()->column(2).name, "T.U.Y");
  EXPECT_EQ(flat->schema()->column(3).name, "V.Z");
  // {T.X, T.U.Y, V.Z}; -1 stands for NULL.
  const std::vector<std::vector<int64_t>> expected = {
      {1, 10, 100}, {1, 10, 101}, {1, 11, 100},
      {1, 11, 101}, {2, -1, 100}, {2, -1, 101}};
  ASSERT_EQ(flat->num_rows(), expected.size());
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(flat->at(r, 0).long_value(), 1);
    for (size_t c = 0; c < 3; ++c) {
      const Value& got = flat->at(r, c + 1);
      if (expected[r][c] < 0) {
        EXPECT_TRUE(got.is_null()) << r << "," << c;
      } else {
        ASSERT_TRUE(got.is_long()) << r << "," << c;
        EXPECT_EQ(got.long_value(), expected[r][c]) << r << "," << c;
      }
    }
  }
}

// An empty outer table stands as one NULL row even when a TABLE column inside
// it is wider than the outer table and columns follow it: the NULL row that
// pads the inner table serves the outer one too.
TEST_F(PredictionJoinTest, FlattenRowsetPadsWideTableInsideEmptyTable) {
  auto inner = Schema::Make({{"A", DataType::kLong},
                             {"B", DataType::kLong},
                             {"C", DataType::kLong}});
  auto outer = Schema::Make({ColumnDef("U", inner), {"X", DataType::kLong}});
  Rowset input(Schema::Make({{"Id", DataType::kLong}, ColumnDef("T", outer),
                             {"W", DataType::kLong}}));
  ASSERT_TRUE(input
                  .Append({Value::Long(1),
                           Value::Table(NestedTable::Make(outer, {})),
                           Value::Long(5)})
                  .ok());
  auto flat = FlattenRowset(input);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ASSERT_EQ(flat->schema()->num_columns(), 6u);
  EXPECT_EQ(flat->schema()->column(3).name, "T.U.C");
  EXPECT_EQ(flat->schema()->column(4).name, "T.X");
  ASSERT_EQ(flat->num_rows(), 1u);
  EXPECT_EQ(flat->at(0, 0).long_value(), 1);
  for (size_t c = 1; c <= 4; ++c) EXPECT_TRUE(flat->at(0, c).is_null()) << c;
  ASSERT_TRUE(flat->at(0, 5).is_long());
  EXPECT_EQ(flat->at(0, 5).long_value(), 5);
}

// Regression: a nested table whose actual width disagrees with the schema the
// outer TABLE column declares used to be *silently dropped* during FLATTENED
// expansion (the Append failure was discarded). It must surface as an error.
TEST_F(PredictionJoinTest, FlattenRowsetRejectsArityMismatchedNestedTable) {
  auto declared = Schema::Make({{"K", DataType::kLong}});
  auto actual = Schema::Make({{"K", DataType::kLong}, {"V", DataType::kText}});
  Rowset input(
      Schema::Make({{"Id", DataType::kLong}, ColumnDef("T", declared)}));
  ASSERT_TRUE(input
                  .Append({Value::Long(1),
                           Value::Table(NestedTable::Make(
                               actual, {{Value::Long(7), Value::Text("x")}}))})
                  .ok());
  auto flat = FlattenRowset(input);
  ASSERT_FALSE(flat.ok());
  EXPECT_EQ(flat.status().code(), StatusCode::kInvalidArgument)
      << flat.status().ToString();
  EXPECT_NE(flat.status().ToString().find("flattening nested table"),
            std::string::npos)
      << flat.status().ToString();
}

TEST_F(PredictionJoinTest, PredictOnTableColumnErrorsForThisService) {
  // Naive_Bayes predicts scalars; [Product Purchases] is not a target.
  Status s = Fails(std::string(R"(
    SELECT Predict([Product Purchases], 3) FROM [M])") + kNaturalSource);
  EXPECT_TRUE(s.IsBindError());
}

TEST_F(PredictionJoinTest, ErrorSurface) {
  // Unknown model.
  EXPECT_TRUE(Fails("SELECT Predict(x) FROM nope NATURAL PREDICTION JOIN "
                    "(SELECT [Customer ID] FROM Customers) AS t")
                  .IsNotFound());
  // Unknown UDF.
  EXPECT_TRUE(Fails(std::string("SELECT Summon([Age]) FROM [M]") +
                    kNaturalSource)
                  .IsNotSupported());
  // Non-predict column in a Predict UDF.
  EXPECT_TRUE(Fails(std::string("SELECT Predict([Gender]) FROM [M]") +
                    kNaturalSource)
                  .IsBindError());
  // Unknown source column.
  EXPECT_TRUE(Fails(std::string("SELECT t.[Ghost] FROM [M]") + kNaturalSource)
                  .IsBindError());
  // Cluster() on a non-segmentation model.
  EXPECT_TRUE(Fails(std::string("SELECT Cluster() FROM [M]") + kNaturalSource)
                  .IsInvalidState());
  // RangeMin on a non-discretized column.
  EXPECT_TRUE(Fails(std::string("SELECT RangeMin([Gender]) FROM [M]") +
                    kNaturalSource)
                  .ok() == false);
}

TEST_F(PredictionJoinTest, PredictProbabilityWithExplicitValue) {
  // Probabilities of every bucket value sum to ~1 for a given case; an
  // unknown value scores 0.
  Rowset hist = Must(std::string(R"(
    SELECT TOP 1 PredictHistogram([Age]) AS H FROM [M])") + kNaturalSource);
  const NestedTable& h = *hist.at(0, 0).table_value();
  size_t value_col = *h.schema()->ResolveColumn("Age");
  double total = 0;
  for (const Row& entry : h.rows()) {
    std::string value = entry[value_col].ToString();
    Rowset p = Must(std::string("SELECT TOP 1 PredictProbability([Age], ") +
                    value + ") AS P FROM [M]" + kNaturalSource);
    total += p.at(0, 0).double_value();
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  Rowset zero = Must(std::string(
      "SELECT TOP 1 PredictProbability([Age], -12345.0) AS P FROM [M]") +
      kNaturalSource);
  EXPECT_DOUBLE_EQ(zero.at(0, 0).double_value(), 0.0);
}

TEST_F(PredictionJoinTest, ClusterUdfsOnSegmentationModel) {
  Must(R"(
    CREATE MINING MODEL [Seg] (
      [Customer ID] LONG KEY,
      [Age] DOUBLE CONTINUOUS,
      [Income] DOUBLE CONTINUOUS
    ) USING Clustering(CLUSTER_COUNT = 3, SEED = 5))");
  Must(R"(
    INSERT INTO [Seg]
    SELECT [Customer ID], [Age], [Income] FROM Customers)");
  Rowset r = Must(R"(
    SELECT Cluster() AS C, ClusterProbability() AS P
    FROM [Seg]
    NATURAL PREDICTION JOIN
      (SELECT [Customer ID], [Age], [Income] FROM Customers) AS t)");
  ASSERT_EQ(r.num_rows(), 400u);
  std::set<std::string> clusters;
  for (const Row& row : r.rows()) {
    clusters.insert(row[0].text_value());
    EXPECT_GT(row[1].double_value(), 0.33);
  }
  EXPECT_GE(clusters.size(), 2u);
}

TEST_F(PredictionJoinTest, AssociationTablePrediction) {
  TrainRec();
  Rowset r = Must(std::string(R"(
    SELECT t.[Customer ID], Predict([Product Purchases], 3) AS R
    FROM [Rec])") + kRecSource);
  ASSERT_EQ(r.num_rows(), 400u);
  for (const Row& row : r.rows()) {
    ASSERT_TRUE(row[1].is_table());
    EXPECT_LE(row[1].table_value()->num_rows(), 3u);
    // The recommendation table is keyed by the nested KEY's name.
    EXPECT_EQ(row[1].table_value()->schema()->column(0).name, "Product Name");
  }
}

// A form whose error depends only on the statement and the model fails when
// it is bound, before any case is scored: as a projection item, as a WHERE
// operand, and against a caseset with no cases, always the same way.
TEST_F(PredictionJoinTest, BindErrorsFailBeforeAnyCase) {
  struct BindErrorCase {
    const char* form;
    StatusCode code;
    const char* message;
  };
  const BindErrorCase kCases[] = {
      {"PredictHistogram()", StatusCode::kInvalidArgument,
       "PredictHistogram takes exactly 1 argument"},
      {"Predict()", StatusCode::kInvalidArgument,
       "Predict takes 1 or 2 arguments"},
      {"PredictProbability()", StatusCode::kInvalidArgument,
       "PredictProbability takes 1 or 2 arguments"},
      {"PredictProbability([Age], t.[Gender])", StatusCode::kInvalidArgument,
       "second argument must be a literal value"},
      {"Predict(t.[Gender])", StatusCode::kBindError, "is a source column"},
      {"Predict([Age], 'x')", StatusCode::kInvalidArgument,
       "count must be an integer literal"},
      {"TopCount(PredictHistogram([Age]), [Nope], 2)", StatusCode::kBindError,
       "unknown column 'Nope'"},
      {"TopCount(PredictHistogram([Age]), $Probability, 'x')",
       StatusCode::kInvalidArgument, "count must be an integer literal"},
      {"TopCount(PredictHistogram([Age]), $Probability, -1)",
       StatusCode::kInvalidArgument, "count must not be negative"},
      {"TopCount(Predict([Age]), $Probability, 2)",
       StatusCode::kInvalidArgument, "first argument is not a table"},
      {"RangeMin([Gender])", StatusCode::kInvalidArgument,
       "is not DISCRETIZED"},
      {"Foo([Age])", StatusCode::kNotSupported, "unknown function 'Foo'"},
      {"t.[Nope]", StatusCode::kBindError, "unknown column 'Nope'"},
      {"$Probability", StatusCode::kBindError,
       "only meaningful inside table functions"},
      // Both depend on the model alone: [Gender] is an input of [M], and
      // Naive Bayes is not a segmentation service.
      {"Predict([Gender])", StatusCode::kBindError,
       "column 'Gender' is not predicted by model 'M'"},
      {"PredictProbability([Gender], 'Male')", StatusCode::kBindError,
       "column 'Gender' is not predicted by model 'M'"},
      {"[M].[Gender]", StatusCode::kBindError,
       "column 'Gender' is not predicted by model 'M'"},
      {"Cluster()", StatusCode::kInvalidState,
       "Cluster requires a segmentation model"},
      {"ClusterProbability()", StatusCode::kInvalidState,
       "ClusterProbability requires a segmentation model"},
  };
  for (const BindErrorCase& c : kCases) {
    const std::string statements[] = {
        std::string("SELECT ") + c.form + " AS X FROM [M]" + kNaturalSource,
        std::string("SELECT t.[Customer ID] FROM [M]") + kNaturalSource +
            " WHERE " + c.form + " = 1",
        std::string("SELECT ") + c.form + " AS X FROM [M]" + kEmptySource,
    };
    for (const std::string& statement : statements) {
      SCOPED_TRACE(statement);
      Status s = Fails(statement);
      EXPECT_EQ(s.code(), c.code) << s.ToString();
      EXPECT_NE(s.ToString().find(c.message), std::string::npos)
          << s.ToString();
    }
  }
}

// Counts are validated once, at bind: negative fails, 0 yields an empty
// table, and a count past the int range is not narrowed.
TEST_F(PredictionJoinTest, CountArgumentsAreValidatedAtBind) {
  TrainRec();
  for (const char* function : {"Predict", "PredictAssociation"}) {
    SCOPED_TRACE(function);
    Rowset none = Must(std::string("SELECT ") + function +
                       "([Product Purchases], 0) AS R FROM [Rec]" +
                       kRecSource);
    ASSERT_EQ(none.num_rows(), 400u);
    for (const Row& row : none.rows()) {
      EXPECT_EQ(row[0].table_value()->num_rows(), 0u);
    }
    Status negative = Fails(std::string("SELECT ") + function +
                            "([Product Purchases], -1) AS R FROM [Rec]" +
                            kRecSource);
    EXPECT_EQ(negative.code(), StatusCode::kInvalidArgument)
        << negative.ToString();
    EXPECT_NE(negative.ToString().find("count must not be negative"),
              std::string::npos)
        << negative.ToString();
  }
  // 4294967297 is 2^32 + 1: narrowed to int it read as 1.
  Rowset wide = Must(std::string(R"(
    SELECT Predict([Product Purchases], 4294967297) AS R,
           PredictHistogram([Product Purchases]) AS H
    FROM [Rec])") + kRecSource);
  size_t most = 0;
  for (const Row& row : wide.rows()) {
    EXPECT_EQ(row[0].table_value()->num_rows(),
              row[1].table_value()->num_rows());
    most = std::max(most, row[0].table_value()->num_rows());
  }
  EXPECT_GT(most, 1u);

  Rowset top_none = Must(std::string(R"(
    SELECT TopCount(PredictHistogram([Age]), $Probability, 0) AS H
    FROM [M])") + kNaturalSource);
  for (const Row& row : top_none.rows()) {
    EXPECT_EQ(row[0].table_value()->num_rows(), 0u);
  }
}

}  // namespace
}  // namespace dmx
