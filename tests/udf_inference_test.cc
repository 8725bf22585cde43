// Consistency property between an item's bound output column (the result
// schema) and its evaluated values: for a sweep of projection expressions
// over a classifier, an association model with a TABLE target and a
// segmentation model, the declared output column type must match the kind
// of every evaluated value (NULLs excepted), and nested-table outputs must
// carry the declared nested schema.

#include <gtest/gtest.h>

#include "core/provider.h"
#include "datagen/warehouse.h"

namespace dmx {
namespace {

class UdfInferenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    provider_ = new Provider();
    datagen::WarehouseConfig config;
    config.num_customers = 150;
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_->database(), config).ok());
    conn_ = provider_->Connect().release();
    ASSERT_TRUE(conn_->Execute(R"(
      CREATE MINING MODEL [M] (
        [Customer ID] LONG KEY,
        [Gender] TEXT DISCRETE,
        [Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT,
        [Product Purchases] TABLE(
          [Product Name] TEXT KEY,
          [Product Type] TEXT DISCRETE RELATED TO [Product Name]))
      USING Naive_Bayes)").ok());
    auto insert = conn_->Execute(R"(
      INSERT INTO [M]
      SHAPE {SELECT [Customer ID], [Gender], [Age] FROM Customers
             ORDER BY [Customer ID]}
      APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
               ORDER BY [CustID]}
              RELATE [Customer ID] TO [CustID]) AS [Product Purchases])");
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
    // An association model with a TABLE target, and a segmentation model.
    for (const char* statement : {
             R"(CREATE MINING MODEL [Rec] (
                  [Customer ID] LONG KEY,
                  [Product Purchases] TABLE([Product Name] TEXT KEY) PREDICT)
                USING Association_Rules(MINIMUM_SUPPORT = 0.05,
                                        MINIMUM_PROBABILITY = 0.3))",
             R"(INSERT INTO [Rec]
                SHAPE {SELECT [Customer ID] FROM Customers
                       ORDER BY [Customer ID]}
                APPEND ({SELECT [CustID], [Product Name] FROM Sales
                         ORDER BY [CustID]}
                        RELATE [Customer ID] TO [CustID])
                  AS [Product Purchases])",
             R"(CREATE MINING MODEL [Seg] (
                  [Customer ID] LONG KEY,
                  [Age] DOUBLE CONTINUOUS,
                  [Income] DOUBLE CONTINUOUS)
                USING Clustering(CLUSTER_COUNT = 3, SEED = 5))",
             R"(INSERT INTO [Seg]
                SELECT [Customer ID], [Age], [Income] FROM Customers)"}) {
      auto result = conn_->Execute(statement);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }

  /// Runs `SELECT <item> AS X FROM <model> <source>` and checks every
  /// evaluated value against the declared output column.
  static void ExpectDeclaredTypeMatches(const std::string& item,
                                        const std::string& model,
                                        const std::string& source) {
    auto result = conn_->Execute("SELECT " + item + " AS X FROM " + model +
                                 source);
    ASSERT_TRUE(result.ok()) << item << " -> " << result.status().ToString();
    ASSERT_EQ(result->num_columns(), 1u);
    const ColumnDef& declared = result->schema()->column(0);
    ASSERT_GT(result->num_rows(), 0u);
    for (const Row& row : result->rows()) {
      EXPECT_TRUE(KindMatchesType(row[0], declared.type))
          << item << ": declared " << DataTypeToString(declared.type)
          << " but evaluated to " << row[0].ToString();
      if (declared.type == DataType::kTable && !row[0].is_null()) {
        ASSERT_NE(declared.nested, nullptr) << item;
        EXPECT_TRUE(row[0].table_value()->schema()->Equals(*declared.nested))
            << item << ": nested schema mismatch";
      }
    }
  }

  static bool KindMatchesType(const Value& v, DataType declared) {
    if (v.is_null()) return true;
    switch (declared) {
      case DataType::kBool:
        return v.is_bool();
      case DataType::kLong:
        return v.is_long();
      case DataType::kDouble:
        return v.is_double() || v.is_long();  // numeric widening is fine
      case DataType::kText:
        return v.is_text();
      case DataType::kTable:
        return v.is_table();
    }
    return false;
  }

  static void TearDownTestSuite() {
    delete conn_;
    delete provider_;
    conn_ = nullptr;
    provider_ = nullptr;
  }

  static Provider* provider_;
  static Connection* conn_;
};

Provider* UdfInferenceTest::provider_ = nullptr;
Connection* UdfInferenceTest::conn_ = nullptr;

TEST_P(UdfInferenceTest, DeclaredTypeMatchesEvaluatedValues) {
  ExpectDeclaredTypeMatches(GetParam(), "[M]", R"(
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID], [Gender] FROM Customers
              ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)");
}

INSTANTIATE_TEST_SUITE_P(
    Projections, UdfInferenceTest,
    ::testing::Values(
        "t.[Customer ID]",                                  // source long
        "t.[Gender]",                                       // source text
        "[M].[Age]",                                        // predicted value
        "Predict([Age])",                                   //
        "PredictProbability([Age])",                        //
        "PredictProbability([Age], 30.0)",                  //
        "PredictSupport([Age])",                            //
        "PredictVariance([Age])",                           //
        "PredictStdev([Age])",                              //
        "PredictHistogram([Age])",                          // nested table
        "TopCount(PredictHistogram([Age]), $Probability, 2)",
        "RangeMin([Age])", "RangeMid([Age])", "RangeMax([Age])",
        "t.[Product Purchases]",                            // source table
        "'literal'", "42", "2.5"));

// Table targets: the association model predicts [Product Purchases].
class UdfInferenceTableTargetTest : public UdfInferenceTest {};

TEST_P(UdfInferenceTableTargetTest, DeclaredTypeMatchesEvaluatedValues) {
  ExpectDeclaredTypeMatches(GetParam(), "[Rec]", R"(
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)");
}

INSTANTIATE_TEST_SUITE_P(
    Association, UdfInferenceTableTargetTest,
    ::testing::Values(
        "Predict([Product Purchases], 3)",
        "PredictAssociation([Product Purchases], 3)",
        "TopCount(Predict([Product Purchases], 20), $Probability, 3)",
        "PredictHistogram([Product Purchases])",
        "[Rec].[Product Purchases]"));  // a bare table target: Predict

// Segmentation membership UDFs.
class UdfInferenceSegmentationTest : public UdfInferenceTest {};

TEST_P(UdfInferenceSegmentationTest, DeclaredTypeMatchesEvaluatedValues) {
  ExpectDeclaredTypeMatches(GetParam(), "[Seg]", R"(
    NATURAL PREDICTION JOIN
      (SELECT [Customer ID], [Age], [Income] FROM Customers) AS t)");
}

INSTANTIATE_TEST_SUITE_P(Clustering, UdfInferenceSegmentationTest,
                         ::testing::Values("Cluster()",
                                           "ClusterProbability()"));

}  // namespace
}  // namespace dmx
