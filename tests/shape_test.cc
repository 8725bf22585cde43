// Data Shaping Service: SHAPE parsing, hierarchical rowset construction, the
// streaming case reader, and the structural invariants of shaping
// (child-row conservation, key containment).

#include <gtest/gtest.h>

#include "datagen/warehouse.h"
#include "relational/sql_executor.h"
#include "shape/shape_executor.h"
#include "shape/shape_parser.h"

namespace dmx::shape {
namespace {

constexpr const char* kPaperShape = R"(
SHAPE
  {SELECT [Customer ID], [Gender], [Age] FROM Customers
   ORDER BY [Customer ID]}
APPEND (
  {SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales
   ORDER BY [CustID]}
  RELATE [Customer ID] TO [CustID]) AS [Product Purchases]
)";

class ShapeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datagen::LoadPaperExample(&db_).ok());
  }

  rel::Database db_;
};

TEST_F(ShapeTest, ParsesThePaperStatement) {
  auto stmt = ParseShape(kPaperShape);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->appends.size(), 1u);
  EXPECT_EQ(stmt->appends[0].name, "Product Purchases");
  ASSERT_EQ(stmt->appends[0].relations.size(), 1u);
  EXPECT_EQ(stmt->appends[0].relations[0].parent_column, "Customer ID");
  EXPECT_EQ(stmt->appends[0].relations[0].child_column, "CustID");
}

TEST_F(ShapeTest, ParseErrors) {
  EXPECT_TRUE(ParseShape("SHAPE {SELECT a FROM t}").status().IsParseError());
  EXPECT_TRUE(ParseShape("SHAPE {SELECT a FROM t} APPEND ({SELECT b FROM u})")
                  .status()
                  .IsParseError());  // missing RELATE
  EXPECT_TRUE(
      ParseShape(
          "SHAPE {SELECT a FROM t} APPEND ({SELECT b FROM u} RELATE a TO b)")
          .status()
          .IsParseError());  // missing AS
}

TEST_F(ShapeTest, BuildsThePaperTable1Case) {
  auto stmt = ParseShape(kPaperShape);
  ASSERT_TRUE(stmt.ok());
  auto caseset = ExecuteShape(db_, *stmt);
  ASSERT_TRUE(caseset.ok()) << caseset.status().ToString();
  ASSERT_EQ(caseset->num_rows(), 3u);
  // Customer 1 is Table 1: male, 35, with exactly 4 purchases.
  const Row& customer1 = caseset->rows()[0];
  EXPECT_TRUE(customer1[0].Equals(Value::Long(1)));
  EXPECT_TRUE(customer1[1].Equals(Value::Text("Male")));
  ASSERT_TRUE(customer1[3].is_table());
  const NestedTable& purchases = *customer1[3].table_value();
  EXPECT_EQ(purchases.num_rows(), 4u);
  // Beer has quantity 6 and type Beverage, exactly as in Table 1.
  bool found_beer = false;
  for (const Row& row : purchases.rows()) {
    if (row[1].Equals(Value::Text("Beer"))) {
      found_beer = true;
      EXPECT_TRUE(row[2].Equals(Value::Double(6)));
      EXPECT_TRUE(row[3].Equals(Value::Text("Beverage")));
    }
  }
  EXPECT_TRUE(found_beer);
}

TEST_F(ShapeTest, CustomersWithoutChildrenGetEmptyTables) {
  auto stmt = ParseShape(R"(
    SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
    APPEND ({SELECT [CustID], [Car] FROM CarOwnership ORDER BY [CustID]}
            RELATE [Customer ID] TO [CustID]) AS [Cars])");
  ASSERT_TRUE(stmt.ok());
  auto caseset = ExecuteShape(db_, *stmt);
  ASSERT_TRUE(caseset.ok());
  // Customer 2 owns no car.
  EXPECT_EQ(caseset->rows()[1][1].table_value()->num_rows(), 0u);
  EXPECT_EQ(caseset->rows()[0][1].table_value()->num_rows(), 2u);
}

TEST_F(ShapeTest, MultipleAppendsYieldMultipleNestedColumns) {
  auto stmt = ParseShape(R"(
    SHAPE {SELECT [Customer ID], [Gender] FROM Customers}
    APPEND ({SELECT [CustID], [Product Name] FROM Sales}
            RELATE [Customer ID] TO [CustID]) AS [Purchases]
    APPEND ({SELECT [CustID], [Car], [Car Probability] FROM CarOwnership}
            RELATE [Customer ID] TO [CustID]) AS [Cars])");
  ASSERT_TRUE(stmt.ok());
  auto caseset = ExecuteShape(db_, *stmt);
  ASSERT_TRUE(caseset.ok());
  ASSERT_EQ(caseset->num_columns(), 4u);
  EXPECT_EQ(caseset->schema()->column(2).type, DataType::kTable);
  EXPECT_EQ(caseset->schema()->column(3).type, DataType::kTable);
  // Table 1's car ownership: truck 100%, van 50%.
  const NestedTable& cars = *caseset->rows()[0][3].table_value();
  ASSERT_EQ(cars.num_rows(), 2u);
}

TEST_F(ShapeTest, StreamingReaderMatchesMaterializedExecution) {
  auto stmt = ParseShape(kPaperShape);
  ASSERT_TRUE(stmt.ok());
  auto materialized = ExecuteShape(db_, *stmt);
  ASSERT_TRUE(materialized.ok());
  auto reader = ShapedCaseReader::Create(db_, *stmt);
  ASSERT_TRUE(reader.ok());
  Row row;
  size_t i = 0;
  while (true) {
    auto has = (*reader)->Next(&row);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    ASSERT_LT(i, materialized->num_rows());
    const Row& expected = materialized->rows()[i];
    ASSERT_EQ(row.size(), expected.size());
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_TRUE(row[c].Equals(expected[c])) << "case " << i << " col " << c;
    }
    ++i;
  }
  EXPECT_EQ(i, materialized->num_rows());
}

// Nested rows: their order, sharing, multi-column keys and NULL keys.
class ShapeNestingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Must("CREATE TABLE P (Id LONG, Tag TEXT)");
    Must("INSERT INTO P VALUES (1, 'a'), (2, 'b'), (1, 'c'), (NULL, 'd')");
    Must("CREATE TABLE C (Pid LONG, Seq LONG)");
    Must(R"(INSERT INTO C VALUES
        (1, 10), (1, 30), (NULL, 5), (1, 20), (7, 99), (NULL, 6))");
  }

  void Must(const std::string& sql) {
    auto result = rel::ExecuteSql(&db_, sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  }

  Rowset Shape(const std::string& text) {
    auto stmt = ParseShape(text);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    if (!stmt.ok()) return Rowset();
    auto caseset = ExecuteShape(db_, *stmt);
    EXPECT_TRUE(caseset.ok()) << caseset.status().ToString();
    return caseset.ok() ? std::move(caseset).value() : Rowset();
  }

  // Column `col` of every nested row of `cell`, as longs.
  static std::vector<int64_t> Nested(const Value& cell, size_t col) {
    std::vector<int64_t> out;
    for (const Row& row : cell.table_value()->rows()) {
      out.push_back(row[col].long_value());
    }
    return out;
  }

  rel::Database db_;
};

using Longs = std::vector<int64_t>;

TEST_F(ShapeNestingTest, NestedRowsKeepTheChildSelectOrder) {
  Rowset asc = Shape(R"(SHAPE {SELECT [Id] FROM P}
      APPEND ({SELECT [Pid], [Seq] FROM C ORDER BY [Seq]}
              RELATE [Id] TO [Pid]) AS [Kids])");
  ASSERT_EQ(asc.num_rows(), 4u);
  EXPECT_EQ(Nested(asc.at(0, 1), 1), (Longs{10, 20, 30}));
  Rowset desc = Shape(R"(SHAPE {SELECT [Id] FROM P}
      APPEND ({SELECT [Pid], [Seq] FROM C ORDER BY [Seq] DESC}
              RELATE [Id] TO [Pid]) AS [Kids])");
  ASSERT_EQ(desc.num_rows(), 4u);
  EXPECT_EQ(Nested(desc.at(0, 1), 1), (Longs{30, 20, 10}));
  // Without ORDER BY the child SELECT returns stored order, and so do the
  // nested rows.
  Rowset stored = Shape(R"(SHAPE {SELECT [Id] FROM P}
      APPEND ({SELECT [Pid], [Seq] FROM C} RELATE [Id] TO [Pid]) AS [Kids])");
  ASSERT_EQ(stored.num_rows(), 4u);
  EXPECT_EQ(Nested(stored.at(0, 1), 1), (Longs{10, 30, 20}));
}

TEST_F(ShapeNestingTest, ParentWithoutChildrenGetsAnEmptyTable) {
  Rowset r = Shape(R"(SHAPE {SELECT [Id], [Tag] FROM P}
      APPEND ({SELECT [Pid], [Seq] FROM C} RELATE [Id] TO [Pid]) AS [Kids])");
  ASSERT_EQ(r.num_rows(), 4u);
  ASSERT_TRUE(r.at(1, 2).is_table());
  EXPECT_EQ(r.at(1, 2).table_value()->num_rows(), 0u);
  EXPECT_TRUE(r.at(1, 2).table_value()->schema()->Equals(
      *r.schema()->column(2).nested));
  // Child 7 relates to no parent and appears nowhere.
  for (const Row& row : r.rows()) {
    for (int64_t seq : Nested(row[2], 1)) EXPECT_NE(seq, 99);
  }
}

TEST_F(ShapeNestingTest, DuplicateParentKeysShareOneTable) {
  Rowset r = Shape(R"(SHAPE {SELECT [Id], [Tag] FROM P}
      APPEND ({SELECT [Pid], [Seq] FROM C ORDER BY [Seq]}
              RELATE [Id] TO [Pid]) AS [Kids])");
  ASSERT_EQ(r.num_rows(), 4u);
  EXPECT_EQ(r.at(0, 1).text_value(), "a");
  EXPECT_EQ(r.at(2, 1).text_value(), "c");
  EXPECT_EQ(r.at(0, 2).table_value(), r.at(2, 2).table_value());
  EXPECT_EQ(Nested(r.at(2, 2), 1), (Longs{10, 20, 30}));
}

TEST_F(ShapeNestingTest, TwoColumnRelate) {
  Must("CREATE TABLE Q (A LONG, B TEXT)");
  Must("INSERT INTO Q VALUES (1, 'x'), (1, 'y'), (2, 'x')");
  Must("CREATE TABLE D (A2 LONG, B2 TEXT, V LONG)");
  Must(R"(INSERT INTO D VALUES
      (1, 'y', 1), (1, 'x', 2), (2, 'y', 3), (1, 'y', 4), (2, 'x', 5))");
  Rowset r = Shape(R"(SHAPE {SELECT [A], [B] FROM Q}
      APPEND ({SELECT [A2], [B2], [V] FROM D}
              RELATE [A] TO [A2], [B] TO [B2]) AS [Ds])");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(Nested(r.at(0, 2), 2), (Longs{2}));
  EXPECT_EQ(Nested(r.at(1, 2), 2), (Longs{1, 4}));
  EXPECT_EQ(Nested(r.at(2, 2), 2), (Longs{5}));
}

// A NULL relate key matches NULL child keys (Value::Equals), as it always
// has.
TEST_F(ShapeNestingTest, NullKeysMatchEachOther) {
  Rowset r = Shape(R"(SHAPE {SELECT [Id], [Tag] FROM P}
      APPEND ({SELECT [Pid], [Seq] FROM C} RELATE [Id] TO [Pid]) AS [Kids])");
  ASSERT_EQ(r.num_rows(), 4u);
  EXPECT_TRUE(r.at(3, 0).is_null());
  EXPECT_EQ(Nested(r.at(3, 2), 1), (Longs{5, 6}));
}

// Property suite over warehouse sizes: shaping conserves child rows and only
// attaches children whose key matches the parent.
class ShapeInvariants : public ::testing::TestWithParam<int> {};

TEST_P(ShapeInvariants, ConservationAndContainment) {
  rel::Database db;
  datagen::WarehouseConfig config;
  config.num_customers = GetParam();
  config.seed = 1000 + GetParam();
  ASSERT_TRUE(datagen::PopulateWarehouse(&db, config).ok());

  auto stmt = ParseShape(R"(
    SHAPE {SELECT [Customer ID], [Gender] FROM Customers
           ORDER BY [Customer ID]}
    APPEND ({SELECT [CustID], [Product Name] FROM Sales ORDER BY [CustID]}
            RELATE [Customer ID] TO [CustID]) AS [Purchases])");
  ASSERT_TRUE(stmt.ok());
  auto caseset = ExecuteShape(db, *stmt);
  ASSERT_TRUE(caseset.ok());

  auto sales = db.GetTable("Sales");
  ASSERT_TRUE(sales.ok());

  // Every parent key is unique here, so conservation is exact: nested rows
  // across all cases == sales rows (every sale belongs to a customer).
  size_t nested_total = 0;
  for (const Row& row : caseset->rows()) {
    ASSERT_TRUE(row[2].is_table());
    const NestedTable& nested = *row[2].table_value();
    nested_total += nested.num_rows();
    // Containment: each child carries the parent's key.
    for (const Row& child : nested.rows()) {
      EXPECT_TRUE(child[0].Equals(row[0]));
    }
  }
  EXPECT_EQ(nested_total, (*sales)->num_rows());
  EXPECT_EQ(caseset->num_rows(), static_cast<size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShapeInvariants,
                         ::testing::Values(1, 7, 50, 200));

}  // namespace
}  // namespace dmx::shape
