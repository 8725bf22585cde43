// SQL subset: parser, expression semantics, executor (filters, ordering,
// hash/nested-loop joins, TOP), DDL/DML, and CSV import/export.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <vector>

#include "common/exec_guard.h"
#include "relational/database.h"
#include "relational/sql_executor.h"
#include "relational/sql_parser.h"

namespace dmx::rel {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Must("CREATE TABLE People (Id LONG, Name TEXT, Age LONG, City TEXT)");
    Must(R"(INSERT INTO People VALUES
        (1, 'Ann', 34, 'Oslo'),
        (2, 'Bob', 28, 'Rome'),
        (3, 'Cid', 42, 'Oslo'),
        (4, 'Dee', 28, 'Bern'))");
    Must("CREATE TABLE Pets (Owner LONG, Pet TEXT)");
    Must(R"(INSERT INTO Pets VALUES
        (1, 'cat'), (1, 'dog'), (3, 'fish'), (9, 'owl'))");
  }

  Rowset Must(const std::string& sql) {
    auto result = ExecuteSql(&db_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : Rowset();
  }

  Status Fails(const std::string& sql) {
    auto result = ExecuteSql(&db_, sql);
    EXPECT_FALSE(result.ok()) << sql;
    return result.status();
  }

  Database db_;
};

TEST_F(SqlTest, SelectStarPreservesSchemaOrder) {
  Rowset r = Must("SELECT * FROM People");
  EXPECT_EQ(r.num_rows(), 4u);
  ASSERT_EQ(r.num_columns(), 4u);
  EXPECT_EQ(r.schema()->column(0).name, "Id");
  EXPECT_EQ(r.schema()->column(3).name, "City");
}

TEST_F(SqlTest, WhereFiltersAndProjects) {
  Rowset r = Must("SELECT Name FROM People WHERE Age = 28");
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.at(0, 0).text_value(), "Bob");
}

TEST_F(SqlTest, WhereComposesBooleans) {
  EXPECT_EQ(Must("SELECT Id FROM People WHERE Age > 30 AND City = 'Oslo'")
                .num_rows(),
            2u);
  EXPECT_EQ(Must("SELECT Id FROM People WHERE Age > 40 OR City = 'Bern'")
                .num_rows(),
            2u);
  EXPECT_EQ(Must("SELECT Id FROM People WHERE NOT (City = 'Oslo')").num_rows(),
            2u);
  EXPECT_EQ(Must("SELECT Id FROM People WHERE Age <> 28").num_rows(), 2u);
}

TEST_F(SqlTest, ArithmeticInProjection) {
  Rowset r = Must("SELECT Age * 2 + 1 AS D FROM People WHERE Id = 1");
  EXPECT_EQ(r.at(0, 0).long_value(), 69);
  EXPECT_EQ(r.schema()->column(0).name, "D");
  Rowset div = Must("SELECT Age / 4 AS Q FROM People WHERE Id = 1");
  EXPECT_EQ(div.at(0, 0).double_value(), 8.5);
}

TEST_F(SqlTest, DivisionByZeroYieldsNull) {
  Rowset r = Must("SELECT Age / 0 AS Q FROM People WHERE Id = 1");
  EXPECT_TRUE(r.at(0, 0).is_null());
}

TEST_F(SqlTest, OrderByMultipleKeysAndDirections) {
  Rowset r = Must("SELECT Name FROM People ORDER BY Age ASC, Name DESC");
  ASSERT_EQ(r.num_rows(), 4u);
  EXPECT_EQ(r.at(0, 0).text_value(), "Dee");  // 28, 'Dee' > 'Bob'
  EXPECT_EQ(r.at(1, 0).text_value(), "Bob");
  EXPECT_EQ(r.at(3, 0).text_value(), "Cid");
}

TEST_F(SqlTest, OrderByProjectionAlias) {
  Rowset r = Must("SELECT Id, Age * -1 AS NegAge FROM People ORDER BY NegAge");
  EXPECT_EQ(r.at(0, 0).long_value(), 3);  // oldest first
}

TEST_F(SqlTest, TopAppliesAfterOrdering) {
  Rowset r = Must("SELECT TOP 2 Name FROM People ORDER BY Age DESC");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.at(0, 0).text_value(), "Cid");
  EXPECT_EQ(r.at(1, 0).text_value(), "Ann");
}

// ORDER BY sorts a permutation of row indices and reads rows through it. The
// Ties table has repeated keys in no particular order; Seq is the input
// position, so a stable sort keeps Seq ascending within each key.
class OrderByTest : public SqlTest {
 protected:
  void SetUp() override {
    SqlTest::SetUp();
    Must("CREATE TABLE Ties (K LONG, Seq LONG)");
    Must(R"(INSERT INTO Ties VALUES
        (2, 0), (1, 1), (2, 2), (1, 3), (3, 4), (1, 5), (2, 6))");
    Must("CREATE TABLE Groups (K LONG, Grp TEXT)");
    Must("INSERT INTO Groups VALUES (1, 'x'), (2, 'x'), (3, 'y')");
  }

  // The first column of every row, as longs.
  std::vector<int64_t> Column0(const std::string& sql) {
    std::vector<int64_t> out;
    Rowset r = Must(sql);
    for (const Row& row : r.rows()) out.push_back(row[0].long_value());
    return out;
  }
};

using Longs = std::vector<int64_t>;

TEST_F(OrderByTest, TiesKeepInputOrderOnABorrowedScan) {
  EXPECT_EQ(Column0("SELECT Seq FROM Ties ORDER BY K"),
            (Longs{1, 3, 5, 0, 2, 6, 4}));
}

TEST_F(OrderByTest, ManyTiesKeepInputOrder) {
  // Enough rows that an unstable sort would reorder ties (small inputs are
  // insertion-sorted, which is stable by accident).
  Must("CREATE TABLE Many (K LONG, Seq LONG)");
  std::string insert = "INSERT INTO Many VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string((i * 7) % 5) + ", " + std::to_string(i) +
              ")";
  }
  Must(insert);
  Rowset r = Must("SELECT K, Seq FROM Many ORDER BY K DESC");
  ASSERT_EQ(r.num_rows(), 200u);
  for (size_t i = 1; i < r.num_rows(); ++i) {
    const int64_t k0 = r.at(i - 1, 0).long_value();
    const int64_t k1 = r.at(i, 0).long_value();
    ASSERT_GE(k0, k1) << "row " << i;
    if (k0 == k1) {
      EXPECT_LT(r.at(i - 1, 1).long_value(), r.at(i, 1).long_value())
          << "row " << i;
    }
  }
}

TEST_F(OrderByTest, TiesKeepInputOrderAfterWhere) {
  // The sort permutes the WHERE's selection vector, not the table.
  EXPECT_EQ(Column0("SELECT Seq FROM Ties WHERE Seq <> 3 ORDER BY K"),
            (Longs{1, 5, 0, 2, 6, 4}));
  EXPECT_EQ(Column0("SELECT Seq FROM Ties WHERE K = 1 ORDER BY Seq DESC"),
            (Longs{5, 3, 1}));
}

TEST_F(OrderByTest, TiesKeepInputOrderAfterJoin) {
  // Joined rows are owned and arrive in probe (left) order.
  EXPECT_EQ(Column0("SELECT t.Seq FROM Ties t INNER JOIN Groups g "
                    "ON t.K = g.K ORDER BY g.Grp"),
            (Longs{0, 1, 2, 3, 5, 6, 4}));
  EXPECT_EQ(Column0("SELECT t.Seq FROM Ties t INNER JOIN Groups g "
                    "ON t.K = g.K WHERE t.Seq > 0 ORDER BY g.Grp DESC"),
            (Longs{4, 1, 2, 3, 5, 6}));
}

TEST_F(OrderByTest, MultipleKeysWithMixedDirections) {
  EXPECT_EQ(Column0("SELECT Seq FROM Ties ORDER BY K DESC, Seq ASC"),
            (Longs{4, 0, 2, 6, 1, 3, 5}));
  EXPECT_EQ(Column0("SELECT Seq FROM Ties ORDER BY K ASC, Seq DESC"),
            (Longs{5, 3, 1, 6, 2, 0, 4}));
  Rowset r = Must("SELECT K, Seq FROM Ties ORDER BY K * -1, Seq DESC");
  ASSERT_EQ(r.num_rows(), 7u);
  EXPECT_EQ(r.at(0, 0).long_value(), 3);
  EXPECT_EQ(r.at(1, 1).long_value(), 6);
  EXPECT_EQ(r.at(6, 1).long_value(), 1);
}

TEST_F(OrderByTest, TopAppliesAfterTheSort) {
  EXPECT_EQ(Column0("SELECT TOP 3 Seq FROM Ties ORDER BY K DESC, Seq"),
            (Longs{4, 0, 2}));
  EXPECT_EQ(Column0("SELECT TOP 2 Seq FROM Ties WHERE K <> 3 ORDER BY K"),
            (Longs{1, 3}));
}

TEST_F(OrderByTest, AlreadySortedAndReverseSortedInput) {
  EXPECT_EQ(Column0("SELECT Seq FROM Ties ORDER BY Seq"),
            (Longs{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(Column0("SELECT Seq FROM Ties ORDER BY Seq DESC"),
            (Longs{6, 5, 4, 3, 2, 1, 0}));
  // Sorting the reversed order back: a table inserted in descending order.
  Must("CREATE TABLE Reversed (N LONG)");
  Must("INSERT INTO Reversed VALUES (5), (4), (3), (2), (1)");
  EXPECT_EQ(Column0("SELECT N FROM Reversed ORDER BY N"),
            (Longs{1, 2, 3, 4, 5}));
  EXPECT_EQ(Column0("SELECT N FROM Reversed ORDER BY N DESC"),
            (Longs{5, 4, 3, 2, 1}));
}

// LONG keys past 2^53, where neighbours share one double, sort exactly.
TEST_F(OrderByTest, LongKeysPast2To53SortExactly) {
  Must("CREATE TABLE B (K LONG)");
  Must("INSERT INTO B VALUES (9007199254740993), (9007199254740992)");
  EXPECT_EQ(Column0("SELECT [K] FROM B ORDER BY [K]"),
            (Longs{9007199254740992, 9007199254740993}));
  EXPECT_EQ(Column0("SELECT [K] FROM B ORDER BY [K] DESC"),
            (Longs{9007199254740993, 9007199254740992}));
}

// A LONG compared with a DOUBLE compares as doubles, matching equality.
TEST_F(OrderByTest, MixedLongAndDoubleCompareAsDoubles) {
  Must("CREATE TABLE Mixed (K LONG, D DOUBLE)");
  Must("INSERT INTO Mixed VALUES (3, 2.5), (1, 3.0), (2, 0.5)");
  EXPECT_EQ(Column0("SELECT K FROM Mixed ORDER BY D"), (Longs{2, 3, 1}));
  EXPECT_EQ(Column0("SELECT K FROM Mixed WHERE K < D ORDER BY K"),
            (Longs{1}));
  EXPECT_EQ(Column0("SELECT K FROM Mixed WHERE K = D ORDER BY K"), Longs{});
  Must("INSERT INTO Mixed VALUES (9007199254740993, 9007199254740992.0)");
  EXPECT_EQ(Column0("SELECT K FROM Mixed WHERE K >= D ORDER BY K DESC"),
            (Longs{9007199254740993, 3, 2}));
  EXPECT_EQ(Column0("SELECT K FROM Mixed WHERE K <= D ORDER BY K DESC"),
            (Longs{9007199254740993, 1}));
}

TEST_F(OrderByTest, FailingSortKeyFailsTheStatement) {
  // Arithmetic on a TEXT column fails in the evaluator; the ORDER BY must
  // surface that very status rather than sort on a partial key.
  Status evaluator = Fails("SELECT Name * 2 FROM People");
  Status sorted = Fails("SELECT Id FROM People ORDER BY Name * 2");
  EXPECT_EQ(sorted.code(), evaluator.code());
  EXPECT_EQ(sorted.message(), evaluator.message());
  Status filtered =
      Fails("SELECT Id FROM People WHERE Age > 30 ORDER BY Name * 2");
  EXPECT_EQ(filtered.code(), evaluator.code());
  EXPECT_EQ(filtered.message(), evaluator.message());
  // Every row's key is evaluated, so a single row fails too, although it
  // needs no comparison.
  Status one_row =
      Fails("SELECT Id FROM People WHERE Id = 1 ORDER BY Name * 2");
  EXPECT_EQ(one_row.code(), evaluator.code());
  EXPECT_EQ(one_row.message(), evaluator.message());
}

TEST_F(OrderByTest, SortTripsTheWorkingSetBudget) {
  ExecLimits limits;
  limits.max_working_set_rows = 3;
  auto run = [&](const std::string& sql) {
    ExecGuard guard(limits);
    ExecGuardScope scope(&guard);
    return ExecuteSql(&db_, sql).status();
  };
  // A plain scan borrows the table; sorting it counts as holding it.
  EXPECT_TRUE(run("SELECT Id FROM People").ok());
  EXPECT_TRUE(run("SELECT Id FROM People ORDER BY Age").IsResourceExhausted());
  EXPECT_TRUE(run("SELECT Id FROM People WHERE Id > 0 ORDER BY Age")
                  .IsResourceExhausted());
  EXPECT_TRUE(run("SELECT Id FROM People WHERE Id > 2 ORDER BY Age").ok());
}

TEST_F(SqlTest, InnerJoinMatchesAndDropsDangling) {
  Rowset r = Must(R"(
      SELECT p.Name, t.Pet FROM People p
      INNER JOIN Pets t ON p.Id = t.Owner
      ORDER BY p.Name, t.Pet)");
  ASSERT_EQ(r.num_rows(), 3u);  // owner 9 has no person; Bob/Dee have no pets
  EXPECT_EQ(r.at(0, 0).text_value(), "Ann");
  EXPECT_EQ(r.at(0, 1).text_value(), "cat");
  EXPECT_EQ(r.at(2, 0).text_value(), "Cid");
}

TEST_F(SqlTest, JoinWithResidualCondition) {
  Rowset r = Must(R"(
      SELECT p.Name, t.Pet FROM People p
      INNER JOIN Pets t ON p.Id = t.Owner AND p.Age > 40)");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.at(0, 0).text_value(), "Cid");
}

TEST_F(SqlTest, NonEquiJoinFallsBackToNestedLoop) {
  Rowset r = Must(R"(
      SELECT p.Id, t.Owner FROM People p
      INNER JOIN Pets t ON p.Id < t.Owner AND t.Owner = 9)");
  EXPECT_EQ(r.num_rows(), 4u);
}

TEST_F(SqlTest, JoinChainOfThreeTables) {
  Must("CREATE TABLE Cities (City TEXT, Country TEXT)");
  Must("INSERT INTO Cities VALUES ('Oslo', 'NO'), ('Rome', 'IT')");
  Rowset r = Must(R"(
      SELECT p.Name, c.Country, t.Pet FROM People p
      INNER JOIN Cities c ON p.City = c.City
      INNER JOIN Pets t ON p.Id = t.Owner
      ORDER BY p.Name)");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.at(0, 1).text_value(), "NO");
}

TEST_F(SqlTest, DuplicateColumnNamesGetQualified) {
  Rowset r = Must(R"(
      SELECT * FROM People p INNER JOIN Pets t ON p.Id = t.Owner)");
  // All column names stay unique.
  std::set<std::string> names;
  for (const ColumnDef& col : r.schema()->columns()) {
    EXPECT_TRUE(names.insert(ToLower(col.name)).second) << col.name;
  }
}

TEST_F(SqlTest, NullSemantics) {
  Must("CREATE TABLE N (A LONG, B LONG)");
  Must("INSERT INTO N (A) VALUES (1)");  // B left NULL
  EXPECT_EQ(Must("SELECT A FROM N WHERE B = 0").num_rows(), 0u);
  EXPECT_EQ(Must("SELECT A FROM N WHERE B <> 0").num_rows(), 0u);
  EXPECT_EQ(Must("SELECT A FROM N WHERE B IS NULL").num_rows(), 1u);
  EXPECT_EQ(Must("SELECT A FROM N WHERE B IS NOT NULL").num_rows(), 0u);
  EXPECT_EQ(Must("SELECT A FROM N WHERE A IS NOT NULL").num_rows(), 1u);
  // NULL never equi-joins.
  Must("CREATE TABLE M (B LONG)");
  Must("INSERT INTO M (B) VALUES (0)");
  EXPECT_EQ(Must("SELECT * FROM N INNER JOIN M ON N.B = M.B").num_rows(), 0u);
}

TEST_F(SqlTest, InsertWithColumnListAndCoercion) {
  Must("CREATE TABLE C (A DOUBLE, B TEXT)");
  Must("INSERT INTO C (B, A) VALUES ('x', 3)");  // 3 coerces LONG->DOUBLE
  Rowset r = Must("SELECT A, B FROM C");
  EXPECT_TRUE(r.at(0, 0).is_double());
  EXPECT_EQ(r.at(0, 0).double_value(), 3.0);
}

TEST_F(SqlTest, DeleteWithAndWithoutWhere) {
  Must("DELETE FROM Pets WHERE Owner = 1");
  EXPECT_EQ(Must("SELECT * FROM Pets").num_rows(), 2u);
  Must("DELETE FROM Pets");
  EXPECT_EQ(Must("SELECT * FROM Pets").num_rows(), 0u);
}

// A tripped guard stops a bulk table write before it mutates anything, and
// stops snapshot serialization with the guard's status.
TEST_F(SqlTest, GuardTripLeavesTableUntouched) {
  auto table = db_.GetTable("Pets");
  ASSERT_TRUE(table.ok());
  const std::string before =
      ToCsvString(*(*table)->schema(), (*table)->rows());
  ExecLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  limits.cancel->Cancel();
  ExecGuard guard(limits);
  {
    ExecGuardScope scope(&guard);
    std::vector<Row> rows = {{Value::Long(5), Value::Text("yak")}};
    EXPECT_TRUE((*table)->ReplaceAll(rows).IsCancelled());
    EXPECT_TRUE((*table)->InsertAll(rows).IsCancelled());
    EXPECT_TRUE(ToCsvStringGuarded(*(*table)->schema(), (*table)->rows())
                    .status()
                    .IsCancelled());
  }
  EXPECT_EQ(ToCsvString(*(*table)->schema(), (*table)->rows()), before);
  auto csv = ToCsvStringGuarded(*(*table)->schema(), (*table)->rows());
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(*csv, before);
}

TEST_F(SqlTest, DropTable) {
  Must("DROP TABLE Pets");
  EXPECT_TRUE(Fails("SELECT * FROM Pets").IsNotFound());
  EXPECT_TRUE(Fails("DROP TABLE Pets").IsNotFound());
}

TEST_F(SqlTest, ErrorPaths) {
  EXPECT_TRUE(Fails("SELECT Nope FROM People").IsBindError());
  EXPECT_TRUE(Fails("SELECT * FROM Nowhere").IsNotFound());
  EXPECT_TRUE(Fails("SELECT FROM People").IsParseError());
  EXPECT_TRUE(Fails("FLY ME TO THE MOON").IsParseError());
  EXPECT_TRUE(Fails("CREATE TABLE People (X LONG)").code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(Fails("INSERT INTO People VALUES (1)").ok() == false);
  // A VALUES row has no row scope: column references bind-fail cleanly
  // instead of reaching the evaluator unbound (fuzz finding; the reproducer
  // lives in fuzz/regressions/dmx_statement/insert-values-column-ref).
  EXPECT_TRUE(Fails("INSERT INTO People VALUES (5, Age, 30, 'Bern')")
                  .IsBindError());
  // Multi-row INSERT is atomic: a coercion failure in any row (here 'x' in
  // the LONG Age column of the second row) leaves the table untouched —
  // partial effects of failed statements would diverge from WAL recovery
  // (fuzz finding: fuzz/regressions/store_recovery/partial-insert-leak).
  EXPECT_FALSE(Fails("INSERT INTO People VALUES "
                     "(5, 'Eve', 30, 'Bern'), (6, 'Fay', 'x', 'Rome')")
                   .ok());
  EXPECT_EQ(Must("SELECT * FROM People").num_rows(), 4u);
  // Ambiguous unqualified column across joined tables.
  Must("CREATE TABLE People2 (Id LONG)");
  Must("INSERT INTO People2 VALUES (1)");
  EXPECT_TRUE(
      Fails("SELECT Id FROM People INNER JOIN People2 ON People.Id = "
            "People2.Id")
          .IsBindError());
}

TEST_F(SqlTest, BaseTablesRejectTableColumns) {
  auto nested = Schema::Make({{"K", DataType::kLong}});
  auto schema = Schema::Make({{"Id", DataType::kLong}, ColumnDef("T", nested)});
  EXPECT_FALSE(db_.CreateTable("Bad", schema).ok());
}

TEST_F(SqlTest, ParserRoundTripsExpressions) {
  // Print -> reparse -> print is a fixpoint.
  const char* exprs[] = {
      "(a = 1)", "((a + b) * 2)", "(NOT (x) OR (y < 3.5))",
      "(name = 'O''Brien')", "col IS NOT NULL",
  };
  for (const char* text : exprs) {
    auto tokens1 = Tokenize(text);
    ASSERT_TRUE(tokens1.ok());
    TokenStream ts1(std::move(tokens1).value());
    auto e1 = ParseExpression(&ts1);
    ASSERT_TRUE(e1.ok()) << text;
    std::string printed = (*e1)->ToString();
    auto tokens2 = Tokenize(printed);
    ASSERT_TRUE(tokens2.ok());
    TokenStream ts2(std::move(tokens2).value());
    auto e2 = ParseExpression(&ts2);
    ASSERT_TRUE(e2.ok()) << printed;
    EXPECT_EQ((*e2)->ToString(), printed);
  }
}

TEST_F(SqlTest, CsvRoundTrip) {
  std::string path = ::testing::TempDir() + "/sql_test_people.csv";
  auto table = db_.GetTable("People");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(SaveCsv(**table, path).ok());
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 4u);
  EXPECT_EQ(loaded->schema()->column(1).type, DataType::kText);
  EXPECT_EQ(loaded->schema()->column(2).type, DataType::kLong);
  EXPECT_TRUE(loaded->Get(0, "Name")->Equals(Value::Text("Ann")));
  std::remove(path.c_str());
}

TEST_F(SqlTest, CsvQuotingAndNulls) {
  Must("CREATE TABLE Q (A TEXT, B LONG)");
  Must("INSERT INTO Q (A) VALUES ('comma, quote \" and more')");
  std::string path = ::testing::TempDir() + "/sql_test_quoted.csv";
  auto table = db_.GetTable("Q");
  ASSERT_TRUE(SaveCsv(**table, path).ok());
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_rows(), 1u);
  // Commas and quotes survive the round trip; the empty LONG reloads as NULL.
  EXPECT_EQ(loaded->Get(0, "A")->ToString(), "comma, quote \" and more");
  EXPECT_TRUE(loaded->Get(0, "B")->is_null());
  std::remove(path.c_str());
}

TEST_F(SqlTest, CsvNewlinesAndEmptyStringsRoundTrip) {
  auto schema = Schema::Make(
      {ColumnDef("A", DataType::kText), ColumnDef("B", DataType::kText)});
  std::vector<Row> rows;
  rows.push_back({Value::Text("line one\nline two"), Value::Text("")});
  rows.push_back({Value::Text("with \"quotes\"\r\nand a CRLF"), Value::Null()});
  std::string csv = ToCsvString(*schema, rows);

  auto loaded = ParseCsvString(csv, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), 2u);
  // Embedded newlines survive: the quoted field spans CSV lines.
  EXPECT_TRUE(loaded->Get(0, "A")->Equals(Value::Text("line one\nline two")));
  EXPECT_TRUE(
      loaded->Get(1, "A")->Equals(Value::Text("with \"quotes\"\r\nand a CRLF")));
  // Empty string round-trips as "" while NULL stays NULL.
  EXPECT_TRUE(loaded->Get(0, "B")->Equals(Value::Text("")));
  EXPECT_TRUE(loaded->Get(1, "B")->is_null());

  // Type inference sees the quoted empty cell as a text value, not a gap.
  auto inferred = ParseCsvString(csv);
  ASSERT_TRUE(inferred.ok());
  EXPECT_EQ(inferred->schema()->column(1).type, DataType::kText);
  EXPECT_TRUE(inferred->Get(0, "B")->Equals(Value::Text("")));
  EXPECT_TRUE(inferred->Get(1, "B")->is_null());
}

TEST_F(SqlTest, DeepParenNestingFailsCleanly) {
  // 200 nested parens exceeds TokenStream::kMaxRecursionDepth: the parser
  // must reject with kInvalidArgument instead of overflowing the stack.
  std::string sql = "SELECT ";
  for (int i = 0; i < 200; ++i) sql += '(';
  sql += '1';
  for (int i = 0; i < 200; ++i) sql += ')';
  sql += " FROM People";
  Status deep = Fails(sql);
  EXPECT_EQ(deep.code(), StatusCode::kInvalidArgument) << deep.ToString();
  EXPECT_NE(deep.message().find("nests more than"), std::string::npos)
      << deep.ToString();

  // Nesting at half the cap still parses: the limit only bites absurd depth.
  std::string ok = "SELECT ";
  for (int i = 0; i < 50; ++i) ok += '(';
  ok += '1';
  for (int i = 0; i < 50; ++i) ok += ')';
  ok += " FROM People";
  EXPECT_EQ(Must(ok).num_rows(), 4u);
}

TEST_F(SqlTest, CsvTypeInference) {
  std::string path = ::testing::TempDir() + "/sql_test_infer.csv";
  {
    std::ofstream out(path);
    out << "a,b,c\n1,1.5,x\n2,,y\n";
  }
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->schema()->column(0).type, DataType::kLong);
  EXPECT_EQ(loaded->schema()->column(1).type, DataType::kDouble);
  EXPECT_EQ(loaded->schema()->column(2).type, DataType::kText);
  EXPECT_TRUE(loaded->at(1, 1).is_null());  // empty cell -> NULL
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmx::rel
