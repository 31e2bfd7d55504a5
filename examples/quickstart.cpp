// Quickstart: build a tiny database, define fine-grained access control
// policies, and query through the session API — prepare once, execute
// many times with bound parameters.
//
//   $ ./example_quickstart

#include <cstdio>

#include "engine/database.h"
#include "sieve/middleware.h"
#include "sieve/session.h"

using namespace sieve;  // NOLINT — example brevity

int main() {
  // 1. An embedded database with one sensor table and secondary indexes.
  Database db(EngineProfile::MySqlLike());
  Schema schema({{"id", DataType::kInt},
                 {"wifiAP", DataType::kInt},
                 {"owner", DataType::kInt},
                 {"ts_time", DataType::kTime},
                 {"ts_date", DataType::kDate}});
  if (!db.CreateTable("WiFi_Dataset", std::move(schema)).ok()) return 1;

  int64_t day0 = Value::ParseDate("2019-09-25")->raw();
  int64_t id = 0;
  for (int owner = 0; owner < 20; ++owner) {
    for (int hour = 7; hour < 20; ++hour) {
      Row row{Value::Int(id++), Value::Int(owner % 4), Value::Int(owner),
              Value::Time(hour * 3600), Value::Date(day0 + owner % 7)};
      (void)db.Insert("WiFi_Dataset", std::move(row));
    }
  }
  for (const char* col : {"owner", "wifiAP", "ts_time", "ts_date"}) {
    (void)db.CreateIndex("WiFi_Dataset", col);
  }
  (void)db.Analyze();

  // 2. Group memberships used by querier conditions.
  MapGroupResolver groups;
  groups.AddMembership("prof_smith", "faculty");

  // 3. The middleware: policy tables, guard tables, Δ UDF.
  SieveMiddleware sieve(&db, &groups);
  if (!sieve.Init().ok()) return 1;

  // 4. John (owner 3) lets Prof. Smith see his data in the classroom
  //    (AP 3) between 09:00 and 10:00, for attendance control.
  Policy john;
  john.table_name = "WiFi_Dataset";
  john.owner = Value::Int(3);
  john.querier = "prof_smith";
  john.purpose = "Attendance";
  john.object_conditions = {
      ObjectCondition::Eq("owner", Value::Int(3)),
      ObjectCondition::Range("ts_time", Value::Time(9 * 3600),
                             Value::Time(10 * 3600)),
      ObjectCondition::Eq("wifiAP", Value::Int(3)),
  };
  (void)sieve.AddPolicy(john);

  // Mary (owner 7) shares everything with the faculty group.
  Policy mary;
  mary.table_name = "WiFi_Dataset";
  mary.owner = Value::Int(7);
  mary.querier = "faculty";
  mary.purpose = "any";
  mary.object_conditions = {ObjectCondition::Eq("owner", Value::Int(7))};
  (void)sieve.AddPolicy(mary);

  // 5. Prof. Smith opens a session (one per querier/connection) and
  //    prepares the query ONCE: it is parsed and rewritten against the
  //    professor's policies here, and the rewrite is cached. The `?` is a
  //    parameter slot bound at execute time.
  SieveSession session(&sieve, {"prof_smith", "Attendance"});
  const char* sql =
      "SELECT * FROM WiFi_Dataset AS W WHERE W.ts_date >= ?";
  auto prepared = session.Prepare(sql);
  if (!prepared.ok()) {
    std::printf("prepare failed: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("-- original query --\n%s\n\n-- rewritten by Sieve (once, at "
              "Prepare) --\n%s\n\n",
              sql, prepared->rewrite()->rewritten_sql.c_str());
  for (const auto& info : prepared->rewrite()->tables) {
    std::printf("-- strategy: %s\n", info.ToString().c_str());
  }

  // 6. Execute MANY times with different bindings: no re-parse, no
  //    re-rewrite, no guard selection — just bind and run.
  for (const char* day : {"2019-09-25", "2019-09-27"}) {
    auto result = prepared->Execute({Value::String(day)});
    if (!result.ok()) {
      std::printf("execution failed: %s\n",
                  result.status().ToString().c_str());
      return 1;
    }
    std::printf("\n-- ts_date >= %s: %zu rows (policies restrict to John "
                "9-10am @AP3 and all of Mary) --\n%s",
                day, result->size(), result->ToString(5).c_str());
  }

  // 7. Large results can stream in chunks instead of materializing.
  auto cursor = prepared->OpenCursor({Value::String("2019-09-25")});
  if (cursor.ok()) {
    std::vector<Row> batch;
    size_t batches = 0, rows = 0;
    while (true) {
      auto more = cursor->Next(&batch, /*max_rows=*/8);
      if (!more.ok() || !*more) break;
      ++batches;
      rows += batch.size();
      batch.clear();
    }
    std::printf("\n-- cursor streamed %zu rows in %zu batches of <= 8 --\n",
                rows, batches);
  }

  // 8. AddPolicy bumps the version counter of the grant it adds, which the
  //    prepared query's rewrite read: the snapshot is stale, so the query
  //    transparently re-prepares on its next execute and the new policy
  //    applies immediately.
  Policy john_afternoon = john;
  john_afternoon.object_conditions[1] = ObjectCondition::Range(
      "ts_time", Value::Time(14 * 3600), Value::Time(16 * 3600));
  (void)sieve.AddPolicy(john_afternoon);
  auto after = prepared->Execute({Value::String("2019-09-25")});
  std::printf("\n-- after AddPolicy (epoch %llu, snapshot refreshed): %zu "
              "rows --\n",
              static_cast<unsigned long long>(sieve.policy_epoch()),
              after.ok() ? after->size() : 0);

  // An unknown querier gets nothing: default deny. (The one-shot
  // SieveMiddleware::Execute facade still works — it is a temporary
  // session under the hood.)
  auto denied = sieve.Execute("SELECT * FROM WiFi_Dataset AS W",
                              {"eve", "Attendance"});
  std::printf("-- eve (no policies) sees %zu rows --\n",
              denied.ok() ? denied->size() : 0);
  return 0;
}
