// Load generator of the repository benchmark (see perfbench/README.md).
//
// One process builds a 4-segment in-process cluster, runs one workload as
// a closed loop for a fixed number of seconds, checks every answer, and
// writes raw observations as JSON lines to --out. perfbench/run.py turns
// those lines into the benchmark's metrics; all percentile and self-time
// arithmetic lives there, next to its self-tests.
//
// It reaches the engine only through its public headers. The
// traced run re-composes Session::Execute for SELECTs from the same
// public calls (admission, transaction, parse, analyze, lock, plan,
// dispatch with an obs::QueryTrace, commit, query log) so each layer can
// be timed from here without any change to the engine.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/cluster.h"
#include "engine/session.h"
#include "obs/trace.h"
#include "planner/planner.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "stinger/stinger.h"
#include "storage/codec.h"
#include "storage/format.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_loader.h"
#include "tpch/tpch_queries.h"

namespace hawq::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using engine::Cluster;
using engine::QueryResult;
using engine::Session;

constexpr double kSf = 0.02;
constexpr int kSegments = 4;
// Set-up repeats per run (setup_s is their median). The ingest set-up is a
// cluster start and one DDL, milliseconds long, so it repeats more.
constexpr int kSetupReps = 3;
constexpr int kIngestSetupReps = 15;
constexpr int kShortClients = 4;
constexpr int kIngestRows = 200;
// ingest_read runs a fixed number of INSERT + read rounds per second of
// --seconds instead of a fixed time: read cost grows with the table, so
// under a fixed time a faster INSERT path would make reads look slower.
constexpr int kIngestRoundsPerSecond = 75;
constexpr const char* kCoQuicklz =
    "WITH (orientation=column, compresstype=quicklz)";
// The seed whose warm-up answers are pinned by perfbench/goldens.txt.
constexpr uint64_t kGoldenSeed = 1;
// Q15 compares two separately computed double sums for equality. Their
// summation order follows interconnect arrival order, so the last bits
// differ between runs and the query intermittently returns no row. The
// power pass runs the other 21 queries; the traced run measures how often
// Q15 comes back empty (tpch.q15_empty_ratio) so the defect stays visible.
constexpr int kNondeterministicQuery = 15;
constexpr int kQ15Probes = 30;
// Q22 has no golden: the Stinger engine binds scalar subqueries only at
// the top level of a query, and Q22's sits inside a derived table, so
// Stinger compares against NULL and returns no rows where HAWQ returns
// seven. Q22 is still checked run against run like every other query.
constexpr int kNoGoldenQuery = 22;
constexpr size_t kGoldenCount = 20;

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
double Secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ JSON output

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      o += buf;
    } else {
      o += ch;
    }
  }
  return o + "\"";
}

/// Builds one flat JSON object; values are pre-rendered JSON.
class Obj {
 public:
  Obj& Raw(const std::string& k, const std::string& v) {
    s_ += (s_.empty() ? "{" : ",") + Str(k) + ":" + v;
    return *this;
  }
  Obj& N(const std::string& k, double v) { return Raw(k, Num(v)); }
  Obj& S(const std::string& k, const std::string& v) { return Raw(k, Str(v)); }
  Obj& B(const std::string& k, bool v) { return Raw(k, v ? "true" : "false"); }
  std::string Done() const { return s_.empty() ? "{}" : s_ + "}"; }

 private:
  std::string s_;
};

std::string Arr(const std::vector<double>& v) {
  std::string o = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) o += ',';
    o += Num(v[i]);
  }
  return o + "]";
}

class Out {
 public:
  explicit Out(const std::string& path) : f_(std::fopen(path.c_str(), "w")) {}
  ~Out() {
    if (f_ != nullptr) std::fclose(f_);
  }
  Out(const Out&) = delete;
  Out& operator=(const Out&) = delete;
  bool ok() const { return f_ != nullptr; }
  void Line(const std::string& json) {
    std::lock_guard<std::mutex> g(mu_);
    std::fputs(json.c_str(), f_);
    std::fputc('\n', f_);
    std::fflush(f_);
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    Line(Obj().S("t", "check").S("name", name).B("ok", ok)
             .S("detail", detail).Done());
  }

 private:
  std::mutex mu_;
  FILE* f_;
};

// -------------------------------------------------------- process probes

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t MapCount() {
  std::ifstream in("/proc/self/maps");
  int64_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

/// Busy and stolen jiffies of the whole machine from /proc/stat. On a
/// virtual machine the hypervisor's steal time is the main source of
/// run-to-run noise, so each phase reports the share stolen.
struct CpuTimes {
  double busy = 0, steal = 0;
};
CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >> steal;
  return {user + nice + sys + irq + softirq, steal};
}

// ------------------------------------------------------------- CSV bytes

/// Bytes of `row` rendered as one CSV line: fields joined by ',', dates as
/// YYYY-MM-DD, doubles in shortest round form ("%.15g"), NULL as the empty
/// field, '\n' terminated. Strings are
/// written bare: the generated data holds no commas or quotes, and the
/// ingest notes are alphanumeric. This is the denominator of
/// stored_bytes_per_input_byte.
uint64_t CsvBytes(const Schema& schema, const Row& row) {
  uint64_t n = 0;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) ++n;
    const Datum& d = row[i];
    if (d.is_null()) continue;
    if (i < schema.num_fields() && schema.field(i).type == TypeId::kDate) {
      n += DateToString(d.i64).size();
    } else if (d.kind == Datum::Kind::kDouble) {
      char buf[40];
      n += static_cast<uint64_t>(
          std::snprintf(buf, sizeof(buf), "%.15g", d.f64));
    } else {
      n += d.ToString().size();
    }
  }
  return n + 1;
}

// --------------------------------------------------------- cluster setup

engine::ClusterOptions ClusterOpts(const std::string& data_dir) {
  engine::ClusterOptions o;
  o.num_segments = kSegments;
  o.fabric = engine::FabricKind::kUdp;
  o.fault_detector_thread = false;
  o.data_dir = data_dir;
  return o;
}

uint64_t GenSeed(uint64_t seed) {
  // splitmix64: distinct workload seeds give unrelated TPC-H data.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const std::vector<std::string>& TpchTables() {
  static const std::vector<std::string> t = {
      "region", "nation", "supplier", "customer",
      "part",   "partsupp", "orders", "lineitem"};
  return t;
}

struct SetupTimes {
  double total_s = 0, load_s = 0, analyze_s = 0;
};

/// Cluster start + DDL + generate + load + ANALYZE of the TPC-H tables.
Result<std::unique_ptr<Cluster>> SetupTpch(uint64_t seed, SetupTimes* t) {
  auto t0 = Clock::now();
  auto c = std::make_unique<Cluster>(ClusterOpts(""));
  auto t1 = Clock::now();
  tpch::LoadOptions lo;
  lo.gen.sf = kSf;
  lo.gen.seed = GenSeed(seed);
  lo.with_options = kCoQuicklz;
  lo.analyze = false;
  HAWQ_RETURN_IF_ERROR(tpch::LoadTpch(c.get(), lo));
  auto t2 = Clock::now();
  {
    auto s = c->Connect();
    for (const std::string& tab : TpchTables()) {
      HAWQ_RETURN_IF_ERROR(s->Execute("ANALYZE " + tab).status());
    }
  }
  auto t3 = Clock::now();
  t->total_s = Secs(t0, t3);
  t->load_s = Secs(t1, t2);
  t->analyze_s = Secs(t2, t3);
  return c;
}

const char* kIngestDdl =
    "CREATE TABLE ingest (id INT8, grp INT8, v DOUBLE, note TEXT) "
    "WITH (orientation=column, compresstype=quicklz) DISTRIBUTED BY (id)";

Schema IngestSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"grp", TypeId::kInt64, false},
                 {"v", TypeId::kDouble, false},
                 {"note", TypeId::kString, false}});
}

Row IngestRow(int64_t id) {
  return {Datum::Int(id), Datum::Int(id % 16), Datum::Double(0.5 * id),
          Datum::Str("n" + std::to_string(id % 1000))};
}

/// Cluster start + the ingest table DDL; with a `dir`, over a fresh
/// durable directory.
Result<std::unique_ptr<Cluster>> SetupIngest(const std::string& dir,
                                             SetupTimes* t) {
  if (!dir.empty()) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  auto t0 = Clock::now();
  auto c = std::make_unique<Cluster>(ClusterOpts(dir));
  {
    auto s = c->Connect();
    HAWQ_RETURN_IF_ERROR(s->Execute(kIngestDdl).status());
  }
  t->total_s = Secs(t0, Clock::now());
  return c;
}

// ----------------------------------------------------- catalog helpers

struct TableFiles {
  catalog::TableDesc desc;
  std::vector<catalog::SegFileDesc> files;
};

Result<TableFiles> GetTableFiles(Cluster* c, const std::string& name) {
  auto txn = c->tx_manager()->Begin();
  TableFiles tf;
  HAWQ_ASSIGN_OR_RETURN(tf.desc, c->catalog()->GetTable(txn.get(), name));
  HAWQ_ASSIGN_OR_RETURN(tf.files,
                        c->catalog()->GetSegFiles(txn.get(), tf.desc.oid));
  HAWQ_RETURN_IF_ERROR(c->tx_manager()->Commit(txn.get()));
  return tf;
}

/// One replica's HDFS bytes of a table (every file of every segment file).
Result<uint64_t> StoredBytes(Cluster* c, const std::string& name) {
  HAWQ_ASSIGN_OR_RETURN(TableFiles tf, GetTableFiles(c, name));
  uint64_t total = 0;
  for (const catalog::SegFileDesc& f : tf.files) {
    for (const std::string& p : storage::StorageFilePaths(
             f.path, tf.desc.storage, tf.desc.columns.size())) {
      if (!c->hdfs()->Exists(p)) continue;
      HAWQ_ASSIGN_OR_RETURN(uint64_t n, c->hdfs()->FileSize(p));
      total += n;
    }
  }
  return total;
}

// ---------------------------------------------------- TPC-H answer check

/// Order-normalized summary of a result: row count, a hash of the sorted
/// non-double parts of every row, and per-column sums of the double
/// columns (compared with a relative tolerance, since summation order
/// differs between plans).
struct Checksum {
  int64_t rows = 0;
  uint64_t hash = 0;
  std::vector<double> dsums;

  std::string ToJson() const {
    char h[32];
    std::snprintf(h, sizeof(h), "%016llx",
                  static_cast<unsigned long long>(hash));
    return Obj().N("rows", static_cast<double>(rows)).S("hash", h)
        .Raw("dsums", Arr(dsums)).Done();
  }
};

Checksum Summarize(const QueryResult& r) {
  Checksum c;
  c.rows = static_cast<int64_t>(r.rows.size());
  size_t ncols = r.schema.num_fields();
  c.dsums.assign(ncols, 0.0);
  std::vector<std::string> keys;
  keys.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string k;
    for (size_t i = 0; i < row.size() && i < ncols; ++i) {
      if (row[i].kind == Datum::Kind::kDouble) {
        c.dsums[i] += row[i].f64;
        k += "~";
      } else {
        k += row[i].ToString();
      }
      k += '\x1f';
    }
    keys.push_back(std::move(k));
  }
  std::sort(keys.begin(), keys.end());
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const std::string& k : keys) {
    for (char ch : k) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ULL;
    }
    h ^= '\n';
    h *= 1099511628211ULL;
  }
  c.hash = h;
  return c;
}

bool SameChecksum(const Checksum& a, const Checksum& b) {
  if (a.rows != b.rows || a.hash != b.hash ||
      a.dsums.size() != b.dsums.size()) {
    return false;
  }
  for (size_t i = 0; i < a.dsums.size(); ++i) {
    double tol = 1e-6 * std::max(std::abs(a.dsums[i]), 1.0);
    if (std::abs(a.dsums[i] - b.dsums[i]) > tol) return false;
  }
  return true;
}

/// Goldens file: one line per query, "<id> <rows> <hash> <dsum>...".
std::map<int, Checksum> ReadGoldens(const std::string& path) {
  std::map<int, Checksum> g;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    int id = 0;
    Checksum c;
    std::string hash;
    ss >> id >> c.rows >> hash;
    c.hash = std::stoull(hash, nullptr, 16);
    double d;
    while (ss >> d) c.dsums.push_back(d);
    g[id] = c;
  }
  return g;
}

std::string GoldenLine(int id, const Checksum& c) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%d %lld %016llx", id,
                static_cast<long long>(c.rows),
                static_cast<unsigned long long>(c.hash));
  std::string s = buf;
  for (double d : c.dsums) {
    std::snprintf(buf, sizeof(buf), " %.17g", d);
    s += buf;
  }
  return s;
}

// --------------------------------------------------- statement outcomes

/// Latencies of one statement class plus its failures.
struct ClassLat {
  std::vector<double> us;
  int64_t failed = 0;
  int64_t refused = 0;
};

struct Tally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> refused{0};
  std::atomic<int64_t> wrong{0};
};

// --------------------------------------------------------- traced path

/// Per-statement layer timings of the traced run. Times are microseconds
/// relative to the statement start on the client thread.
struct TracedStmt {
  bool e2e_only = true;
  double total = 0, parse = 0, analyze = 0, plan = 0, overhead = 0;
  double d0 = 0, d1 = 0, serialize = 0;
  double plan_bytes = 0, slices = 0, mem_peak = 0;
  std::string spans;  // [[slice,segment,start,end],...]
  std::string sends;  // [[slice,segment,dur],...]
  std::string nodes;  // [[node,segment,kind,parent,slice,total,rows,filtered],...]
};

bool HasScalarSubqueries(const sql::BoundQuery& q) {
  if (!q.scalar_subqueries.empty()) return true;
  for (const sql::BoundRel& rel : q.rels) {
    if (rel.derived && HasScalarSubqueries(*rel.derived)) return true;
  }
  return false;
}

void CollectOids(const sql::BoundQuery& q,
                 std::vector<catalog::TableOid>* oids) {
  for (const sql::BoundRel& rel : q.rels) {
    if (rel.kind == sql::BoundRel::Kind::kBase) {
      oids->push_back(rel.desc.oid);
    } else if (rel.derived) {
      CollectOids(*rel.derived, oids);
    }
  }
}

/// Runs `sql` through the public parts of Session::Execute, timing each.
/// Statements that are not plain SELECTs, or that need the session's
/// scalar-subquery binding, run through Session::Execute and are timed
/// end to end only.
Result<QueryResult> RunTraced(Cluster* c, Session* s, const std::string& sql,
                              TracedStmt* ts) {
  auto t0 = Clock::now();
  auto e2e = [&]() -> Result<QueryResult> {
    t0 = Clock::now();
    Result<QueryResult> r = s->Execute(sql);
    ts->e2e_only = true;
    ts->total = Us(t0, Clock::now());
    return r;
  };
  HAWQ_ASSIGN_OR_RETURN(auto probe, sql::Parse(sql));
  if (probe->kind != sql::Statement::Kind::kSelect) return e2e();
  t0 = Clock::now();  // the probe parse above is not part of the statement

  double overhead = 0;
  auto t_reg = Clock::now();
  const std::string& queue = c->admission()->default_queue();
  uint64_t token = c->options().enable_activity
                       ? c->activity()->Register(sql, queue)
                       : 0;
  auto ticket_or = c->admission()->Admit(queue);
  overhead += Us(t_reg, Clock::now());
  auto finish_activity = [&] {
    if (token != 0) c->activity()->Finish(token);
  };
  if (!ticket_or.ok()) {
    finish_activity();
    return ticket_or.status();
  }
  resource::AdmissionTicket ticket = std::move(*ticket_or);

  auto t_p = Clock::now();
  auto stmt_or = sql::Parse(sql);
  auto t_p_end = Clock::now();
  ts->parse = Us(t_p, t_p_end);

  auto t_b = Clock::now();
  auto txn = c->tx_manager()->Begin();
  overhead += Us(t_b, Clock::now());
  auto fail = [&](const Status& st) -> Status {
    c->tx_manager()->Abort(txn.get());
    finish_activity();
    ticket.Release();
    return st;
  };
  if (!stmt_or.ok()) return fail(stmt_or.status());

  auto t_a = Clock::now();
  auto bound_or = sql::Analyze(c->catalog(), txn.get(), *(*stmt_or)->select);
  ts->analyze = Us(t_a, Clock::now());
  if (!bound_or.ok()) return fail(bound_or.status());
  sql::BoundQuery* bound = bound_or->get();
  if (HasScalarSubqueries(*bound)) {
    (void)fail(Status::OK());
    return e2e();
  }
  auto t_l = Clock::now();
  std::vector<catalog::TableOid> oids;
  CollectOids(*bound, &oids);
  for (catalog::TableOid oid : oids) {
    Status st = c->tx_manager()->locks().Acquire(txn->xid(), oid,
                                                 tx::LockMode::kAccessShare);
    if (!st.ok()) return fail(st);
  }
  overhead += Us(t_l, Clock::now());

  auto t_pl = Clock::now();
  plan::Planner planner(c->catalog(), txn.get(), c->PlannerOptionsFor());
  auto plan_or = planner.PlanSelect(*bound);
  ts->plan = Us(t_pl, Clock::now());
  if (!plan_or.ok()) return fail(plan_or.status());
  const plan::PhysicalPlan& plan = *plan_or;

  uint64_t qid = c->NextQueryId();
  obs::QueryTrace trace(qid);
  engine::ExecResources res;
  res.mem = ticket.tracker();
  res.kill_on_exceed = ticket.kill_on_exceed();
  auto t_d = Clock::now();
  Result<QueryResult> r = c->dispatcher()->Execute(
      plan, qid, c->SegmentUpMask(), nullptr, &trace, res);
  auto t_d_end = Clock::now();
  ts->d0 = Us(t0, t_d);
  ts->d1 = Us(t0, t_d_end);

  auto t_c = Clock::now();
  Status end = r.ok() ? c->tx_manager()->Commit(txn.get())
                      : c->tx_manager()->Abort(txn.get());
  finish_activity();
  ticket.Release();
  obs::QueryRecord rec;
  rec.query_id = qid;
  rec.text = sql;
  rec.queue = queue;
  rec.status = r.ok() && end.ok() ? "ok" : "error";
  rec.rows = r.ok() ? static_cast<int64_t>(r->rows.size()) : 0;
  rec.peak_mem_bytes = ticket.peak_bytes();
  c->query_log()->Append(std::move(rec));
  auto t_end = Clock::now();
  overhead += Us(t_c, t_end);
  ts->total = Us(t0, t_end);
  ts->overhead = overhead;
  ts->e2e_only = false;
  ts->mem_peak = static_cast<double>(ticket.peak_bytes());
  if (!r.ok()) return r;
  if (!end.ok()) return end;

  // Outside the statement window: the plan serialize + compress the
  // dispatcher performs internally, timed on its own.
  auto t_s = Clock::now();
  std::string bytes = plan.Serialize();
  auto comp = storage::CodecCompress(catalog::Codec::kQuicklz, 1, bytes);
  ts->serialize = Us(t_s, Clock::now());
  ts->plan_bytes = static_cast<double>(r->plan_bytes_compressed);
  ts->slices = static_cast<double>(plan.slices.size());

  std::string spans = "[", sends = "[";
  for (const obs::Span& sp : trace.Spans()) {
    double st = Us(t0, sp.start), en = Us(t0, sp.end);
    if (sp.name == "slice") {
      spans += (spans.size() > 1 ? "," : "") + std::string("[") +
               std::to_string(sp.slice) + "," + std::to_string(sp.segment) +
               "," + Num(st) + "," + Num(en) + "]";
    } else if (sp.name == "motion.send") {
      sends += (sends.size() > 1 ? "," : "") + std::string("[") +
               std::to_string(sp.slice) + "," + std::to_string(sp.segment) +
               "," + Num(en - st) + "]";
    }
  }
  ts->spans = spans + "]";
  ts->sends = sends + "]";

  // Plan shape: node -> (kind, in-slice parent, slice).
  struct Shape {
    int kind, parent, slice;
  };
  std::map<int, Shape> shape;
  for (const plan::Slice& sl : plan.slices) {
    std::function<void(const plan::PlanNode&, int)> walk =
        [&](const plan::PlanNode& n, int parent) {
          if (n.node_id >= 0) {
            shape[n.node_id] = {static_cast<int>(n.kind), parent, sl.slice_id};
          }
          for (const auto& ch : n.children) walk(*ch, n.node_id);
        };
    if (sl.root) walk(*sl.root, -1);
  }
  std::string nodes = "[";
  for (const auto& [key, st] : trace.NodeStatsMap()) {
    auto it = shape.find(key.first);
    if (it == shape.end()) continue;
    nodes += (nodes.size() > 1 ? "," : "") + std::string("[") +
             std::to_string(key.first) + "," + std::to_string(key.second) +
             "," + std::to_string(it->second.kind) + "," +
             std::to_string(it->second.parent) + "," +
             std::to_string(it->second.slice) + "," +
             Num(static_cast<double>(st->TotalUs())) + "," +
             Num(static_cast<double>(st->rows.load())) + "," +
             Num(static_cast<double>(st->rows_filtered.load())) + "]";
  }
  ts->nodes = nodes + "]";
  return r;
}

std::string TracedJson(const std::string& cls, const TracedStmt& t,
                       bool ok) {
  Obj o;
  o.S("t", "ts").S("cls", cls).B("ok", ok).N("total", t.total);
  if (t.e2e_only) return o.B("e2e", true).Done();
  o.N("parse", t.parse).N("analyze", t.analyze).N("plan", t.plan)
      .N("overhead", t.overhead).N("d0", t.d0)
      .N("d1", t.d1).N("serialize", t.serialize)
      .N("plan_bytes", t.plan_bytes).N("slices", t.slices)
      .N("mem_peak", t.mem_peak).Raw("spans", t.spans)
      .Raw("sends", t.sends).Raw("nodes", t.nodes);
  return o.Done();
}

// --------------------------------------------------------- the workloads

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string goldens;
  std::string workdir = ".";
  std::string mode = "run";
};

/// A workload statement: its class label, its SQL, and the check of its
/// answer (empty string = correct, otherwise what was wrong).
struct Stmt {
  std::string cls;
  std::string sql;
  std::function<std::string(const QueryResult&)> check;
  int64_t rows_written = 0;  // INSERT: rows acknowledged on success
};

/// Runs one statement either untraced (Session::Execute) or through the
/// traced re-composition, records latency/outcome, and checks the answer.
class Runner {
 public:
  Runner(Cluster* c, Out* out, Tally* tally, bool traced)
      : c_(c), out_(out), tally_(tally), traced_(traced) {}

  void Run(Session* s, const Stmt& st, std::map<std::string, ClassLat>* lat) {
    tally_->attempted.fetch_add(1);
    TracedStmt ts;
    auto t0 = Clock::now();
    Result<QueryResult> r =
        traced_ ? RunTraced(c_, s, st.sql, &ts) : s->Execute(st.sql);
    double us = Us(t0, Clock::now());
    ClassLat& cl = (*lat)[st.cls];
    if (!r.ok()) {
      tally_->failed.fetch_add(1);
      ++cl.failed;
      if (r.status().code() == StatusCode::kResourceBusy) {  // admission
        tally_->refused.fetch_add(1);
        ++cl.refused;
      }
      out_->Check("stmt_ok:" + st.cls, false, r.status().ToString());
      if (traced_) out_->Line(TracedJson(st.cls, ts, false));
      return;
    }
    std::string wrong = st.check ? st.check(*r) : "";
    if (!wrong.empty()) {
      tally_->wrong.fetch_add(1);
      tally_->failed.fetch_add(1);
      ++cl.failed;
      out_->Check("answer:" + st.cls, false, wrong);
      if (traced_) out_->Line(TracedJson(st.cls, ts, false));
      return;
    }
    tally_->ok.fetch_add(1);
    cl.us.push_back(us);
    if (traced_) out_->Line(TracedJson(st.cls, ts, true));
  }

 private:
  Cluster* c_;
  Out* out_;
  Tally* tally_;
  bool traced_;
};

void EmitLatencies(Out* out, int attempt, const std::string& phase,
                   const std::map<std::string, ClassLat>& lat) {
  for (const auto& [cls, cl] : lat) {
    out->Line(Obj().S("t", "lat").N("attempt", attempt).S("phase", phase)
                  .S("cls", cls)
                  .N("failed", static_cast<double>(cl.failed))
                  .N("refused", static_cast<double>(cl.refused))
                  .Raw("us", Arr(cl.us)).Done());
  }
}

/// Drives `clients` closed loops for `seconds`, each calling `next(i)`
/// for its next statement, while the main thread writes progress lines
/// (so a run that aborts still shows how far it got).
/// Past the deadline a client stops only once `may_stop()` agrees (used to
/// end on whole TPC-H passes); the default stops at the deadline.
void ClosedLoop(Cluster* c, Out* out, Tally* tally, bool traced, int clients,
                double seconds, const std::string& phase,
                const std::function<Stmt(int client)>& next,
                std::map<std::string, ClassLat>* merged, double* elapsed_s,
                const std::function<bool()>& may_stop = nullptr) {
  std::vector<std::map<std::string, ClassLat>> lat(clients);
  auto t0 = Clock::now();
  auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  std::vector<Clock::time_point> ends(clients, t0);
  std::atomic<int> finished{0};
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      auto s = c->Connect();
      Runner runner(c, out, tally, traced);
      while (Clock::now() < deadline || (may_stop && !may_stop())) {
        runner.Run(s.get(), next(i), &lat[i]);
      }
      ends[i] = Clock::now();
      finished.fetch_add(1);
    });
  }
  while (finished.load() < clients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    out->Line(Obj().S("t", "progress").S("phase", phase)
                  .N("attempted", static_cast<double>(tally->attempted.load()))
                  .N("ok", static_cast<double>(tally->ok.load())).Done());
  }
  for (std::thread& t : threads) t.join();
  auto last = *std::max_element(ends.begin(), ends.end());
  *elapsed_s = Secs(t0, last);
  for (auto& m : lat) {
    for (auto& [cls, cl] : m) {
      ClassLat& dst = (*merged)[cls];
      dst.us.insert(dst.us.end(), cl.us.begin(), cl.us.end());
      dst.failed += cl.failed;
      dst.refused += cl.refused;
    }
  }
}

/// Snapshot of every counter plus histogram sums.
std::map<std::string, double> SnapshotAll(Cluster* c) {
  std::map<std::string, double> m;
  for (const auto& [k, v] : c->metrics()->SnapshotCounters()) {
    m[k] = static_cast<double>(v);
  }
  for (const auto& [k, h] : c->metrics()->SnapshotHistograms()) {
    m[k + ".sum"] = static_cast<double>(h.sum);
    m[k + ".count"] = static_cast<double>(h.count);
  }
  return m;
}

void EmitDeltas(Out* out, const std::map<std::string, double>& before,
                const std::map<std::string, double>& after) {
  Obj o;
  o.S("t", "counters");
  for (const auto& [k, v] : after) {
    auto it = before.find(k);
    o.N(k, v - (it == before.end() ? 0 : it->second));
  }
  out->Line(o.Done());
}

// ----------------------------------------------------- layer probes

/// Direct storage probes (traced run only): decode and encode throughput
/// through the storage format API, zone-map skipping for a workload
/// predicate, and codec decompress speed.
Status StorageProbes(Cluster* c, Out* out, const std::string& table,
                     const storage::ScanPredicate& pred) {
  HAWQ_ASSIGN_OR_RETURN(TableFiles tf, GetTableFiles(c, table));
  Schema schema = tf.desc.ToSchema();
  storage::StorageOptions so = storage::StorageOptions::FromTable(tf.desc);
  Obj o;
  o.S("t", "probe").S("table", table);

  // One untimed pass counts the blocks and keeps up to 1 MiB of rows as
  // text for the codec probe; then whole-table scans for at least 0.3 s.
  auto scan_all = [&](const std::function<void(const RowBatch&)>& fn,
                      double* blocks) -> Status {
    for (const catalog::SegFileDesc& f : tf.files) {
      HAWQ_ASSIGN_OR_RETURN(auto sc, storage::OpenTableScanner(
                                         c->hdfs(), f.path, schema, so, f.eof));
      RowBatch batch;
      while (true) {
        HAWQ_ASSIGN_OR_RETURN(bool more, sc->NextBatch(&batch));
        if (!more) break;
        fn(batch);
      }
      *blocks += static_cast<double>(sc->stats().blocks_read);
    }
    return Status::OK();
  };
  double blocks = 0, ignored = 0, rows = 0;
  std::string sample;
  HAWQ_RETURN_IF_ERROR(scan_all(
      [&](const RowBatch& b) {
        for (size_t i = 0; i < b.size() && sample.size() < (1u << 20); ++i) {
          for (const Datum& d : b.selected(i)) sample += d.ToString() + ",";
          sample += "\n";
        }
      },
      &blocks));
  auto t0 = Clock::now();
  do {
    HAWQ_RETURN_IF_ERROR(scan_all(
        [&](const RowBatch& b) { rows += static_cast<double>(b.size()); },
        &ignored));
  } while (Secs(t0, Clock::now()) < 0.3);
  o.N("decode_rows_per_s", rows / Secs(t0, Clock::now()));
  o.N("blocks", blocks);

  // Zone maps: share of blocks a workload-shaped predicate skips.
  double read = 0, skipped = 0;
  for (const catalog::SegFileDesc& f : tf.files) {
    HAWQ_ASSIGN_OR_RETURN(auto sc,
                          storage::OpenTableScanner(c->hdfs(), f.path, schema,
                                                    so, f.eof, {}, {pred}));
    RowBatch batch;
    while (true) {
      HAWQ_ASSIGN_OR_RETURN(bool more, sc->NextBatch(&batch));
      if (!more) break;
    }
    read += static_cast<double>(sc->stats().blocks_read);
    skipped += static_cast<double>(sc->stats().blocks_skipped);
  }
  o.N("zonemap_skip_ratio", read + skipped > 0 ? skipped / (read + skipped) : 0);

  // Codec: quicklz decompress of up to 1 MiB of the table's rows as text.
  HAWQ_ASSIGN_OR_RETURN(std::string comp, storage::CodecCompress(
                                              catalog::Codec::kQuicklz, 1,
                                              sample));
  double mb = 0;
  t0 = Clock::now();
  do {
    HAWQ_ASSIGN_OR_RETURN(std::string plain,
                          storage::CodecDecompress(catalog::Codec::kQuicklz,
                                                   comp, sample.size()));
    mb += static_cast<double>(plain.size()) / 1e6;
  } while (Secs(t0, Clock::now()) < 0.2);
  o.N("codec_decompress_mb_s", mb / Secs(t0, Clock::now()));

  // Encode: ingest-shaped rows through a CO/quicklz writer.
  storage::StorageOptions wo;
  wo.kind = catalog::StorageKind::kCO;
  wo.codec = catalog::Codec::kQuicklz;
  Schema is = IngestSchema();
  double wrows = 0;
  int round = 0;
  t0 = Clock::now();
  do {
    std::string path = "/perfbench/encode_probe_" + std::to_string(round++);
    HAWQ_ASSIGN_OR_RETURN(auto w, storage::OpenTableWriter(c->hdfs(), path,
                                                           is, wo, 0));
    for (int64_t i = 0; i < 20000; ++i) {
      HAWQ_RETURN_IF_ERROR(w->Append(IngestRow(i)));
    }
    HAWQ_RETURN_IF_ERROR(w->Close());
    wrows += 20000;
    for (const std::string& p :
         storage::StorageFilePaths(path, wo.kind, is.num_fields())) {
      if (c->hdfs()->Exists(p)) HAWQ_RETURN_IF_ERROR(c->hdfs()->Delete(p));
    }
  } while (Secs(t0, Clock::now()) < 0.3);
  o.N("encode_rows_per_s", wrows / Secs(t0, Clock::now()));

  out->Line(o.Done());
  return Status::OK();
}

/// Latency of 200 empty Begin+Commit pairs on a cluster's transaction
/// manager (durable, with a WAL fsync per commit, when it has a data_dir).
Status CommitProbe(Cluster* c, Out* out) {
  std::vector<double> commits;
  for (int i = 0; i < 200; ++i) {
    auto tb = Clock::now();
    auto txn = c->tx_manager()->Begin();
    HAWQ_RETURN_IF_ERROR(c->tx_manager()->Commit(txn.get()));
    commits.push_back(Us(tb, Clock::now()));
  }
  out->Line(Obj().S("t", "commit").S("data_dir", c->options().data_dir)
                .Raw("commit_us", Arr(commits)).Done());
  return Status::OK();
}

// ------------------------------------------------- statement factories

Stmt MasterStmt() {
  return {"master", "SELECT 1", [](const QueryResult& r) -> std::string {
            return r.rows.size() == 1 && r.rows[0].size() == 1 &&
                           r.rows[0][0].as_int() == 1
                       ? ""
                       : "SELECT 1 gave " + std::to_string(r.rows.size()) +
                             " rows";
          }};
}

/// Direct-dispatch point lookup on orders, checked against the price the
/// generator produces for that key.
Stmt OrdersLookupStmt(int64_t key, double price) {
  return {"direct",
          "SELECT o_totalprice FROM orders WHERE o_orderkey = " +
              std::to_string(key),
          [key, price](const QueryResult& r) -> std::string {
            if (r.rows.size() != 1) {
              return "key " + std::to_string(key) + ": " +
                     std::to_string(r.rows.size()) + " rows";
            }
            double got = r.rows[0][0].as_double();
            return std::abs(got - price) <= 1e-9 * std::abs(price)
                       ? ""
                       : "key " + std::to_string(key) + ": price " + Num(got) +
                             " != " + Num(price);
          }};
}

/// Full-gang redistribute + gather over the 25 nations.
Stmt NationGangStmt() {
  return {"gang",
          "SELECT n_regionkey, count(*) FROM nation GROUP BY n_regionkey",
          [](const QueryResult& r) -> std::string {
            int64_t sum = 0;
            for (const Row& row : r.rows) sum += row[1].as_int();
            return r.rows.size() == 5 && sum == 25
                       ? ""
                       : std::to_string(r.rows.size()) + " groups summing to " +
                             std::to_string(sum);
          }};
}

/// Sum of (i % 16) for i in [1, n].
int64_t SumMod16(int64_t n) {
  if (n <= 0) return 0;
  int64_t r = n % 16;
  return (n / 16) * 120 + r * (r + 1) / 2;
}

/// Closed-form count, sum(grp), sum(v) of ingest rows with id in (lo, hi].
struct IngestAgg {
  int64_t count = 0, grp = 0;
  double v = 0;
};
IngestAgg ClosedForm(int64_t lo, int64_t hi) {
  IngestAgg a;
  if (hi <= lo) return a;
  a.count = hi - lo;
  a.grp = SumMod16(hi) - SumMod16(lo);
  // 0.5 * (sum of i over (lo, hi])
  a.v = 0.5 * (static_cast<double>(hi) * (hi + 1) / 2 -
               static_cast<double>(lo) * (lo + 1) / 2);
  return a;
}

std::string CheckAgg(const QueryResult& r, const IngestAgg& want) {
  if (r.rows.size() != 1 || r.rows[0].size() < 3) return "malformed result";
  const Row& row = r.rows[0];
  int64_t cnt = row[0].as_int();
  int64_t grp = row[1].is_null() ? 0 : row[1].as_int();
  double v = row[2].is_null() ? 0 : row[2].as_double();
  if (cnt != want.count || grp != want.grp ||
      std::abs(v - want.v) > 1e-9 * std::max(1.0, std::abs(want.v))) {
    return "got (" + std::to_string(cnt) + "," + std::to_string(grp) + "," +
           Num(v) + ") want (" + std::to_string(want.count) + "," +
           std::to_string(want.grp) + "," + Num(want.v) + ")";
  }
  return "";
}

/// The ingest_read client: alternates a 200-row INSERT of fresh ids with
/// an aggregate over a seeded window of the most recent acknowledged ids.
/// Rows (base, acked_hi] are acknowledged; every read is checked against
/// their closed form.
class IngestGen {
 public:
  explicit IngestGen(uint64_t seed) : rng_(GenSeed(seed)) {
    // Same digit count for every seed, so the CSV size per row is too.
    base_ = 1000000000 + rng_.Uniform(0, 1 << 20) * 100;
    acked_hi_ = pending_hi_ = base_;
  }
  int64_t base() const { return base_; }
  int64_t acked_hi() const { return acked_hi_; }
  uint64_t csv_bytes() const { return csv_bytes_; }

  Stmt Next() {
    if (insert_next_ || acked_hi_ == base_) {
      insert_next_ = false;
      std::string sql = "INSERT INTO ingest VALUES ";
      for (int k = 1; k <= kIngestRows; ++k) {
        Row row = IngestRow(pending_hi_ + k);
        sql += (k > 1 ? ", (" : "(") + std::to_string(row[0].i64) + ", " +
               std::to_string(row[1].i64) + ", " + Num(row[2].f64) + ", '" +
               row[3].str + "')";
      }
      int64_t lo = pending_hi_;
      pending_hi_ += kIngestRows;
      return {"insert", sql, [this, lo](const QueryResult& r) -> std::string {
                if (r.message != "INSERT " + std::to_string(kIngestRows)) {
                  return "insert tag '" + r.message + "'";
                }
                Schema is = IngestSchema();
                for (int64_t id = lo + 1; id <= lo + kIngestRows; ++id) {
                  csv_bytes_ += CsvBytes(is, IngestRow(id));
                }
                acked_hi_ = lo + kIngestRows;
                return "";
              }};
    }
    insert_next_ = true;
    // A failed INSERT leaves pending ahead of acked: continue from acked.
    pending_hi_ = acked_hi_;
    int64_t lo = std::max(base_, acked_hi_ - rng_.Uniform(200, 4000));
    IngestAgg want = ClosedForm(lo, acked_hi_);
    return {"read",
            "SELECT count(*), sum(grp), sum(v) FROM ingest WHERE id > " +
                std::to_string(lo),
            [want](const QueryResult& r) { return CheckAgg(r, want); }};
  }

  /// Direct-dispatch lookup of one acknowledged id (ingest is hashed on id).
  Stmt Lookup() {
    int64_t id = rng_.Uniform(base_ + 1, acked_hi_);
    return {"direct", "SELECT v FROM ingest WHERE id = " + std::to_string(id),
            [id](const QueryResult& r) -> std::string {
              return r.rows.size() == 1 && r.rows[0][0].as_double() == 0.5 * id
                         ? ""
                         : "lookup of id " + std::to_string(id) + " failed";
            }};
  }

  /// Full-gang GROUP BY over the newest 160 ids: 16 groups of 10 rows.
  Stmt Gang() {
    int64_t lo = acked_hi_ - 160;
    return {"gang",
            "SELECT grp, count(*) FROM ingest WHERE id > " +
                std::to_string(lo) + " GROUP BY grp",
            [](const QueryResult& r) -> std::string {
              int64_t sum = 0;
              for (const Row& row : r.rows) sum += row[1].as_int();
              return r.rows.size() == 16 && sum == 160
                         ? ""
                         : std::to_string(r.rows.size()) +
                               " groups summing to " + std::to_string(sum);
            }};
  }

 private:
  Rng rng_;
  int64_t base_ = 0, acked_hi_ = 0, pending_hi_ = 0;
  bool insert_next_ = true;
  uint64_t csv_bytes_ = 0;
};

// ----------------------------------------------------------- workloads

struct Common {
  Args args;
  Out* out;
  Tally tally;
  int attempt = 0;  // see Measure()
  Clock::time_point start = Clock::now();
};

void EmitMeta(Common* cm, const std::string& flush) {
  cm->out->Line(Obj().S("t", "meta").S("workload", cm->args.workload)
                    .N("seed", static_cast<double>(cm->args.seed))
                    .N("nproc", static_cast<double>(
                                    std::thread::hardware_concurrency()))
                    .S("build_type", PERFBENCH_BUILD_TYPE).N("sf", kSf)
                    .N("segments", kSegments).S("fabric", "udp")
                    .S("flush_policy", flush).Done());
}

void EmitSetup(Out* out, const std::vector<SetupTimes>& t) {
  std::vector<double> total, load, analyze;
  for (const SetupTimes& s : t) {
    total.push_back(s.total_s);
    load.push_back(s.load_s);
    analyze.push_back(s.analyze_s);
  }
  out->Line(Obj().S("t", "setup").Raw("setup_s", Arr(total))
                .Raw("load_s", Arr(load)).Raw("analyze_s", Arr(analyze))
                .Done());
}

/// CSV bytes of every generated TPC-H row (the stored-bytes denominator),
/// the generation time alone, and the orders oracle (key -> totalprice).
Status EmitTpchInput(Out* out, uint64_t seed,
                     std::vector<std::pair<int64_t, double>>* orders) {
  tpch::GenOptions g;
  g.sf = kSf;
  g.seed = GenSeed(seed);
  uint64_t csv = 0;
  auto sink = [&csv](const Schema& sch) {
    return [&csv, sch](const Row& r) -> Status {
      csv += CsvBytes(sch, r);
      return Status::OK();
    };
  };
  Schema os = tpch::OrdersSchema();
  int kcol = os.FindField("o_orderkey"), pcol = os.FindField("o_totalprice");
  auto t0 = Clock::now();
  HAWQ_RETURN_IF_ERROR(tpch::GenRegion(sink(tpch::RegionSchema())));
  HAWQ_RETURN_IF_ERROR(tpch::GenNation(sink(tpch::NationSchema())));
  HAWQ_RETURN_IF_ERROR(tpch::GenSupplier(g, sink(tpch::SupplierSchema())));
  HAWQ_RETURN_IF_ERROR(tpch::GenCustomer(g, sink(tpch::CustomerSchema())));
  HAWQ_RETURN_IF_ERROR(tpch::GenPart(g, sink(tpch::PartSchema())));
  HAWQ_RETURN_IF_ERROR(tpch::GenPartsupp(g, sink(tpch::PartsuppSchema())));
  auto orders_csv = sink(os);
  HAWQ_RETURN_IF_ERROR(tpch::GenOrdersAndLineitem(
      g,
      [&](const Row& r) -> Status {
        orders->emplace_back(r[kcol].i64, r[pcol].as_double());
        return orders_csv(r);
      },
      sink(tpch::LineitemSchema())));
  out->Line(Obj().S("t", "input").N("gen_s", Secs(t0, Clock::now()))
                .N("csv_bytes", static_cast<double>(csv)).Done());
  if (orders->empty()) return Status::Internal("no orders generated");
  return Status::OK();
}

Status EmitStored(Out* out, Cluster* c, const std::vector<std::string>& tabs) {
  uint64_t total = 0;
  for (const std::string& t : tabs) {
    HAWQ_ASSIGN_OR_RETURN(uint64_t n, StoredBytes(c, t));
    total += n;
  }
  out->Line(Obj().S("t", "stored").N("stored_bytes", static_cast<double>(total))
                .Done());
  return Status::OK();
}

Status SetupTpchReps(Common* cm, std::unique_ptr<Cluster>* keep) {
  std::vector<SetupTimes> times;
  for (int i = 0; i < kSetupReps; ++i) {
    keep->reset();
    malloc_trim(0);  // earlier set-ups' garbage must not count in peak RSS
    SetupTimes t;
    HAWQ_ASSIGN_OR_RETURN(*keep, SetupTpch(cm->args.seed, &t));
    times.push_back(t);
  }
  EmitSetup(cm->out, times);
  return Status::OK();
}

/// Runs one phase of the workload: untraced or traced closed loop, then
/// its latencies, statement count and the /proc/self/maps growth.
void RunPhase(Common* cm, Cluster* c, bool traced, int clients, double secs,
              const std::string& phase,
              const std::function<Stmt(int client)>& next,
              const std::function<int64_t()>& rows_committed = nullptr,
              const std::function<bool()>& may_stop = nullptr) {
  std::map<std::string, ClassLat> lat;
  double elapsed = 0;
  int64_t maps0 = MapCount();
  int64_t att0 = cm->tally.attempted.load();
  int64_t rows0 = rows_committed ? rows_committed() : 0;
  CpuTimes cpu0 = ReadCpuTimes();
  ClosedLoop(c, cm->out, &cm->tally, traced, clients, secs, phase, next, &lat,
             &elapsed, may_stop);
  CpuTimes cpu1 = ReadCpuTimes();
  double busy = cpu1.busy - cpu0.busy, steal = cpu1.steal - cpu0.steal;
  int64_t stmts = cm->tally.attempted.load() - att0;
  EmitLatencies(cm->out, cm->attempt, phase, lat);
  cm->out->Line(
      Obj().S("t", "phase").N("attempt", cm->attempt).S("phase", phase)
          .N("elapsed_s", elapsed)
          .N("statements", static_cast<double>(stmts))
          .N("rows_committed",
             static_cast<double>(rows_committed ? rows_committed() - rows0 : 0))
          .N("maps_start", static_cast<double>(maps0))
          .N("maps_added", static_cast<double>(MapCount() - maps0))
          .N("cpu_steal_share", busy + steal > 0 ? steal / (busy + steal) : 0)
          .Done());
}

/// The traced run: an untraced half for the tracing-overhead baseline and
/// a traced half for the layer breakdown, followed by the counter deltas
/// and the direct storage and commit probes.
Status MainPhases(Common* cm, Cluster* c, int clients,
                  const std::function<Stmt(int)>& next,
                  const std::string& probe_table,
                  const storage::ScanPredicate& pred) {
  RunPhase(cm, c, false, clients, cm->args.seconds / 2, "untraced", next);
  auto before = SnapshotAll(c);
  RunPhase(cm, c, true, clients, cm->args.seconds / 2, "traced", next);
  EmitDeltas(cm->out, before, SnapshotAll(c));
  HAWQ_RETURN_IF_ERROR(StorageProbes(c, cm->out, probe_table, pred));
  return CommitProbe(c, cm->out);
}

/// Latency probe for a statement class a workload's own mix lacks: `n`
/// single-client statements after the timed loop, so every workload
/// reports every end-to-end metric (README.md says which are probes).
void ClassProbe(Common* cm, Cluster* c, int n,
                const std::function<Stmt()>& next) {
  auto s = c->Connect();
  Runner runner(c, cm->out, &cm->tally, false);
  std::map<std::string, ClassLat> lat;
  for (int i = 0; i < n; ++i) runner.Run(s.get(), next(), &lat);
  EmitLatencies(cm->out, cm->attempt, "probe", lat);
}

/// Ingest probe for workloads without the ingest mix: `rounds` INSERT +
/// read rounds into a fresh CO/quicklz table on the workload's cluster.
Status IngestProbe(Common* cm, Cluster* c, int rounds) {
  {
    auto s = c->Connect();
    HAWQ_RETURN_IF_ERROR(s->Execute(kIngestDdl).status());
  }
  IngestGen gen(cm->args.seed);
  auto s = c->Connect();
  Runner runner(c, cm->out, &cm->tally, false);
  std::map<std::string, ClassLat> lat;
  auto t0 = Clock::now();
  for (int i = 0; i < 2 * rounds; ++i) runner.Run(s.get(), gen.Next(), &lat);
  double elapsed = Secs(t0, Clock::now());
  EmitLatencies(cm->out, cm->attempt, "probe", lat);
  cm->out->Line(Obj().S("t", "phase").N("attempt", cm->attempt)
                    .S("phase", "probe").N("elapsed_s", elapsed)
                    .N("rows_committed",
                       static_cast<double>(gen.acked_hi() - gen.base()))
                    .Done());
  return Status::OK();
}

constexpr int kClassProbeStmts = 1500;
constexpr int kIngestProbeRounds = 150;

// The hypervisor of a shared virtual machine can steal most of the CPU for
// tens of seconds at a time, and then no code change is visible in the
// numbers. So the untraced measurement (probes + timed phase) is repeated
// on a fresh cluster, at most kMaxAttempts times, while more than
// kMaxStealShare of the machine's busy + stolen CPU time was stolen during
// it. Every attempt's statements are checked and counted; run.py reports
// the attempt with the least steal, and its steal share.
// No new attempt starts after kRetryBudgetS seconds of the run, so that a
// run stays well inside its time limit however slow the machine is.
constexpr int kMaxAttempts = 3;
constexpr double kMaxStealShare = 0.10;
constexpr double kRetryBudgetS = 40;

Status Measure(Common* cm, std::unique_ptr<Cluster>* c,
               const std::function<Result<std::unique_ptr<Cluster>>()>& fresh,
               const std::function<Status(Cluster*)>& measure) {
  for (int a = 0; a < kMaxAttempts; ++a) {
    if (a > 0 && Secs(cm->start, Clock::now()) > kRetryBudgetS) break;
    cm->attempt = a;
    if (a > 0) {
      c->reset();
      malloc_trim(0);
      HAWQ_ASSIGN_OR_RETURN(*c, fresh());
    }
    CpuTimes t0 = ReadCpuTimes();
    HAWQ_RETURN_IF_ERROR(measure(c->get()));
    CpuTimes t1 = ReadCpuTimes();
    double busy = t1.busy - t0.busy, steal = t1.steal - t0.steal;
    double share = busy + steal > 0 ? steal / (busy + steal) : 0;
    cm->out->Line(Obj().S("t", "attempt").N("attempt", a)
                      .N("cpu_steal_share", share).Done());
    if (share <= kMaxStealShare) break;
  }
  return Status::OK();
}

/// Untimed pass of the 22 queries: the answers every timed pass must
/// reproduce. For the golden seed they must also match goldens derived
/// from the Stinger engine.
Result<std::map<int, Checksum>> WarmupPass(Common* cm, Cluster* c) {
  auto s = c->Connect();
  std::map<int, Checksum> ref;
  std::map<int, Checksum> golden;
  bool use_golden = cm->args.seed == kGoldenSeed && !cm->args.goldens.empty();
  if (use_golden) golden = ReadGoldens(cm->args.goldens);
  if (use_golden && golden.size() != kGoldenCount) {
    cm->out->Check("goldens_present", false,
                   "expected " + std::to_string(kGoldenCount) +
                       " golden checksums in " + cm->args.goldens);
  }
  for (const tpch::TpchQuery& q : tpch::Queries()) {
    if (q.id == kNondeterministicQuery) continue;
    HAWQ_ASSIGN_OR_RETURN(QueryResult r, s->Execute(q.sql));
    ref[q.id] = Summarize(r);
    if (use_golden && q.id != kNoGoldenQuery) {
      auto it = golden.find(q.id);
      bool ok = it != golden.end() && SameChecksum(ref[q.id], it->second);
      cm->out->Check("golden:" + q.name, ok, ref[q.id].ToJson());
    }
  }
  return ref;
}

Status RunTpchPower(Common* cm) {
  EmitMeta(cm, "none (in-memory HDFS, no data_dir)");
  std::unique_ptr<Cluster> c;
  HAWQ_RETURN_IF_ERROR(SetupTpchReps(cm, &c));
  std::vector<std::pair<int64_t, double>> orders;
  HAWQ_RETURN_IF_ERROR(EmitTpchInput(cm->out, cm->args.seed, &orders));
  HAWQ_ASSIGN_OR_RETURN(auto ref, WarmupPass(cm, c.get()));

  std::vector<Stmt> pass;
  for (const tpch::TpchQuery& q : tpch::Queries()) {
    if (q.id == kNondeterministicQuery) continue;
    Checksum want = ref[q.id];
    pass.push_back({"q" + std::to_string(q.id), q.sql,
                    [want](const QueryResult& r) -> std::string {
                      Checksum got = Summarize(r);
                      return SameChecksum(got, want)
                                 ? ""
                                 : "checksum " + got.ToJson() + " != " +
                                       want.ToJson();
                    }});
  }
  // Phases end on whole passes, at least three, so every phase runs each
  // query equally often.
  size_t pos = 0, phase_start = 0;
  auto next = [&](int) { return pass[pos++ % pass.size()]; };
  auto may_stop = [&] {
    return pos % pass.size() == 0 && pos - phase_start >= 3 * pass.size();
  };
  storage::ScanPredicate pred;
  pred.col = 0;  // l_orderkey in the lower half of the (sparse) key range
  pred.op = storage::ScanPredicate::Op::kLe;
  pred.value = Datum::Int(tpch::OrdersCount(kSf) * 2);
  if (!cm->args.trace) {
    HAWQ_RETURN_IF_ERROR(Measure(
        cm, &c,
        [&] {
          SetupTimes unused;
          return SetupTpch(cm->args.seed, &unused);
        },
        [&](Cluster* cl) -> Status {
          // Probes first, while the process is fresh: after the timed
          // phase it carries thousands of leaked thread stacks (README.md).
          Rng rng(GenSeed(cm->args.seed) ^ 0x5eed);
          int k = 0;
          ClassProbe(cm, cl, kClassProbeStmts, [&]() -> Stmt {
            switch (k++ % 3) {
              case 0: return MasterStmt();
              case 1: {
                auto [key, price] = orders[rng.Uniform(
                    0, static_cast<int64_t>(orders.size()) - 1)];
                return OrdersLookupStmt(key, price);
              }
              default: return NationGangStmt();
            }
          });
          HAWQ_RETURN_IF_ERROR(IngestProbe(cm, cl, kIngestProbeRounds));
          phase_start = pos;
          RunPhase(cm, cl, false, 1, cm->args.seconds, "timed", next, nullptr,
                   may_stop);
          return Status::OK();
        }));
  } else {
    RunPhase(cm, c.get(), false, 1, cm->args.seconds / 2, "untraced", next,
             nullptr, may_stop);
    phase_start = pos;
    auto before = SnapshotAll(c.get());
    RunPhase(cm, c.get(), true, 1, cm->args.seconds / 2, "traced", next,
             nullptr, may_stop);
    EmitDeltas(cm->out, before, SnapshotAll(c.get()));
    HAWQ_RETURN_IF_ERROR(StorageProbes(c.get(), cm->out, "lineitem", pred));
    HAWQ_RETURN_IF_ERROR(CommitProbe(c.get(), cm->out));
    auto s = c->Connect();
    int empty = 0;
    for (int i = 0; i < kQ15Probes; ++i) {
      HAWQ_ASSIGN_OR_RETURN(
          QueryResult r, s->Execute(tpch::Query(kNondeterministicQuery).sql));
      if (r.rows.empty()) ++empty;
    }
    cm->out->Line(Obj().S("t", "q15").N("runs", kQ15Probes).N("empty", empty)
                      .Done());
  }
  return EmitStored(cm->out, c.get(), TpchTables());
}

Status RunShortStmt(Common* cm) {
  EmitMeta(cm, "none (in-memory HDFS, no data_dir)");
  std::unique_ptr<Cluster> c;
  HAWQ_RETURN_IF_ERROR(SetupTpchReps(cm, &c));
  std::vector<std::pair<int64_t, double>> orders;
  HAWQ_RETURN_IF_ERROR(EmitTpchInput(cm->out, cm->args.seed, &orders));

  std::vector<Rng> rngs;
  for (int i = 0; i < kShortClients; ++i) {
    rngs.emplace_back(GenSeed(cm->args.seed * 131 + i));
  }
  auto next = [&](int client) -> Stmt {
    Rng& rng = rngs[client];
    switch (rng.Uniform(0, 2)) {
      case 0: return MasterStmt();
      case 1: {
        auto [key, price] =
            orders[rng.Uniform(0, static_cast<int64_t>(orders.size()) - 1)];
        return OrdersLookupStmt(key, price);
      }
      default: return NationGangStmt();
    }
  };
  storage::ScanPredicate pred;
  pred.col = 0;  // o_orderkey point lookup, as the direct class does
  pred.op = storage::ScanPredicate::Op::kEq;
  pred.value = Datum::Int(orders[orders.size() / 2].first);
  if (!cm->args.trace) {
    HAWQ_RETURN_IF_ERROR(Measure(
        cm, &c,
        [&] {
          SetupTimes unused;
          return SetupTpch(cm->args.seed, &unused);
        },
        [&](Cluster* cl) -> Status {
          HAWQ_RETURN_IF_ERROR(IngestProbe(cm, cl, kIngestProbeRounds));
          RunPhase(cm, cl, false, kShortClients, cm->args.seconds, "timed",
                   next);
          return Status::OK();
        }));
  } else {
    HAWQ_RETURN_IF_ERROR(
        MainPhases(cm, c.get(), kShortClients, next, "orders", pred));
  }
  return EmitStored(cm->out, c.get(), TpchTables());
}

constexpr int kDurableRounds = 20;

/// Durability epilogue of ingest_read, untimed: INSERT + read rounds into
/// a cluster over a fresh data_dir (WAL fsync at every commit), the commit
/// probe on that durable manager, then a restart on the same directory,
/// after which every acknowledged row must be there.
Status DurabilityCheck(Common* cm) {
  const std::string dir =
      cm->args.workdir + "/ingest_data_" + std::to_string(getpid());
  SetupTimes unused;
  HAWQ_ASSIGN_OR_RETURN(auto c, SetupIngest(dir, &unused));
  IngestGen gen(cm->args.seed + 1);
  {
    auto s = c->Connect();
    Runner runner(c.get(), cm->out, &cm->tally, false);
    std::map<std::string, ClassLat> lat;
    for (int i = 0; i < 2 * kDurableRounds; ++i) {
      runner.Run(s.get(), gen.Next(), &lat);
    }
  }
  HAWQ_RETURN_IF_ERROR(CommitProbe(c.get(), cm->out));
  c.reset();
  {
    Cluster reopened(ClusterOpts(dir));
    auto s = reopened.Connect();
    auto r = s->Execute(
        "SELECT count(*), sum(grp), sum(v) FROM ingest WHERE id > " +
        std::to_string(gen.base()));
    std::string wrong =
        r.ok() ? CheckAgg(*r, ClosedForm(gen.base(), gen.acked_hi()))
               : r.status().ToString();
    cm->out->Check("durable_after_reopen", wrong.empty(),
                   wrong.empty()
                       ? std::to_string(gen.acked_hi() - gen.base()) + " rows"
                       : wrong);
  }
  std::filesystem::remove_all(dir);
  return Status::OK();
}

Status RunIngestRead(Common* cm) {
  EmitMeta(cm,
           "timed phase: none (in-memory HDFS, no data_dir); durability "
           "epilogue: data_dir on local disk, WAL fsync at every commit");
  std::unique_ptr<Cluster> c;
  std::vector<SetupTimes> times;
  for (int i = 0; i < kIngestSetupReps; ++i) {
    c.reset();
    malloc_trim(0);
    SetupTimes t;
    HAWQ_ASSIGN_OR_RETURN(c, SetupIngest("", &t));
    times.push_back(t);
  }
  EmitSetup(cm->out, times);

  IngestGen gen(cm->args.seed);
  int64_t rounds = 0, phase_end = 0;
  const int64_t total_rounds =
      static_cast<int64_t>(kIngestRoundsPerSecond * cm->args.seconds);
  auto next = [&](int) {
    Stmt st = gen.Next();
    if (st.cls == "read") ++rounds;
    return st;
  };
  auto rows = [&] { return gen.acked_hi(); };
  auto may_stop = [&] { return rounds >= phase_end; };
  if (!cm->args.trace) {
    HAWQ_RETURN_IF_ERROR(Measure(
        cm, &c,
        [&] {
          SetupTimes unused;
          return SetupIngest("", &unused);
        },
        [&](Cluster* cl) -> Status {
          gen = IngestGen(cm->args.seed);
          rounds = 0;
          phase_end = total_rounds;
          RunPhase(cm, cl, false, 1, 0, "timed", next, rows, may_stop);
          int k = 0;
          ClassProbe(cm, cl, kClassProbeStmts, [&]() -> Stmt {
            switch (k++ % 3) {
              case 0: return MasterStmt();
              case 1: return gen.Lookup();
              default: return gen.Gang();
            }
          });
          return Status::OK();
        }));
  } else {
    // Untraced and traced halves, as MainPhases does for the others.
    phase_end = total_rounds / 2;
    RunPhase(cm, c.get(), false, 1, 0, "untraced", next, rows, may_stop);
    auto before = SnapshotAll(c.get());
    HAWQ_ASSIGN_OR_RETURN(uint64_t stored0, StoredBytes(c.get(), "ingest"));
    int64_t rows0 = gen.acked_hi();
    phase_end = total_rounds;
    RunPhase(cm, c.get(), true, 1, 0, "traced", next, rows, may_stop);
    EmitDeltas(cm->out, before, SnapshotAll(c.get()));
    HAWQ_ASSIGN_OR_RETURN(uint64_t stored1, StoredBytes(c.get(), "ingest"));
    cm->out->Line(Obj().S("t", "written")
                      .N("bytes", static_cast<double>(stored1 - stored0))
                      .N("rows", static_cast<double>(gen.acked_hi() - rows0))
                      .Done());
    storage::ScanPredicate pred;
    pred.col = 0;  // the read class: ids newer than the last 2000
    pred.op = storage::ScanPredicate::Op::kGt;
    pred.value = Datum::Int(gen.acked_hi() - 2000);
    HAWQ_RETURN_IF_ERROR(StorageProbes(c.get(), cm->out, "ingest", pred));
  }
  HAWQ_RETURN_IF_ERROR(EmitStored(cm->out, c.get(), {"ingest"}));
  cm->out->Line(Obj().S("t", "input").N("gen_s", 0)
                    .N("csv_bytes", static_cast<double>(gen.csv_bytes()))
                    .Done());
  c.reset();
  return DurabilityCheck(cm);
}

// ------------------------------------------------------- goldens + tests

/// Derives the TPC-H goldens for the golden seed from the Stinger
/// (MapReduce) engine, which shares only storage with the HAWQ path.
Status DeriveGoldens(const Args& a) {
  SetupTimes t;
  HAWQ_ASSIGN_OR_RETURN(auto c, SetupTpch(kGoldenSeed, &t));
  stinger::StingerOptions so;
  so.mr.job_startup = std::chrono::microseconds(0);
  so.mr.task_startup = std::chrono::microseconds(0);
  so.scan_bytes_per_sec = 0;
  stinger::StingerEngine st(c.get(), so);
  std::ofstream out(a.out);
  out << "# TPC-H sf " << kSf << ", workload seed " << kGoldenSeed
      << ": <query> <rows> <hash of sorted non-double fields> <double "
         "column sums>, from the Stinger engine. Q"
      << kNondeterministicQuery << " and Q" << kNoGoldenQuery
      << " are left out (see loadgen.cc).\n";
  for (const tpch::TpchQuery& q : tpch::Queries()) {
    if (q.id == kNondeterministicQuery || q.id == kNoGoldenQuery) continue;
    HAWQ_ASSIGN_OR_RETURN(QueryResult r, st.Execute(q.sql));
    out << GoldenLine(q.id, Summarize(r)) << "\n";
  }
  return Status::OK();
}

int SelfTest() {
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
      ++bad;
    }
  };
  Schema s({{"k", TypeId::kInt64, false},
            {"x", TypeId::kDouble, true},
            {"t", TypeId::kString, true},
            {"d", TypeId::kDate, true}});
  // "7,2.5,ab,1970-01-02\n" is 20 bytes.
  expect(CsvBytes(s, {Datum::Int(7), Datum::Double(2.5), Datum::Str("ab"),
                      Datum::Int(1)}) == 20,
         "csv bytes of a full row");
  // NULLs are empty fields: "7,,,\n" is 5 bytes.
  expect(CsvBytes(s, {Datum::Int(7), Datum::Null(), Datum::Null(),
                      Datum::Null()}) == 5,
         "csv bytes with NULLs");
  expect(SumMod16(16) == 120 && SumMod16(17) == 121 && SumMod16(0) == 0,
         "sum of i%16");
  IngestAgg a = ClosedForm(10, 13);  // ids 11,12,13
  expect(a.count == 3 && a.grp == 11 + 12 + 13 && a.v == 18.0,
         "ingest closed form");
  QueryResult r1, r2;
  r1.schema = Schema({{"a", TypeId::kInt64, false}, {"b", TypeId::kDouble, false}});
  r2.schema = r1.schema;
  r1.rows = {{Datum::Int(1), Datum::Double(0.1)},
             {Datum::Int(2), Datum::Double(0.2)}};
  r2.rows = {r1.rows[1], r1.rows[0]};
  expect(SameChecksum(Summarize(r1), Summarize(r2)),
         "checksum ignores row order");
  r2.rows[0][0] = Datum::Int(3);
  expect(!SameChecksum(Summarize(r1), Summarize(r2)),
         "checksum sees a changed key");
  Checksum g = Summarize(r1);
  std::string line = GoldenLine(5, g);
  std::string path = "perfbench_selftest_goldens.tmp";
  { std::ofstream(path) << line << "\n"; }
  auto back = ReadGoldens(path);
  std::filesystem::remove(path);
  expect(back.count(5) && SameChecksum(back[5], g), "golden line round trip");
  std::printf("loadgen selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--out") a.out = val();
    else if (k == "--goldens") a.goldens = val();
    else if (k == "--workdir") a.workdir = val();
    else if (k == "--derive-goldens") a.mode = "goldens";
    else if (k == "--selftest") a.mode = "selftest";
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (a.mode == "selftest") return SelfTest();
  if (a.out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  if (a.mode == "goldens") {
    Status st = DeriveGoldens(a);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return st.ok() ? 0 : 1;
  }
  Out out(a.out);
  if (!out.ok()) {
    std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
    return 2;
  }
  Common cm{a, &out, {}};
  Status st;
  if (a.workload == "tpch_power") st = RunTpchPower(&cm);
  else if (a.workload == "short_stmt") st = RunShortStmt(&cm);
  else if (a.workload == "ingest_read") st = RunIngestRead(&cm);
  else st = Status::InvalidArgument("unknown workload " + a.workload);
  out.Line(Obj().S("t", "end").B("ok", st.ok()).S("error", st.ToString())
               .N("attempted", static_cast<double>(cm.tally.attempted.load()))
               .N("ok_stmts", static_cast<double>(cm.tally.ok.load()))
               .N("failed", static_cast<double>(cm.tally.failed.load()))
               .N("refused", static_cast<double>(cm.tally.refused.load()))
               .N("wrong", static_cast<double>(cm.tally.wrong.load()))
               .N("peak_rss_mb", PeakRssMb()).Done());
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return st.ok() ? 0 : 1;
}

}  // namespace
}  // namespace hawq::perfbench

int main(int argc, char** argv) { return hawq::perfbench::Main(argc, argv); }
