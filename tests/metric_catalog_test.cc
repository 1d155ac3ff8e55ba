// Metric-catalog lint: every instrument a full-feature installation
// publishes must have a row in docs/OBSERVABILITY.md's catalog tables with
// the right kind, and every catalog row must match at least one published
// instrument — so the doc can never silently drift from the code.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/load/workload.h"
#include "tests/test_util.h"

#ifndef CALLIOPE_SOURCE_DIR
#error "CALLIOPE_SOURCE_DIR must point at the repo root"
#endif

namespace calliope {
namespace {

// One piece of a documented metric name: literal text or a placeholder.
struct PatternPart {
  enum class Kind { kLiteral, kNode, kInteger, kName, kClass };
  Kind kind = Kind::kLiteral;
  std::string literal;
};

struct CatalogRow {
  std::string pattern;  // documented name, placeholders intact
  std::string kind;     // counter | gauge | histogram
  std::vector<PatternPart> parts;
  bool matched = false;
};

// Placeholders: <node> an MSU node name, <d>/<N> an integer, <name> an SLO
// name, <class> an admission class.
std::vector<PatternPart> ParsePattern(const std::string& pattern) {
  std::vector<PatternPart> parts;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] != '<') {
      if (parts.empty() || parts.back().kind != PatternPart::Kind::kLiteral) {
        parts.emplace_back();
      }
      parts.back().literal += pattern[i];
      continue;
    }
    const size_t close = pattern.find('>', i);
    EXPECT_NE(close, std::string::npos) << pattern;
    if (close == std::string::npos) {
      break;
    }
    const std::string placeholder = pattern.substr(i + 1, close - i - 1);
    PatternPart part;
    if (placeholder == "node") {
      part.kind = PatternPart::Kind::kNode;
    } else if (placeholder == "d" || placeholder == "N") {
      part.kind = PatternPart::Kind::kInteger;
    } else if (placeholder == "name") {
      part.kind = PatternPart::Kind::kName;
    } else if (placeholder == "class") {
      part.kind = PatternPart::Kind::kClass;
    } else {
      ADD_FAILURE() << "unknown placeholder <" << placeholder << "> in " << pattern;
    }
    parts.push_back(std::move(part));
    i = close;
  }
  return parts;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsNameChar(char c) {
  return IsDigit(c) || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c == '_' || c == '-';
}

// True if all of `name` matches parts[index..]. A placeholder consumes one
// or more characters; every split is tried, so a placeholder never steals
// text the rest of the pattern needs.
bool MatchesFrom(const std::vector<PatternPart>& parts, size_t index, std::string_view name) {
  if (index == parts.size()) {
    return name.empty();
  }
  const PatternPart& part = parts[index];
  switch (part.kind) {
    case PatternPart::Kind::kLiteral:
      return name.starts_with(part.literal) &&
             MatchesFrom(parts, index + 1, name.substr(part.literal.size()));
    case PatternPart::Kind::kClass:
      for (std::string_view admission_class : {"interactive", "standard", "bulk"}) {
        if (name.starts_with(admission_class) &&
            MatchesFrom(parts, index + 1, name.substr(admission_class.size()))) {
          return true;
        }
      }
      return false;
    case PatternPart::Kind::kNode:
      if (!name.starts_with("msu")) {
        return false;
      }
      name.remove_prefix(3);
      [[fallthrough]];
    case PatternPart::Kind::kInteger:
    case PatternPart::Kind::kName: {
      const bool digits_only = part.kind != PatternPart::Kind::kName;
      for (size_t n = 1; n <= name.size(); ++n) {
        const char c = name[n - 1];
        if (digits_only ? !IsDigit(c) : !IsNameChar(c)) {
          break;
        }
        if (MatchesFrom(parts, index + 1, name.substr(n))) {
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

bool Matches(const CatalogRow& row, const std::string& name) {
  return MatchesFrom(row.parts, 0, name);
}

// Reads a "| `name` | kind |" catalog table row; false for any other line.
bool ParseRow(const std::string& line, std::string* name, std::string* kind) {
  constexpr std::string_view kOpen = "| `";
  if (!line.starts_with(kOpen)) {
    return false;
  }
  const size_t close = line.find('`', kOpen.size());
  if (close == std::string::npos || close == kOpen.size()) {
    return false;
  }
  const std::string_view rest = std::string_view(line).substr(close);
  for (std::string_view candidate : {"counter", "gauge", "histogram"}) {
    if (rest.starts_with("` | ") && rest.substr(4).starts_with(candidate) &&
        rest.substr(4 + candidate.size()).starts_with(" |")) {
      *name = line.substr(kOpen.size(), close - kOpen.size());
      *kind = candidate;
      return true;
    }
  }
  return false;
}

// Parses every `| `name` | kind | meaning |` table row in the catalog.
std::vector<CatalogRow> LoadCatalog(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::vector<CatalogRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    CatalogRow row;
    if (!ParseRow(line, &row.pattern, &row.kind)) {
      continue;
    }
    row.parts = ParsePattern(row.pattern);
    rows.push_back(std::move(row));
  }
  EXPECT_GT(rows.size(), 30u) << "catalog parse came up nearly empty — format drift?";
  return rows;
}

// The second HA coordinator republishes everything under coord2.*; the doc
// documents that with one sentence, not duplicate rows.
std::string Normalized(const std::string& name) {
  if (name.rfind("coord2.", 0) == 0) {
    return "coord." + name.substr(7);
  }
  return name;
}

void MergeSnapshot(const MetricsSnapshot& snapshot,
                   std::map<std::string, std::string>& published) {
  for (const auto& [name, value] : snapshot.counters) {
    published[Normalized(name)] = "counter";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    published[Normalized(name)] = "gauge";
  }
  for (const auto& [name, stats] : snapshot.histograms) {
    published[Normalized(name)] = "histogram";
  }
}

TEST(MetricCatalogTest, PlaceholderMatcherAcceptsOnlyWhatTheCatalogMeans) {
  const auto row_for = [](const std::string& pattern) {
    CatalogRow row;
    row.pattern = pattern;
    row.parts = ParsePattern(pattern);
    return row;
  };
  const CatalogRow disk = row_for("hw.<node>.disk<d>.ops");
  EXPECT_TRUE(Matches(disk, "hw.msu0.disk1.ops"));
  EXPECT_TRUE(Matches(disk, "hw.msu12.disk10.ops"));
  EXPECT_FALSE(Matches(disk, "hw.msu.disk1.ops"));      // <node> needs digits
  EXPECT_FALSE(Matches(disk, "hw.client0.disk1.ops"));  // <node> is an MSU
  EXPECT_FALSE(Matches(disk, "hw.msu0.diskA.ops"));
  EXPECT_FALSE(Matches(disk, "hw.msu0.disk1.ops.extra"));
  EXPECT_FALSE(Matches(disk, "xhw.msu0.disk1.ops"));
  const CatalogRow slo = row_for("slo.<name>.breaching");
  EXPECT_TRUE(Matches(slo, "slo.lateness-p99.breaching"));
  EXPECT_FALSE(Matches(slo, "slo.a.b.breaching"));  // <name> holds no dot
  EXPECT_FALSE(Matches(slo, "slo..breaching"));     // nor is it empty
  const CatalogRow admission = row_for("coord.admission.<class>.queued");
  EXPECT_TRUE(Matches(admission, "coord.admission.bulk.queued"));
  EXPECT_FALSE(Matches(admission, "coord.admission.premium.queued"));
  // A placeholder backs off when the literal after it needs its text.
  EXPECT_TRUE(Matches(row_for("q.<name>_depth"), "q.a_b_depth"));
  EXPECT_FALSE(Matches(row_for("a.b"), "aXb"));  // '.' is literal

  std::string name;
  std::string kind;
  EXPECT_TRUE(ParseRow("| `net.bytes.intra` | counter | Bytes on the LAN |", &name, &kind));
  EXPECT_EQ(name, "net.bytes.intra");
  EXPECT_EQ(kind, "counter");
  EXPECT_FALSE(ParseRow("| `net.bytes.intra` | rate | Bytes |", &name, &kind));
  EXPECT_FALSE(ParseRow("| `` | counter | empty name |", &name, &kind));
  EXPECT_FALSE(ParseRow(" | `x` | counter |", &name, &kind));
}

TEST(MetricCatalogTest, EveryPublishedMetricIsDocumentedAndViceVersa) {
  std::map<std::string, std::string> published;  // name -> kind

  {
    // Full-feature installation A: HA standby + rebalancing + faults +
    // sampler + SLO + stream sharing with an interval cache.
    InstallationConfig config;
    config.msu_count = 2;
    config.standby_coordinator = true;
    config.coordinator.sharing.enabled = true;
    config.msu.cache_memory = Bytes::MiB(16);
    config.coordinator.rebalance.enabled = true;
    config.sampler.period = SimTime::Millis(500);
    SloSpec slo;
    slo.name = "lateness-p99";
    slo.signal = SloSpec::Signal::kLatenessP99;
    slo.threshold = SimTime::Millis(50).micros();
    config.slos.push_back(slo);
    Installation calliope(config);
    ASSERT_TRUE(calliope.Boot().ok());
    ASSERT_TRUE(calliope.ApplyFaultPlan(FaultPlan()).ok());
    calliope.sim().RunFor(SimTime::Seconds(1));
    MergeSnapshot(calliope.metrics().Snapshot(), published);
  }
  {
    // Installation B: traffic control (admission classes + shedding) and the
    // workload generator's load.* instruments.
    InstallationConfig config;
    config.msu_count = 1;
    config.coordinator.traffic.enabled = true;
    config.sampler.period = SimTime::Millis(500);
    Installation calliope(config);
    ASSERT_TRUE(calliope.Boot().ok());
    WorkloadConfig workload;
    workload.titles = 1;
    workload.archive_titles = 1;
    workload.client_hosts = 1;
    workload.phases = {WorkloadPhase(SimTime::Seconds(1), 1.0)};
    WorkloadDriver driver(calliope, workload);
    ASSERT_TRUE(driver.Prepare().ok());
    driver.Start();
    calliope.sim().RunFor(SimTime::Seconds(2));
    MergeSnapshot(calliope.metrics().Snapshot(), published);
  }
  ASSERT_GT(published.size(), 30u);

  std::vector<CatalogRow> catalog =
      LoadCatalog(std::string(CALLIOPE_SOURCE_DIR) + "/docs/OBSERVABILITY.md");

  for (const auto& [name, kind] : published) {
    bool documented = false;
    for (CatalogRow& row : catalog) {
      if (Matches(row, name)) {
        row.matched = true;
        documented = true;
        EXPECT_EQ(kind, row.kind)
            << name << " is published as a " << kind << " but documented as a " << row.kind
            << " (row `" << row.pattern << "`)";
      }
    }
    EXPECT_TRUE(documented) << name << " (" << kind
                            << ") is published but has no docs/OBSERVABILITY.md catalog row";
  }
  for (const CatalogRow& row : catalog) {
    EXPECT_TRUE(row.matched) << "stale catalog row `" << row.pattern << "` (" << row.kind
                             << "): no full-feature installation publishes a matching metric";
  }
}

}  // namespace
}  // namespace calliope
