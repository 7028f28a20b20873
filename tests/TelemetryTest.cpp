//===- tests/TelemetryTest.cpp - Telemetry subsystem unit tests -----------===//
//
// Spans, counters, gauges: registration, thread-local accumulation and
// retirement, snapshot/reset semantics, gauge stride gating, the JSON and
// CSV exporters, and the backend region spans end to end on a real run.
//
//===----------------------------------------------------------------------===//

#include "io/RunIo.h"
#include "io/TelemetryExport.h"
#include "runtime/Runtime.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

using namespace sacfd;

namespace {

/// Every test starts from a clean, enabled slate and leaves telemetry
/// disabled (the binary-global default the other test suites assume).
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    telemetry::reset();
    telemetry::setGaugeStride(1);
    telemetry::setEnabled(true);
  }
  void TearDown() override {
    telemetry::setEnabled(false);
    telemetry::reset();
  }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

TEST_F(TelemetryTest, RegistrationIdsAreStable) {
  unsigned A = telemetry::counterId("test.reg.a");
  unsigned B = telemetry::counterId("test.reg.b");
  EXPECT_NE(A, B);
  EXPECT_EQ(A, telemetry::counterId("test.reg.a"));
  EXPECT_EQ(B, telemetry::counterId("test.reg.b"));
  // Span/counter/gauge namespaces are independent.
  EXPECT_EQ(telemetry::spanId("test.reg.a"),
            telemetry::spanId("test.reg.a"));
  EXPECT_EQ(telemetry::gaugeId("test.reg.a"),
            telemetry::gaugeId("test.reg.a"));
}

TEST_F(TelemetryTest, DisabledProbesRecordNothing) {
  telemetry::setEnabled(false);
  unsigned C = telemetry::counterId("test.disabled.counter");
  unsigned S = telemetry::spanId("test.disabled.span");
  unsigned G = telemetry::gaugeId("test.disabled.gauge");
  telemetry::addCounter(C, 7);
  { telemetry::ScopedSpan Span(S); }
  telemetry::recordGauge(G, 0, 1.0);
  EXPECT_FALSE(telemetry::gaugeDue(0));

  telemetry::MetricsReport R = telemetry::snapshot();
  EXPECT_EQ(R.findCounter("test.disabled.counter"), nullptr);
  EXPECT_EQ(R.findSpan("test.disabled.span"), nullptr);
  EXPECT_EQ(R.findGauge("test.disabled.gauge"), nullptr);
}

TEST_F(TelemetryTest, CountersAccumulateAndSurviveThreadExit) {
  unsigned Id = telemetry::counterId("test.threads.counter");
  // Transient threads model the fork-join backend's per-region teams:
  // their buffers must fold into the retired store on exit.
  std::vector<std::thread> Team;
  for (int T = 0; T < 4; ++T)
    Team.emplace_back([Id] {
      for (int I = 0; I < 1000; ++I)
        telemetry::addCounter(Id);
    });
  for (std::thread &T : Team)
    T.join();
  telemetry::addCounter(Id, 5);

  telemetry::MetricsReport R = telemetry::snapshot();
  const telemetry::CounterTotal *C = R.findCounter("test.threads.counter");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Total, 4005u);
}

TEST_F(TelemetryTest, SpanStatsAggregate) {
  unsigned Id = telemetry::spanId("test.span.stats");
  for (int I = 0; I < 3; ++I)
    telemetry::ScopedSpan Span(Id);

  telemetry::MetricsReport R = telemetry::snapshot();
  const telemetry::SpanStats *S = R.findSpan("test.span.stats");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Count, 3u);
  EXPECT_LE(S->MinNs, S->MaxNs);
  EXPECT_GE(S->TotalNs, S->MaxNs);
  EXPECT_GE(S->meanNs(), static_cast<double>(S->MinNs));
  EXPECT_LE(S->meanNs(), static_cast<double>(S->MaxNs));
}

TEST_F(TelemetryTest, GaugeStrideGatesSampling) {
  telemetry::setGaugeStride(4);
  EXPECT_TRUE(telemetry::gaugeDue(0));
  EXPECT_FALSE(telemetry::gaugeDue(1));
  EXPECT_TRUE(telemetry::gaugeDue(4));
  EXPECT_FALSE(telemetry::gaugeDue(7));

  telemetry::setGaugeStride(0);
  EXPECT_FALSE(telemetry::gaugeDue(0));
  EXPECT_FALSE(telemetry::gaugeDue(4));
}

TEST_F(TelemetryTest, GaugeSeriesAndDrift) {
  unsigned Id = telemetry::gaugeId("test.gauge.drift");
  telemetry::recordGauge(Id, 0, 100.0);
  telemetry::recordGauge(Id, 1, 101.0);
  telemetry::recordGauge(Id, 2, 99.5);

  telemetry::MetricsReport R = telemetry::snapshot();
  const telemetry::GaugeSeries *G = R.findGauge("test.gauge.drift");
  ASSERT_NE(G, nullptr);
  ASSERT_EQ(G->Samples.size(), 3u);
  EXPECT_EQ(G->first(), 100.0);
  EXPECT_EQ(G->last(), 99.5);
  EXPECT_DOUBLE_EQ(G->maxRelativeDrift(), 0.01);
}

TEST_F(TelemetryTest, SnapshotSortsByNameAndResetClears) {
  telemetry::addCounter(telemetry::counterId("test.sort.b"));
  telemetry::addCounter(telemetry::counterId("test.sort.a"));
  telemetry::MetricsReport R = telemetry::snapshot();
  ASSERT_GE(R.Counters.size(), 2u);
  for (size_t I = 1; I < R.Counters.size(); ++I)
    EXPECT_LT(R.Counters[I - 1].Name, R.Counters[I].Name);

  telemetry::reset();
  R = telemetry::snapshot();
  EXPECT_TRUE(R.Counters.empty());
  EXPECT_TRUE(R.Spans.empty());
  EXPECT_TRUE(R.Gauges.empty());
}

TEST_F(TelemetryTest, BackendRegionSpansAndCounterMatchDispatchCount) {
  for (BackendKind K :
       {BackendKind::Serial, BackendKind::ForkJoin, BackendKind::SpinPool}) {
    telemetry::reset();
    auto Exec = createBackend(K, K == BackendKind::Serial ? 1 : 2);
    ArraySolver<1> S(sodProblem(64), SchemeConfig::benchmarkScheme(),
                     *Exec);
    S.advanceSteps(3);

    const char *SpanName = K == BackendKind::Serial     ? "region.serial"
                           : K == BackendKind::ForkJoin ? "region.fork_join"
                                                        : "region.spin_pool";
    telemetry::MetricsReport R = telemetry::snapshot();
    const telemetry::SpanStats *Span = R.findSpan(SpanName);
    ASSERT_NE(Span, nullptr) << SpanName;
    EXPECT_EQ(Span->Count, Exec->regionsDispatched()) << SpanName;

    const telemetry::CounterTotal *Regions =
        R.findCounter("runtime.regions");
    ASSERT_NE(Regions, nullptr);
    EXPECT_EQ(Regions->Total, Exec->regionsDispatched());

    const telemetry::CounterTotal *Steps = R.findCounter("solver.steps");
    ASSERT_NE(Steps, nullptr);
    EXPECT_EQ(Steps->Total, 3u);
  }
}

TEST_F(TelemetryTest, SolverStageSpansAndGaugesAppear) {
  // The fused modes fold the Q^n snapshot into the first stage's update,
  // so only the materialized baseline has a solver.snapshot span.
  for (ArrayEvalMode Mode :
       {ArrayEvalMode::Fused, ArrayEvalMode::Materialized}) {
    const bool Materialized = Mode == ArrayEvalMode::Materialized;
    SCOPED_TRACE(Materialized ? "materialized" : "fused");
    telemetry::reset();
    auto Exec = createBackend(BackendKind::Serial, 1);
    ArraySolver<2> S(shockInteraction2D(16, 2.2, 8.0),
                     SchemeConfig::benchmarkScheme(), *Exec, Mode);
    S.advanceSteps(2);

    telemetry::MetricsReport R = telemetry::snapshot();
    for (const char *Name : {"solver.get_dt", "solver.boundary",
                             "solver.flux", "solver.update"})
      EXPECT_NE(R.findSpan(Name), nullptr) << Name;
    EXPECT_EQ(R.findSpan("solver.snapshot") != nullptr, Materialized);
    for (const char *Name : {"step.dt", "step.max_eigen", "step.mass",
                             "step.momentum0", "step.momentum1",
                             "step.energy"}) {
      const telemetry::GaugeSeries *G = R.findGauge(Name);
      ASSERT_NE(G, nullptr) << Name;
      EXPECT_EQ(G->Samples.size(), 2u) << Name;
    }
  }
}

TEST_F(TelemetryTest, FusedModesRunAFixedNumberOfRegionsPerRk3Step) {
  // The pass structure of one 2D RK3 step, per stage: one ghost-fill
  // region (every side, corners included), then the array engine's one
  // flux with-loop (both axes' flux fields) and its combine (residual,
  // update and GetDT folded), or the fused engine's one row pass, which
  // is the whole stage (both axes, the update written out of place with
  // each cell's residual folded in, and GetDT on the last stage; no
  // snapshot).  The figure
  // scheme (WENO3) runs the same passes as PC1 on both engines.
  // Only the first step's GetDT runs as a region of its own.  Gauges are
  // due at every step here, and the gauges' interior pass
  // (solver.summarize) is one more region per step.
  for (BackendKind Kind : {BackendKind::Serial, BackendKind::SpinPool}) {
    auto Exec = createBackend(Kind, Kind == BackendKind::Serial ? 1 : 2);
    ASSERT_NE(Exec, nullptr);
    Problem<2> Prob = shockInteraction2D(16, 2.2, 8.0);
    for (const SchemeConfig &Scheme :
         {SchemeConfig::benchmarkScheme(), SchemeConfig::figureScheme()}) {
      ASSERT_EQ(Scheme.Integrator, TimeIntegratorKind::SspRk3);
      for (bool ArrayEngine : {true, false}) {
        SCOPED_TRACE(std::string(ArrayEngine ? "array" : "fused") + " " +
                     Scheme.str() + " on " + Exec->name());
        const uint64_t PerStep = ArrayEngine ? 9 : 6;
        std::unique_ptr<EulerSolver<2>> S;
        if (ArrayEngine)
          S = std::make_unique<ArraySolver<2>>(Prob, Scheme, *Exec);
        else
          S = std::make_unique<FusedSolver<2>>(Prob, Scheme, *Exec);
        S->advance();
        telemetry::reset();
        const uint64_t Before = Exec->regionsDispatched();
        constexpr unsigned Steps = 3;
        S->advanceSteps(Steps);
        EXPECT_EQ(Exec->regionsDispatched() - Before, Steps * (PerStep + 1));

        telemetry::MetricsReport R = telemetry::snapshot();
        const telemetry::CounterTotal *Regions =
            R.findCounter("runtime.regions");
        ASSERT_NE(Regions, nullptr);
        EXPECT_EQ(Regions->Total, Steps * (PerStep + 1));
        EXPECT_EQ(R.findSpan("solver.get_dt"), nullptr);
        EXPECT_EQ(R.findSpan("solver.snapshot"), nullptr);
      }
    }
  }
}

TEST_F(TelemetryTest, StepGaugesSampleClockTotalsAndHealthExactly) {
  // The per-step history is the step.* gauges: every sample must equal,
  // bit for bit, the clock, conservedTotals() and fieldHealth() at that
  // step (one shared interior pass), at the configured stride.
  auto Exec = createBackend(BackendKind::Serial, 1);
  ArraySolver<2> S(shockInteraction2D(16, 2.2, 8.0),
                   SchemeConfig::benchmarkScheme(), *Exec);
  telemetry::setGaugeStride(2);
  struct Row {
    unsigned Step;
    double Time, Mass, MinDensity, MinPressure;
  };
  std::vector<Row> Want;
  for (int I = 0; I < 6; ++I) {
    S.advance();
    if (S.stepCount() % 2 != 0)
      continue;
    FieldHealth<2> H = fieldHealth(S);
    Want.push_back({S.stepCount(), S.time(), conservedTotals(S).Mass,
                    H.MinDensity, H.MinPressure});
  }

  auto Same = [](double A, double B) {
    return std::memcmp(&A, &B, sizeof(double)) == 0;
  };
  telemetry::MetricsReport R = telemetry::snapshot();
  const std::pair<const char *, double Row::*> Gauges[] = {
      {"step.time", &Row::Time},
      {"step.mass", &Row::Mass},
      {"step.min_density", &Row::MinDensity},
      {"step.min_pressure", &Row::MinPressure}};
  for (const auto &[Name, Field] : Gauges) {
    const telemetry::GaugeSeries *G = R.findGauge(Name);
    ASSERT_NE(G, nullptr) << Name;
    ASSERT_EQ(G->Samples.size(), Want.size()) << Name;
    for (size_t K = 0; K < Want.size(); ++K) {
      EXPECT_EQ(G->Samples[K].Step, Want[K].Step) << Name;
      EXPECT_TRUE(Same(G->Samples[K].Value, Want[K].*Field))
          << Name << " at step " << Want[K].Step;
    }
  }
}

TEST_F(TelemetryTest, SummarizeSpanRunsOncePerGaugeDueStep) {
  // The gauges' interior pass is its own span, so its share of a
  // gauged run can be read off the report.  It runs exactly once per
  // gauge-due step, and never when gauges are off.
  for (unsigned Stride : {2u, 0u}) {
    SCOPED_TRACE("gauge stride " + std::to_string(Stride));
    telemetry::reset();
    telemetry::setGaugeStride(Stride);
    auto Exec = createBackend(BackendKind::Serial, 1);
    FusedSolver<2> S(shockInteraction2D(16, 2.2, 8.0),
                     SchemeConfig::benchmarkScheme(), *Exec);
    S.advanceSteps(6);
    telemetry::MetricsReport R = telemetry::snapshot();
    const telemetry::SpanStats *Span = R.findSpan("solver.summarize");
    if (Stride == 0) {
      EXPECT_EQ(Span, nullptr);
      continue;
    }
    ASSERT_NE(Span, nullptr);
    EXPECT_EQ(Span->Count, 3u);
    const telemetry::GaugeSeries *Mass = R.findGauge("step.mass");
    ASSERT_NE(Mass, nullptr);
    EXPECT_EQ(Span->Count, Mass->Samples.size());
  }
}

TEST_F(TelemetryTest, JsonExportHasSchemaMetaAndData) {
  telemetry::addCounter(telemetry::counterId("test.json.counter"), 42);
  { telemetry::ScopedSpan Span(telemetry::spanId("test.json.span")); }
  telemetry::recordGauge(telemetry::gaugeId("test.json.gauge"), 5, 2.5);
  // JSON has no NaN literal; a poisoned-field sample must become null.
  telemetry::recordGauge(telemetry::gaugeId("test.json.gauge"), 6,
                         std::nan(""));

  std::string Path = "telemetry_test_export.json";
  ASSERT_TRUE(writeTelemetryJson(Path, telemetry::snapshot(),
                                 {{"program", "TelemetryTest"},
                                  {"quoted \"key\"", "line\nbreak"}}));
  std::string Json = slurp(Path);
  std::remove(Path.c_str());

  EXPECT_NE(Json.find("\"schema\": \"sacfd-telemetry-1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"program\": \"TelemetryTest\""), std::string::npos);
  EXPECT_NE(Json.find("\\\"key\\\""), std::string::npos) << "escaping";
  EXPECT_NE(Json.find("line\\nbreak"), std::string::npos) << "escaping";
  EXPECT_NE(Json.find("\"test.json.counter\", \"total\": 42"),
            std::string::npos);
  EXPECT_NE(Json.find("\"test.json.span\""), std::string::npos);
  EXPECT_NE(Json.find("{\"step\": 5, \"value\": 2.5}"), std::string::npos);
  EXPECT_NE(Json.find("{\"step\": 6, \"value\": null}"), std::string::npos);
  EXPECT_EQ(Json.find("nan"), std::string::npos);
}

TEST_F(TelemetryTest, RunReportNamesKernelBuild) {
  // A run must explain itself: a scalar-kernel run writes different
  // metadata than a default (simd) run.
  auto ReportOf = [](RunConfig Cfg) {
    Cfg.Telemetry.Path =
        std::string(::testing::TempDir()) + "/telemetry_run_meta.json";
    SolverRun<2> Run(riemann2D(8), Cfg);
    Run.advanceSteps(1);
    std::string Error;
    EXPECT_TRUE(writeRunTelemetry(Run, "TelemetryTest", {}, &Error))
        << Error;
    std::string Json = slurp(Cfg.Telemetry.Path);
    std::remove(Cfg.Telemetry.Path.c_str());
    return Json;
  };

  RunConfig Scalar;
  Scalar.Engine = EngineKind::Fused;
  Scalar.Threads = 2;
  Scalar.Simd = false;
  std::string Json = ReportOf(Scalar);
  EXPECT_NE(Json.find("\"simd\": \"off\""), std::string::npos) << Json;

  RunConfig Default;
  Default.Threads = 1;
  Json = ReportOf(Default);
  EXPECT_NE(Json.find("\"simd\": \"on\""), std::string::npos) << Json;
}

TEST_F(TelemetryTest, ExportCreatesMissingOutputDirectory) {
  // --telemetry-json pointed at a not-yet-existing directory must not
  // lose the run's telemetry at exit: the exporter creates the path.
  telemetry::addCounter(telemetry::counterId("test.dir.counter"), 1);
  std::string Base = std::string(::testing::TempDir()) + "/telemetry-new-dir";
  std::filesystem::remove_all(Base);
  std::string JsonPath = Base + "/a/run.json";
  std::string CsvPath = Base + "/b/run.csv";
  std::string Error;
  ASSERT_TRUE(writeTelemetryJson(JsonPath, telemetry::snapshot(), {}, &Error))
      << Error;
  ASSERT_TRUE(writeTelemetryCsv(CsvPath, telemetry::snapshot(), &Error))
      << Error;
  EXPECT_NE(slurp(JsonPath).find("sacfd-telemetry-1"), std::string::npos);
  EXPECT_NE(slurp(CsvPath).find("kind,name"), std::string::npos);
  std::filesystem::remove_all(Base);
}

TEST_F(TelemetryTest, ExportErrorNamesTheFailingPath) {
  // Parent blocked by a regular file: a structured error naming the
  // path, for both exporters.
  std::string Blocker = std::string(::testing::TempDir()) + "/telemetry-blocker";
  { std::ofstream(Blocker) << "x"; }
  std::string Path = Blocker + "/run.json";
  std::string Error;
  EXPECT_FALSE(writeTelemetryJson(Path, telemetry::snapshot(), {}, &Error));
  EXPECT_NE(Error.find("cannot create directory"), std::string::npos) << Error;
  EXPECT_NE(Error.find(Blocker), std::string::npos) << Error;
  Error.clear();
  EXPECT_FALSE(writeTelemetryCsv(Blocker + "/run.csv", telemetry::snapshot(),
                                 &Error));
  EXPECT_NE(Error.find(Blocker), std::string::npos) << Error;
  std::remove(Blocker.c_str());
}

TEST_F(TelemetryTest, CsvExportEmitsLongFormatRows) {
  telemetry::addCounter(telemetry::counterId("test.csv.counter"), 9);
  telemetry::recordGauge(telemetry::gaugeId("test.csv.gauge"), 1, 0.5);

  std::string Path = "telemetry_test_export.csv";
  ASSERT_TRUE(writeTelemetryCsv(Path, telemetry::snapshot()));
  std::string Csv = slurp(Path);
  std::remove(Path.c_str());

  EXPECT_NE(Csv.find("kind,name,count,total_ns,min_ns,max_ns,step,value"),
            std::string::npos);
  EXPECT_NE(Csv.find("counter,test.csv.counter,9"), std::string::npos);
  EXPECT_NE(Csv.find("gauge,test.csv.gauge,,,,,1,0.5"), std::string::npos);
}
