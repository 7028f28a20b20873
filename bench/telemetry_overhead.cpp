//===- bench/telemetry_overhead.cpp - Instrumentation cost ----------------===//
//
// Prices the telemetry subsystem on the 2D interaction workload:
//
//   disabled   telemetry off — every probe is one relaxed atomic load
//   enabled    spans + counters + every-step gauges all recording
//
// Both configurations run the identical solver; the difference is pure
// instrumentation cost.  The per-region spans fire ~27 times per RK3
// step (every parallelFor dispatch) plus the per-stage solver spans, so
// this measures the worst-case probe density the codebase has.  Target:
// < 2% overhead with gauges at every-step granularity.
//
// Median-of-N (--iters) per-step seconds, like guard_overhead.
//
//===----------------------------------------------------------------------===//

#include "solver/Problems.h"
#include "solver/SolverFactory.h"
#include "support/CommandLine.h"
#include "support/Timer.h"
#include "telemetry/Telemetry.h"

#include <cstdio>

using namespace sacfd;

namespace {

/// Median per-step seconds of a run, and of that the median per-step
/// time in the gauges' interior pass (the "solver.summarize" span, one
/// backend region; 0 while telemetry is off).
struct StepCost {
  double Step = 0.0;
  double Summarize = 0.0;
};

StepCost measurePerStep(unsigned Iters, unsigned Steps, const Problem<2> &Prob,
                        const RunConfig &Cfg) {
  TimingSamples PerStep, SummarizePerStep;
  for (unsigned I = 0; I < Iters; ++I) {
    SolverRun<2> Run = makeSolverRun(Prob, Cfg);
    WallTimer T;
    Run.advanceSteps(Steps);
    const double Taken = Run.solver().stepCount();
    PerStep.add(T.seconds() / Taken);
    const telemetry::MetricsReport R = telemetry::snapshot();
    const telemetry::SpanStats *S = R.findSpan("solver.summarize");
    SummarizePerStep.add(S ? static_cast<double>(S->TotalNs) * 1e-9 / Taken
                           : 0.0);
    // Keep the retired-buffer store bounded across iterations.
    telemetry::reset();
  }
  return {PerStep.median(), SummarizePerStep.median()};
}

} // namespace

int main(int Argc, const char **Argv) {
  int Cells = 160;
  unsigned Steps = 60;
  unsigned Iters = 5;
  bool Full = false;
  bool Check = false;
  RunConfig Cfg;
  Cfg.Scheme = SchemeConfig::benchmarkScheme();

  CommandLine CL("telemetry_overhead",
                 "instrumentation cost: identical runs with telemetry "
                 "disabled vs fully enabled (every-step gauges)");
  CL.addInt("cells", Cells, "2D grid cells per axis");
  CL.addUnsigned("steps", Steps, "solver steps per measurement");
  CL.addUnsigned("iters", Iters,
                 "timing repetitions per configuration (median wins)");
  CL.addFlag("full", Full, "larger grid and more steps");
  CL.addFlag("check", Check, "exit nonzero if overhead exceeds 2%");
  // Telemetry on/off is what this bench measures, so only the other
  // RunConfig groups are exposed.
  Cfg.registerSchemeFlags(CL);
  Cfg.registerEngineFlag(CL);
  Cfg.registerBackendFlags(CL);
  Cfg.registerScheduleFlags(CL);
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  if (Full) {
    Cells = 320;
    Steps = 120;
  }
  if (Iters == 0)
    Iters = 1;
  Cfg.resolveOrExit();

  Problem<2> Prob = shockInteraction2D(static_cast<size_t>(Cells), 2.2,
                                       static_cast<double>(Cells) / 2.0);

  std::printf("# telemetry_overhead: %dx%d, %u steps, %s, median of %u\n",
              Cells, Cells, Steps, Cfg.executionStr().c_str(), Iters);
  std::printf("%-12s %12s %12s\n", "telemetry", "step[ms]", "steps/s");

  // Warm up the pool and the page cache once so neither configuration
  // pays first-touch costs.
  measurePerStep(1, Steps, Prob, Cfg);

  telemetry::setEnabled(false);
  double Disabled = measurePerStep(Iters, Steps, Prob, Cfg).Step;
  std::printf("%-12s %12.4f %12.1f\n", "disabled", Disabled * 1e3,
              1.0 / Disabled);

  telemetry::setGaugeStride(1);
  telemetry::setEnabled(true);
  const StepCost On = measurePerStep(Iters, Steps, Prob, Cfg);
  const double Enabled = On.Step;
  telemetry::setEnabled(false);
  std::printf("%-12s %12.4f %12.1f\n", "enabled", Enabled * 1e3,
              1.0 / Enabled);

  double Overhead = Enabled / Disabled - 1.0;
  std::printf("# overhead: %.2f%% (target < 2%%)\n", Overhead * 100.0);
  // How much of the overhead is the gauges' pass over the field.
  std::printf("# solver.summarize: %.4f ms/step = %.2f%% of the disabled "
              "step\n",
              On.Summarize * 1e3, On.Summarize / Disabled * 100.0);
  return Check && Overhead >= 0.02 ? 1 : 0;
}
