//===- perfbench/perfbench.cpp - Layered end-to-end benchmark -------------===//
//
// One run of one workload through SacFD's public API (SolverRun /
// makeSolverRun, ShardCoordinator, CheckpointStore, the scenario
// registry), with a correctness gate on the result.  Prints one JSON line
// last: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1.  perfbench/run.py builds this program and calls it; see
// perfbench/README.md for the workloads, the metrics and why they were
// chosen.
//
//   perfbench --workload fig4-fused --seed 0 --seconds 20 --trace 0
//   perfbench --workload ext5-shards --seed 3 --seconds 20 --record
//
//===----------------------------------------------------------------------===//

#include "PinnedHashes.h"
#include "Trace.h"

#include "array/AllocCounter.h"
#include "io/CheckpointStore.h"
#include "io/RunIo.h"
#include "kernels/Kernels.h"
#include "numerics/Reconstruction.h"
#include "runtime/Runtime.h"
#include "shard/ShardCoordinator.h"
#include "shard/ShardPlan.h"
#include "solver/Scenario.h"
#include "solver/SolverFactory.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace sacfd;
using perfbench::nowNs;
using perfbench::Span;
using perfbench::tracer;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// What defines a workload.  Every RunConfig / ShardOptions field not
/// named here stays at its default, so a change of default (layout,
/// SIMD, pooling) is measured rather than pinned.
struct Workload {
  const char *Name;
  /// Registry scenario and its resolution (`cells=`).
  const char *Scenario;
  unsigned Cells;
  /// PC1 + HLLC + RK3 (the paper's Fig. 4 scheme) instead of the
  /// scenario's own tuning.
  bool BenchmarkScheme;
  /// The seed picks the inflow shock Mach number (shock-interaction).
  bool MachFromSeed;
  EngineKind Engine;
  BackendKind Backend;
  unsigned Threads;
  /// Row-block shard processes (0 = a single-process SolverRun).
  unsigned Shards;
  /// Checkpoint cadence in steps (0 = not durable).
  unsigned CheckpointEvery;
  /// Expected step cost on the reference host; sizes the timed step
  /// count from --seconds, so the step count (and with it the pinned
  /// hash) is a function of the arguments alone, never of host speed.
  double NominalStepMs;
  /// Steps run during set-up so the field pool is filled and pages are
  /// touched before timing.
  unsigned WarmupSteps;
};

const Workload Workloads[] = {
    {"fig4-fused", "shock-interaction", 400, true, true, EngineKind::Fused,
     BackendKind::Serial, 1, 0, 0, 80.0, 2},
    {"fig4-sac", "shock-interaction", 400, true, true, EngineKind::Array,
     BackendKind::SpinPool, 2, 0, 0, 48.0, 2},
    {"ext5-shards", "shock-interaction", 1000, true, true, EngineKind::Fused,
     BackendKind::Serial, 1, 2, 0, 350.0, 1},
    {"dmr-durable", "double-mach", 80, false, false, EngineKind::Fused,
     BackendKind::Serial, 1, 0, 5, 57.0, 2},
};

/// Each run is this many independent solves of the workload, one after
/// the other ("segments").  Each sets up afresh, which gives one setup_s
/// sample, runs its share of the timed steps and is checked on its own.
/// Spreading the set-ups over the whole run keeps a host stall of a
/// second or two from moving the median set-up time.
constexpr unsigned Segments = 7;

/// The seed selects one of these input variants (variant 0 is the
/// paper's Ms = 2.2), so every seed maps onto a pinned reference hash.
constexpr unsigned InputVariants = 8;

double machNumber(unsigned Variant) {
  static const int Offset[InputVariants] = {0, 1, -1, 2, -2, 3, -3, 4};
  return 2.2 + 0.015 * Offset[Variant];
}

std::string scenarioSpec(const Workload &W, unsigned Variant) {
  std::string S = std::string(W.Scenario) + ":cells=" + std::to_string(W.Cells);
  if (W.MachFromSeed) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.3f", machNumber(Variant));
    S += std::string(",ms=") + Buf;
  }
  return S;
}

RunConfig makeConfig(const Workload &W, unsigned Variant) {
  RunConfig Cfg;
  if (W.BenchmarkScheme)
    Cfg.Scheme = SchemeConfig::benchmarkScheme();
  Cfg.Engine = W.Engine;
  Cfg.Backend = W.Backend;
  Cfg.Threads = W.Threads;
  Cfg.setScenarioSpec(scenarioSpec(W, Variant));
  std::string Error;
  if (!Cfg.resolve(Error))
    reportFatalError(("perfbench: " + Error).c_str());
  return Cfg;
}

/// Timed steps per segment for \p Seconds of measurement in all.  A
/// durable workload runs a whole number of checkpoint periods per segment
/// (the hook is installed when timing starts), so every segment ends on a
/// generation the resume check reloads.
unsigned segmentSteps(const Workload &W, double Seconds) {
  unsigned N = static_cast<unsigned>(std::max(
      1.0, std::round(Seconds * 1000.0 / (W.NominalStepMs * Segments))));
  if (unsigned E = W.CheckpointEvery)
    N = (N + E - 1) / E * E;
  return N;
}

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return percentile(V, 0.5); }

double sum(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return S;
}

double cpuSeconds(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

double maxRssMb(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

bool allFinite(const Cons<2> *Cells, size_t Count) {
  for (size_t I = 0; I < Count; ++I) {
    const Cons<2> &Q = Cells[I];
    if (!std::isfinite(Q.Rho) || !std::isfinite(Q.Mom[0]) ||
        !std::isfinite(Q.Mom[1]) || !std::isfinite(Q.E))
      return false;
  }
  return true;
}

bool allFinite(const EulerSolver<2> &S) {
  const Grid<2> &G = S.problem().Domain;
  std::vector<Cons<2>> Interior;
  Interior.reserve(G.interiorCount());
  Shape Shp = G.interiorShape();
  Index Iv = Shp.delinearize(0);
  do {
    Interior.push_back(S.field().at(G.toStorage(Iv)));
  } while (Shp.increment(Iv));
  return allFinite(Interior.data(), Interior.size());
}

/// Runs \p F and \returns its wall time in milliseconds.
template <typename Fn> double timeMs(Fn &&F) {
  uint64_t T0 = nowNs();
  F();
  return static_cast<double>(nowNs() - T0) * 1e-6;
}

/// The single-process reference: \p Steps steps of the fused engine
/// through SolverRun::advanceSteps.  Both engines and every backend are
/// bit-identical, so this hash is what every workload on the same inputs
/// must reproduce; the spin-pool backend only makes it quicker to record.
uint64_t referenceHash(const Workload &W, unsigned Variant, unsigned Steps) {
  RunConfig Cfg = makeConfig(W, Variant);
  Cfg.Engine = EngineKind::Fused;
  Cfg.Backend = BackendKind::SpinPool;
  Cfg.Threads = 3;
  SolverRun<2> Run = makeSolverRun<2>(resolveProblem<2>(Problem<2>(), Cfg),
                                      Cfg);
  Run.advanceSteps(Steps);
  return fieldStateHash(Run.solver());
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

struct Outcome {
  std::vector<Metric> Metrics;
  unsigned Attempted = 0;
  unsigned Failed = 0;
  std::vector<std::string> Failures;

  void add(std::string Name, double Value, const char *Unit) {
    Metrics.push_back({std::move(Name), Value, Unit});
  }
  /// Counts one operation; a false \p Ok records \p What as a failure.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      Failures.push_back(What);
    }
  }
};

/// What the timed steps of one run measured, pooled over its segments.
struct Samples {
  /// Per-step wall times of the untraced and the traced segments.
  std::vector<double> StepMs;
  std::vector<double> TracedStepMs;
  /// One set-up time per segment.
  std::vector<double> SetupS;
  double WallS = 0.0;
  double TracedWallS = 0.0;
  double CpuS = 0.0;
  /// Parallel regions dispatched and allocations made by the untraced
  /// steps.
  uint64_t Regions = 0;
  uint64_t Allocs = 0;
  std::vector<double> WriteMs;
  double TracedWriteMs = 0.0;
  std::vector<double> ResumeMs;
  /// Peak RSS at the end of the first segment's steps: the footprint of
  /// one solve, before later set-ups add allocator slack.
  double PeakRssMb = 0.0;
};

//===----------------------------------------------------------------------===//
// Per-layer probes (traced run only)
//===----------------------------------------------------------------------===//

/// Aligned conserved-field storage for kernel probes, in \p L layout.
struct ProbeRun {
  std::unique_ptr<double, decltype(&std::free)> Buf{nullptr, &std::free};
  Layout L;
  size_t Plane;

  ProbeRun(Layout L, size_t Cells) : L(L), Plane(paddedCount(Cells)) {
    size_t Doubles = NumVars<2> * Plane;
    size_t Bytes = (Doubles * sizeof(double) + kFieldAlign - 1) /
                   kFieldAlign * kFieldAlign;
    Buf.reset(static_cast<double *>(std::aligned_alloc(kFieldAlign, Bytes)));
    std::memset(Buf.get(), 0, Bytes);
  }
  kernels::Run<2> run(size_t Offset = 0) const {
    if (L == Layout::SoA)
      return kernels::soaRun<2>(Buf.get(), Plane, Offset);
    return kernels::advance(
        kernels::aosRun<2>(reinterpret_cast<Cons<2> *>(Buf.get())),
        static_cast<ptrdiff_t>(Offset));
  }
  kernels::ConstRun<2> crun(size_t Offset = 0) const { return run(Offset); }
};

/// One interior row (the contiguous axis) of \p S, the probes' input data.
std::vector<Cons<2>> sampleRow(const EulerSolver<2> &S) {
  const Grid<2> &G = S.problem().Domain;
  const ptrdiff_t Mid = static_cast<ptrdiff_t>(G.cells(0) / 2);
  std::vector<Cons<2>> Row(G.cells(1));
  for (size_t J = 0; J < Row.size(); ++J)
    Row[J] = S.field().at(G.toStorage(Index{Mid, static_cast<ptrdiff_t>(J)}));
  return Row;
}

/// Median over batches of the per-item cost of \p Body in ns, where one
/// call of \p Body processes \p Items items.
template <typename Fn> double nsPerItem(size_t Items, Fn &&Body) {
  std::vector<double> Batches;
  unsigned Reps = 1;
  // Size a batch to about 4 ms so clock resolution does not matter.
  for (;;) {
    double Ms = timeMs([&] {
      for (unsigned R = 0; R < Reps; ++R)
        Body();
    });
    if (Ms >= 4.0 || Reps >= (1u << 20))
      break;
    Reps *= 2;
  }
  for (int B = 0; B < 7; ++B) {
    double Ms = timeMs([&] {
      for (unsigned R = 0; R < Reps; ++R)
        Body();
    });
    Batches.push_back(Ms * 1e6 / (static_cast<double>(Reps) * Items));
  }
  return median(Batches);
}

void probeKernels(const EulerSolver<2> &S, const RunConfig &Cfg,
                  Outcome &Out) {
  Span Sp("kernels.probe");
  std::vector<Cons<2>> Row = sampleRow(S);
  const size_t N = Row.size() - 1;
  const Gas &G = S.problem().G;
  ProbeRun U(Cfg.FieldLayout, N + 1), Un(Cfg.FieldLayout, N + 1),
      F(Cfg.FieldLayout, N + 1), Res(Cfg.FieldLayout, N + 1);
  for (size_t I = 0; I <= N; ++I) {
    kernels::storeCons(U.run(), I, Row[I]);
    kernels::storeCons(Un.run(), I, Row[I]);
  }
  const bool Simd = Cfg.Simd;
  const RiemannKind Kind = Cfg.Scheme.Riemann;
  const double InvDx[2] = {1.0 / S.problem().Domain.dx(0),
                           1.0 / S.problem().Domain.dx(1)};
  double Sink = 0.0;
  Out.add("kernels.flux_faces_ns", nsPerItem(N, [&] {
            kernels::fluxFaces<2>(U.crun(), U.crun(1), F.run(), G, 1, Kind,
                                  N, Simd);
          }),
          "ns");
  Out.add("kernels.max_eigen_ns", nsPerItem(N, [&] {
            Sink += kernels::maxEigen<2>(U.crun(), G, InvDx, 0.0, N, Simd);
          }),
          "ns");
  Out.add("kernels.ssp_update_ns", nsPerItem(N, [&] {
            kernels::sspUpdate<2>(Res.run(), Un.crun(), F.crun(), 0.75, 0.25,
                                  1e-12, N, Simd);
          }),
          "ns");
  Out.add("kernels.accum_divergence_ns", nsPerItem(N, [&] {
            kernels::accumDivergence<2>(Res.run(), F.crun(), F.crun(1), 1e-9,
                                        N - 1, Simd);
          }),
          "ns");
  // Computed, not measured: bytes each kernel reads plus writes per cell
  // (fluxFaces 2 states in + 1 out, maxEigen 1 in, sspUpdate 3 in + 1 out,
  // accumDivergence 3 in + 1 out).
  Out.add("kernels.bytes_per_cell",
          static_cast<double>((3 + 1 + 4 + 4) * sizeof(Cons<2>)), "B/cell");
  if (!std::isfinite(Sink))
    Out.check(false, "kernel probe produced a non-finite eigenvalue");
}

void probeRecon(const EulerSolver<2> &S, const SchemeConfig &Scheme,
                Outcome &Out) {
  Span Sp("numerics.probe");
  std::vector<Cons<2>> Row = sampleRow(S);
  const Gas &G = S.problem().G;
  const size_t Faces = Row.size() - 5;
  double Sink = 0.0;
  Out.add("numerics.recon_ns_per_face", nsPerItem(Faces, [&] {
            for (size_t I = 0; I < Faces; ++I) {
              std::array<Cons<2>, 6> Stencil;
              std::copy(Row.begin() + I, Row.begin() + I + 6, Stencil.begin());
              FaceStates<2> F = reconstructFaceStates(
                  Scheme.Recon, Scheme.Limiter, Scheme.Vars, Stencil, G, 1);
              Sink += F.L.Rho;
            }
          }),
          "ns");
  if (!std::isfinite(Sink))
    Out.check(false, "numerics probe produced a non-finite face state");
}

double dispatchUs(Backend &B) {
  return nsPerItem(1, [&] { B.parallelFor(0, 64, [](size_t, size_t) {}); }) *
         1e-3;
}

/// Size of the largest checkpoint generation in \p Dir, in MB.
double generationMb(const std::string &Dir) {
  double Mb = 0.0;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec))
    if (E.path().extension() == ".sacfd")
      Mb = std::max(Mb, static_cast<double>(E.file_size()) / 1e6);
  return Mb;
}

void addSolverShares(double WallS, Outcome &Out) {
  telemetry::MetricsReport R = telemetry::snapshot();
  for (const char *Stage :
       {"flux", "update", "get_dt", "snapshot", "boundary"}) {
    const telemetry::SpanStats *S =
        R.findSpan(std::string("solver.") + Stage);
    double Ns = S ? static_cast<double>(S->TotalNs) : 0.0;
    Out.add(std::string("solver.share.") + Stage, Ns * 1e-9 / WallS, "ratio");
  }
}

/// Reports the metrics of a layer the workload does not run as 0, so
/// every workload prints every per-layer metric.
void addOffPath(
    std::initializer_list<std::pair<const char *, const char *>> Metrics,
    Outcome &Out) {
  for (const auto &[Name, Unit] : Metrics)
    Out.add(Name, 0.0, Unit);
}

/// The kernels, runtime, array and numerics metrics of \p Run, whose
/// \p Steps steady steps (median \p StepP50 ms) dispatched \p Regions
/// parallel regions and made \p Allocs allocations.
void addRunLayers(SolverRun<2> &Run, uint64_t Regions, uint64_t Allocs,
                  size_t Steps, double StepP50, Outcome &Out) {
  EulerSolver<2> &S = Run.solver();
  const RunConfig &Cfg = Run.config();
  probeKernels(S, Cfg, Out);
  const double PerStep = 1.0 / static_cast<double>(Steps);
  const double RegionsPerStep = static_cast<double>(Regions) * PerStep;
  const double DispUs = dispatchUs(Run.backend());
  Out.add("runtime.regions_per_step", RegionsPerStep, "count");
  Out.add("runtime.dispatch_us", DispUs, "us");
  Out.add("runtime.dispatch_share", RegionsPerStep * DispUs * 1e-3 / StepP50,
          "ratio");
  FieldPool::Stats PS = S.fieldPool().stats();
  Out.add("array.allocs_per_step", static_cast<double>(Allocs) * PerStep,
          "count");
  Out.add("array.pool_hit_ratio",
          PS.Acquisitions ? static_cast<double>(PS.Hits) / PS.Acquisitions
                          : 1.0,
          "ratio");
  Out.add("array.pool_peak_mb",
          static_cast<double>(PS.HighWaterBytes) / (1024.0 * 1024.0), "MB");
  // Piecewise-constant reconstruction copies cell values; only the
  // high-order schemes run the numerics reconstruction path.
  if (Cfg.Scheme.Recon == ReconstructionKind::PiecewiseConstant)
    addOffPath({{"numerics.recon_ns_per_face", "ns"}}, Out);
  else
    probeRecon(S, Cfg.Scheme, Out);
}

const std::initializer_list<std::pair<const char *, const char *>>
    IoMetrics = {{"io.write_ms", "ms"},
                 {"io.write_mb", "MB"},
                 {"io.write_share", "ratio"},
                 {"io.resume_ms", "ms"}};

/// solver.closure (checked against its 0.95 floor), run.cpu_per_wall and
/// telemetry.trace_overhead.  \p CoveredNs is the time of the traced steps
/// spent inside the layer spans the timed loop opens.
void addRunWide(const Samples &P, double CoveredNs, Outcome &Out) {
  const double Closure = CoveredNs * 1e-9 / P.TracedWallS;
  Out.add("solver.closure", Closure, "ratio");
  Out.check(Closure >= 0.95,
            "layer spans cover less than 95% of the traced wall time");
  Out.add("run.cpu_per_wall", P.CpuS / P.WallS, "ratio");
  Out.add("telemetry.trace_overhead",
          median(P.TracedStepMs) / median(P.StepMs), "ratio");
}

void addEndToEnd(const Samples &P, size_t Cells, Outcome &Out) {
  Out.add("step_ms_p50", median(P.StepMs), "ms");
  Out.add("step_ms_p90", percentile(P.StepMs, 0.9), "ms");
  Out.add("mcells_per_s",
          static_cast<double>(Cells) * P.StepMs.size() / sum(P.StepMs) * 1e-3,
          "Mcell/s");
  Out.add("setup_s", median(P.SetupS), "s");
  Out.add("peak_rss_mb", P.PeakRssMb, "MB");
}

//===----------------------------------------------------------------------===//
// Single-process workloads (fig4-fused, fig4-sac, dmr-durable)
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  bool Record = false;
  std::string WorkDir = ".bench_build/work";
};

/// Checks a segment's final hash against the pinned table for (workload,
/// input variant, steps).  Without an entry the single-process reference
/// is recomputed, once per run, into \p Reference.
void checkPinned(const Workload &W, unsigned Variant, unsigned Steps,
                 uint64_t Hash, std::optional<uint64_t> &Reference,
                 Outcome &Out) {
  if (!Reference)
    Reference = perfbench::pinnedHash(W.Name, Variant, Steps);
  if (!Reference) {
    std::fprintf(stderr,
                 "perfbench: no pinned hash for (%s, variant %u, %u steps); "
                 "recomputing the single-process reference\n",
                 W.Name, Variant, Steps);
    Reference = referenceHash(W, Variant, Steps);
  }
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "final hash %016llx != reference %016llx",
                static_cast<unsigned long long>(Hash),
                static_cast<unsigned long long>(*Reference));
  Out.check(Hash == *Reference, Buf);
}

/// Runs one segment's timed steps.  On a durable workload the checkpoint
/// steps go through SolverRun::advanceSteps, so the benchmark's own
/// periodic hook around CheckpointStore::write fires on the public durable
/// path; the other steps call computeDt and advanceWithDt directly so the
/// two are timed apart.  A traced segment also turns on the program's
/// stage telemetry.
void runSegmentSteps(const Workload &W, SolverRun<2> &Run,
                     CheckpointStore *Store, unsigned Steps, bool Traced,
                     Samples &P, Outcome &Out) {
  EulerSolver<2> &S = Run.solver();
  if (Store)
    Run.setPeriodicCheckpoint(W.CheckpointEvery, [&] {
      Span Sp("io.write");
      CheckpointStatus St;
      double Ms = timeMs([&] { St = Store->write(S); });
      P.WriteMs.push_back(Ms);
      if (Traced)
        P.TracedWriteMs += Ms;
      Out.check(St.ok(), "checkpoint write: " + St.str());
    });
  const unsigned E = W.CheckpointEvery;
  const unsigned HookBase = S.stepCount();
  std::vector<double> &StepMs = Traced ? P.TracedStepMs : P.StepMs;
  telemetry::setEnabled(Traced);
  const uint64_t Regions0 = Run.backend().regionsDispatched();
  const uint64_t Allocs0 = alloctrack::allocationCount();
  const double Cpu0 = cpuSeconds(RUSAGE_SELF);
  const uint64_t Wall0 = nowNs();
  for (unsigned I = 0; I < Steps; ++I) {
    uint64_t T0 = nowNs();
    if (E && (S.stepCount() + 1 - HookBase) % E == 0) {
      Span Sp("solver.step_durable");
      Run.advanceSteps(1);
    } else {
      double Dt;
      {
        Span Sp("solver.get_dt");
        Dt = S.computeDt();
      }
      Span Sp("solver.advance");
      S.advanceWithDt(Dt);
    }
    StepMs.push_back(static_cast<double>(nowNs() - T0) * 1e-6);
  }
  const double WallS = static_cast<double>(nowNs() - Wall0) * 1e-9;
  telemetry::setEnabled(false);
  if (Traced) {
    P.TracedWallS += WallS;
  } else {
    P.WallS += WallS;
    P.CpuS += cpuSeconds(RUSAGE_SELF) - Cpu0;
    P.Regions += Run.backend().regionsDispatched() - Regions0;
    P.Allocs += alloctrack::allocationCount() - Allocs0;
  }
  if (Store)
    Run.setPeriodicCheckpoint(0, nullptr);
}

int runSingle(const Workload &W, const Args &A, unsigned Variant,
              Outcome &Out) {
  RunConfig Cfg = makeConfig(W, Variant);
  const std::string Dir =
      A.WorkDir + "/" + W.Name + "-" + std::to_string(getpid());
  if (W.CheckpointEvery) {
    Cfg.Checkpoint.Dir = Dir + "/store";
    Cfg.Checkpoint.Every = W.CheckpointEvery;
  }
  const Problem<2> Prob = resolveProblem<2>(Problem<2>(), Cfg);
  const unsigned Steps = segmentSteps(W, A.Seconds);
  Samples P;
  std::optional<uint64_t> Reference;
  std::unique_ptr<SolverRun<2>> Run;
  for (unsigned Seg = 0; Seg < Segments; ++Seg) {
    const bool Traced = A.Trace && Seg >= Segments / 2;
    tracer().setEnabled(Traced);
    tracer().setRun(Seg);
    Run.reset();
    std::filesystem::remove_all(Dir);

    // Set-up: construction, durable-run set-up and the warm-up steps that
    // fill the field pool and first-touch every page.
    const uint64_t T0 = nowNs();
    Run = std::make_unique<SolverRun<2>>(Prob, Cfg);
    DurabilitySetup Durable = setupDurableRun(*Run);
    Run->advanceSteps(W.WarmupSteps);
    P.SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    Out.check(Durable.Ok, "durable-run set-up failed");

    runSegmentSteps(W, *Run, Durable.Store.get(), Steps, Traced, P, Out);
    if (Seg == 0)
      P.PeakRssMb = maxRssMb(RUSAGE_SELF);

    // Correctness gate.
    EulerSolver<2> &S = Run->solver();
    const uint64_t Hash = fieldStateHash(S);
    Out.check(allFinite(S), "non-finite field values");
    checkPinned(W, Variant, S.stepCount(), Hash, Reference, Out);
    if (W.CheckpointEvery) {
      RunConfig ResumeCfg = Cfg;
      ResumeCfg.Checkpoint.Resume = true;
      SolverRun<2> Resumed = makeSolverRun<2>(Prob, ResumeCfg);
      DurabilitySetup R;
      {
        Span Sp("io.resume");
        P.ResumeMs.push_back(timeMs([&] { R = setupDurableRun(Resumed); }));
      }
      Out.check(R.Resumed && R.ResumeSteps == S.stepCount() &&
                    fieldStateHash(Resumed.solver()) == Hash,
                "resumed solver does not reproduce the live state at the "
                "last generation");
    }
  }

  if (!A.Trace) {
    addEndToEnd(P, Prob.Domain.interiorCount(), Out);
  } else {
    // Per-layer metrics of the traced segments; the probes run on the
    // last segment's solver.
    const auto &T = tracer();
    const double GetDtNs = static_cast<double>(T.totalNs("solver.get_dt"));
    const double AdvNs = static_cast<double>(T.totalNs("solver.advance"));
    const double DurableNs =
        static_cast<double>(T.totalNs("solver.step_durable"));
    // Checkpoint steps run as one span; every other step opens get_dt.
    const double PlainSteps = static_cast<double>(T.count("solver.get_dt"));
    Out.add("solver.get_dt_ms", PlainSteps ? GetDtNs * 1e-6 / PlainSteps : 0.0,
            "ms");
    Out.add("solver.advance_ms", PlainSteps ? AdvNs * 1e-6 / PlainSteps : 0.0,
            "ms");
    addSolverShares(P.TracedWallS, Out);
    addRunLayers(*Run, P.Regions, P.Allocs, P.StepMs.size(), median(P.StepMs),
                 Out);
    if (W.CheckpointEvery) {
      Out.add("io.write_ms", median(P.WriteMs), "ms");
      Out.add("io.write_mb", generationMb(Cfg.Checkpoint.Dir), "MB");
      Out.add("io.write_share", P.TracedWriteMs * 1e-3 / P.TracedWallS,
              "ratio");
      Out.add("io.resume_ms", median(P.ResumeMs), "ms");
    } else {
      addOffPath(IoMetrics, Out);
    }
    addOffPath({{"shard.start_s", "s"},
                {"shard.overhead_ratio", "ratio"},
                {"shard.fills_per_step", "count"},
                {"shard.halo_bytes_per_step", "B"},
                {"shard.cpu_per_wall", "ratio"},
                {"shard.hash_ms", "ms"}},
               Out);
    addRunWide(P, GetDtNs + AdvNs + DurableNs, Out);
  }
  std::filesystem::remove_all(Dir);
  return 0;
}

//===----------------------------------------------------------------------===//
// Sharded workload (ext5-shards)
//===----------------------------------------------------------------------===//

int runShards(const Workload &W, const Args &A, unsigned Variant,
              Outcome &Out) {
  RunConfig Cfg = makeConfig(W, Variant);
  const Problem<2> Prob = resolveProblem<2>(Problem<2>(), Cfg);
  ShardOptions Opt;
  Opt.Shards = W.Shards;
  Opt.Scheme = Cfg.Scheme;
  const unsigned Steps = segmentSteps(W, A.Seconds);
  const uint64_t Wall0 = nowNs();
  Samples P;
  std::optional<uint64_t> Reference;
  std::vector<double> StartS, HashMs;
  unsigned StagesPerStep = 0;
  for (unsigned Seg = 0; Seg < Segments; ++Seg) {
    const bool Traced = A.Trace && Seg >= Segments / 2;
    tracer().setEnabled(Traced);
    tracer().setRun(Seg);

    // Set-up: construction, fork + ready handshake, warm-up.
    const uint64_t T0 = nowNs();
    ShardCoordinator Coord(Prob, Opt);
    bool Started = false;
    {
      Span Sp("shard.start");
      StartS.push_back(timeMs([&] { Started = Coord.start(); }) * 1e-3);
    }
    Out.check(Started, "shard fleet failed to start");
    if (!Started)
      return 1;
    Out.check(Coord.advanceSteps(W.WarmupSteps), "shard warm-up step failed");
    P.SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);

    std::vector<double> &StepMs = Traced ? P.TracedStepMs : P.StepMs;
    const double Cpu0 = cpuSeconds(RUSAGE_SELF);
    const uint64_t Steps0 = nowNs();
    for (unsigned I = 0; I < Steps; ++I) {
      uint64_t S0 = nowNs();
      bool Ok;
      {
        Span Sp("shard.step");
        Ok = Coord.advanceSteps(1);
      }
      Out.check(Ok, "shard step failed");
      StepMs.push_back(static_cast<double>(nowNs() - S0) * 1e-6);
    }
    const double SegWallS = static_cast<double>(nowNs() - Steps0) * 1e-9;
    if (Traced) {
      P.TracedWallS += SegWallS;
    } else {
      P.WallS += SegWallS;
      P.CpuS += cpuSeconds(RUSAGE_SELF) - Cpu0;
    }

    // Correctness gate: finite stitched field, single-process hash, no
    // restart or rewind.
    uint64_t Hash = 0;
    {
      Span Sp("shard.hash");
      HashMs.push_back(timeMs([&] { Hash = Coord.stateHash(); }));
    }
    std::vector<Cons<2>> Interior;
    Out.check(Coord.stitchInterior(Interior) &&
                  allFinite(Interior.data(), Interior.size()),
              "non-finite field values");
    Out.check(Coord.restartCount() == 0, "a shard was restarted");
    Out.check(Coord.fullRestartCount() == 0, "the shard fleet was rewound");
    StagesPerStep = Coord.stagesPerStep();
    const unsigned StepCount = Coord.stepCount();
    Coord.shutdown();
    // The coordinator plus the largest shard process of one solve.
    if (Seg == 0)
      P.PeakRssMb = maxRssMb(RUSAGE_SELF) + maxRssMb(RUSAGE_CHILDREN);
    checkPinned(W, Variant, StepCount, Hash, Reference, Out);
  }
  const double WallS = static_cast<double>(nowNs() - Wall0) * 1e-9;
  const double CpuS = cpuSeconds(RUSAGE_SELF) + cpuSeconds(RUSAGE_CHILDREN);

  if (!A.Trace) {
    addEndToEnd(P, Prob.Domain.interiorCount(), Out);
    return 0;
  }

  // Traced run: the shard layer from the coordinator's side, plus a
  // single-process run over the largest row block — the per-shard work
  // without the halo exchange — for the overhead ratio and for the
  // solver, kernels, runtime and array layers.
  std::vector<RowBlock> Blocks = rowBlocks(Prob.Domain.cells(0), W.Shards);
  Problem<2> Block = shardProblem(Prob, Blocks[0], false, W.Shards > 1);
  tracer().setRun(Segments);
  SolverRun<2> Local = makeSolverRun<2>(Block, Cfg);
  Local.advanceSteps(W.WarmupSteps);
  const unsigned LocalSteps = 6;
  std::vector<double> LocalMs;
  const uint64_t Regions0 = Local.backend().regionsDispatched();
  const uint64_t Allocs0 = alloctrack::allocationCount();
  telemetry::reset();
  telemetry::setEnabled(true);
  const uint64_t LocalSince = nowNs();
  for (unsigned I = 0; I < LocalSteps; ++I) {
    uint64_t S0 = nowNs();
    double Dt;
    {
      Span Sp("solver.get_dt");
      Dt = Local.solver().computeDt();
    }
    {
      Span Sp("solver.advance");
      Local.solver().advanceWithDt(Dt);
    }
    LocalMs.push_back(static_cast<double>(nowNs() - S0) * 1e-6);
  }
  const double LocalWallS = static_cast<double>(nowNs() - LocalSince) * 1e-9;
  telemetry::setEnabled(false);
  const double LocalP50 = median(LocalMs);
  const auto &T = tracer();
  Out.add("solver.get_dt_ms", T.totalNs("solver.get_dt") * 1e-6 / LocalSteps,
          "ms");
  Out.add("solver.advance_ms", T.totalNs("solver.advance") * 1e-6 / LocalSteps,
          "ms");
  addSolverShares(LocalWallS, Out);
  addRunLayers(Local, Local.backend().regionsDispatched() - Regions0,
               alloctrack::allocationCount() - Allocs0, LocalSteps, LocalP50,
               Out);
  addOffPath(IoMetrics, Out);
  const unsigned Ng = Prob.Domain.ghost();
  const double SlabBytes = static_cast<double>(
      Ng * (Prob.Domain.cells(1) + 2 * Ng) * sizeof(Cons<2>));
  Out.add("shard.start_s", median(StartS), "s");
  Out.add("shard.overhead_ratio", median(P.TracedStepMs) / LocalP50, "ratio");
  Out.add("shard.fills_per_step",
          static_cast<double>(W.Shards * StagesPerStep), "count");
  Out.add("shard.halo_bytes_per_step",
          2.0 * (W.Shards - 1) * SlabBytes * StagesPerStep, "B");
  Out.add("shard.cpu_per_wall", CpuS / WallS, "ratio");
  Out.add("shard.hash_ms", median(HashMs), "ms");
  addRunWide(P, static_cast<double>(T.totalNs("shard.step")), Out);
  return 0;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

void printStamp(const Workload &W, const Args &A, unsigned Variant) {
  RunConfig Defaults;
  std::printf(
      "{\"stamp\": {\"build_type\": \"%s\", \"layout\": \"%s\", \"simd\": "
      "%s, \"simd_accelerated\": %s, \"pool\": %s, \"workload\": \"%s\", "
      "\"scenario\": \"%s\", \"engine\": \"%s\", \"backend\": \"%s\", "
      "\"threads\": %u, \"shards\": %u, \"checkpoint_every\": %u, "
      "\"seed\": %llu, \"input_variant\": %u, \"segments\": %u, "
      "\"segment_steps\": %u, \"warmup_steps\": %u}}\n",
      PERFBENCH_BUILD_TYPE, layoutName(Defaults.FieldLayout),
      Defaults.Simd ? "true" : "false",
      kernels::simdAccelerated() ? "true" : "false",
      Defaults.Pooling ? "true" : "false", W.Name,
      scenarioSpec(W, Variant).c_str(), engineKindName(W.Engine),
      W.Shards ? "shards" : backendKindName(W.Backend), W.Threads, W.Shards,
      W.CheckpointEvery, static_cast<unsigned long long>(A.Seed), Variant,
      Segments, segmentSteps(W, A.Seconds), W.WarmupSteps);
}

void printResult(const Outcome &Out) {
  bool Correct = Out.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": {",
              Correct ? "true" : "false", Out.Attempted, Out.Failed);
  for (size_t I = 0; I < Out.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Out.Metrics[I].Name.c_str(),
                Out.Metrics[I].Value, Out.Metrics[I].Unit);
  std::printf("}}\n");
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--record") {
      A.Record = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (!(A.Seconds > 0.0))
        return false;
    } else if (Flag == "--trace") {
      A.Trace = V == "1";
      if (V != "0" && V != "1")
        return false;
    } else if (Flag == "--work-dir") {
      A.WorkDir = V;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return !A.Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--record]\n");
    return 2;
  }
  const Workload *W = nullptr;
  for (const Workload &C : Workloads)
    if (A.Workload == C.Name)
      W = &C;
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  // Workloads without a seeded input (dmr-durable) always run variant 0.
  const unsigned Variant =
      W->MachFromSeed ? static_cast<unsigned>(A.Seed % InputVariants) : 0;
  if (A.Record) {
    // Prints the pinned-table row for this (workload, variant, steps).
    unsigned Steps = W->WarmupSteps + segmentSteps(*W, A.Seconds);
    std::printf("    {\"%s\", %u, %u, 0x%016llxull},\n", W->Name, Variant,
                Steps,
                static_cast<unsigned long long>(
                    referenceHash(*W, Variant, Steps)));
    return 0;
  }
  std::filesystem::create_directories(A.WorkDir);
  if (A.Trace) {
    // Stage telemetry of the traced segments: spans and counters only, as
    // per-step gauges would add a field scan per step that no reported
    // metric reads.
    telemetry::reset();
    telemetry::setGaugeStride(0);
  }
  printStamp(*W, A, Variant);
  std::fflush(stdout);

  Outcome Out;
  int Rc = W->Shards ? runShards(*W, A, Variant, Out)
                     : runSingle(*W, A, Variant, Out);

  if (A.Trace) {
    std::string Path = A.WorkDir + "/trace-" + W->Name + "-seed" +
                       std::to_string(A.Seed) + ".json";
    if (!tracer().writeChromeTrace(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    std::printf("{\"layers_self_ms\": {");
    bool First = true;
    for (const auto &[Layer, Ms] : tracer().selfMsByLayer()) {
      std::printf("%s\"%s\": %.3f", First ? "" : ", ", Layer.c_str(), Ms);
      First = false;
    }
    std::printf("}, \"trace_file\": \"%s\"}\n", Path.c_str());
  }
  // A non-finite value (a degenerate --seconds) is not valid JSON.
  for (Metric &M : Out.Metrics)
    if (!std::isfinite(M.Value)) {
      Out.check(false, "metric " + M.Name + " is not finite");
      M.Value = 0.0;
    }
  for (const std::string &F : Out.Failures)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", F.c_str());
  // A per-layer metric: it is 0 on a healthy run, so it cannot carry an
  // end-to-end bound (see README.md).
  if (A.Trace)
    Out.add("failed_ratio",
            static_cast<double>(Out.Failed) /
                static_cast<double>(Out.Attempted),
            "ratio");
  printResult(Out);
  return (Rc != 0 || Out.Failed != 0) ? 1 : 0;
}
