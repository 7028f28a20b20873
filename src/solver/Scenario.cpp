//===- solver/Scenario.cpp - Workload registry + pinned regressions -------===//

#include "solver/Scenario.h"

#include "runtime/Runtime.h"
#include "solver/ArraySolver.h"
#include "solver/FusedSolver.h"
#include "solver/scenarios/BuiltinScenarios.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <chrono>
#include <memory>

using namespace sacfd;

//===----------------------------------------------------------------------===//
// Spec grammar
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *SpecGrammar =
    "expected name[:key=value,...] with lowercase names/keys of letters, "
    "digits and '-'";

bool isSpecWord(std::string_view S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (!((C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') || C == '-'))
      return false;
  return true;
}

} // namespace

SpecParse<ScenarioSpec> ScenarioSpec::parse(std::string_view Text) {
  using Result = SpecParse<ScenarioSpec>;
  Text = trim(Text);
  if (Text.empty())
    return Result::fail(std::string("empty scenario spec; ") + SpecGrammar);

  ScenarioSpec S;
  size_t Colon = Text.find(':');
  std::string_view Name =
      Colon == std::string_view::npos ? Text : Text.substr(0, Colon);
  if (!isSpecWord(Name))
    return Result::fail("bad scenario name '" + std::string(Name) + "'; " +
                        SpecGrammar);
  S.Name = std::string(Name);
  if (Colon == std::string_view::npos)
    return Result::ok(std::move(S));

  std::string_view Rest = Text.substr(Colon + 1);
  if (Rest.empty())
    return Result::fail("scenario '" + S.Name +
                        "': empty parameter list after ':'; " + SpecGrammar);
  // Segment split: every comma terminates a segment, so a trailing comma
  // ("cells=64,") or doubled comma produces an *empty* segment that must
  // be rejected — the old substr-and-drop loop silently swallowed it.
  for (unsigned Segment = 1; true; ++Segment) {
    size_t Comma = Rest.find(',');
    std::string_view Piece =
        Comma == std::string_view::npos ? Rest : Rest.substr(0, Comma);
    if (Piece.empty())
      return Result::fail("scenario '" + S.Name + "': empty parameter segment " +
                          std::to_string(Segment) +
                          (Comma == std::string_view::npos
                               ? " (trailing ',')"
                               : " (before ',')") +
                          "; " + SpecGrammar);
    size_t Eq = Piece.find('=');
    if (Eq == std::string_view::npos)
      return Result::fail("scenario '" + S.Name + "': parameter '" +
                          std::string(Piece) + "' is not key=value; " +
                          SpecGrammar);
    std::string_view Key = Piece.substr(0, Eq);
    std::string_view Value = Piece.substr(Eq + 1);
    if (!isSpecWord(Key))
      return Result::fail("scenario '" + S.Name + "': bad parameter key '" +
                          std::string(Key) + "'; " + SpecGrammar);
    if (Value.empty())
      return Result::fail("scenario '" + S.Name + "': parameter '" +
                          std::string(Key) + "' has an empty value; " +
                          SpecGrammar);
    if (S.find(Key))
      return Result::fail("scenario '" + S.Name + "': duplicate parameter '" +
                          std::string(Key) + "'");
    S.Params.emplace_back(std::string(Key), std::string(Value));
    if (Comma == std::string_view::npos)
      break;
    Rest = Rest.substr(Comma + 1);
  }
  return Result::ok(std::move(S));
}

std::string ScenarioSpec::str() const {
  std::string Out = Name;
  for (size_t I = 0; I < Params.size(); ++I) {
    Out += I == 0 ? ':' : ',';
    Out += Params[I].first;
    Out += '=';
    Out += Params[I].second;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Typed parameter access
//===----------------------------------------------------------------------===//

SpecParse<unsigned> ScenarioArgs::getUnsigned(std::string_view Key,
                                              unsigned Default) const {
  using Result = SpecParse<unsigned>;
  const std::string *Text = Spec->find(Key);
  if (!Text)
    return Result::ok(Default);
  std::optional<unsigned long long> V = parseUnsigned(*Text);
  if (!V || *V > std::numeric_limits<unsigned>::max())
    return Result::fail("scenario '" + Spec->Name + "': parameter '" +
                        std::string(Key) + "' wants a non-negative integer, "
                        "got '" + *Text + "'");
  return Result::ok(static_cast<unsigned>(*V));
}

SpecParse<double> ScenarioArgs::getDouble(std::string_view Key,
                                          double Default) const {
  using Result = SpecParse<double>;
  const std::string *Text = Spec->find(Key);
  if (!Text)
    return Result::ok(Default);
  std::optional<double> V = parseDouble(*Text);
  if (!V)
    return Result::fail("scenario '" + Spec->Name + "': parameter '" +
                        std::string(Key) + "' wants a number, got '" + *Text +
                        "'");
  return Result::ok(*V);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

ScenarioRegistry::ScenarioRegistry() = default;

ScenarioRegistry &ScenarioRegistry::instance() {
  static ScenarioRegistry *R = [] {
    // Leaked singleton: scenario factories may be registered from static
    // initializers (ScenarioRegistrar), so the registry must outlive
    // every static destructor.
    auto *Reg = new ScenarioRegistry();
    registerTubes1DScenarios(*Reg);
    registerClassic2DScenarios(*Reg);
    registerSedovScenario(*Reg);
    registerDoubleMachScenario(*Reg);
    registerShockBubbleScenario(*Reg);
    registerPinnedReferences(*Reg);
    return Reg;
  }();
  return *R;
}

void ScenarioRegistry::add(Scenario<1> S) {
  S1.erase(std::remove_if(S1.begin(), S1.end(),
                          [&](const Scenario<1> &E) { return E.Name == S.Name; }),
           S1.end());
  S1.push_back(std::move(S));
}

void ScenarioRegistry::add(Scenario<2> S) {
  S2.erase(std::remove_if(S2.begin(), S2.end(),
                          [&](const Scenario<2> &E) { return E.Name == S.Name; }),
           S2.end());
  S2.push_back(std::move(S));
}

void ScenarioRegistry::setReferenceHash(std::string Name, uint64_t Hash) {
  for (auto &KV : References)
    if (KV.first == Name) {
      KV.second = Hash;
      return;
    }
  References.emplace_back(std::move(Name), Hash);
}

std::optional<uint64_t>
ScenarioRegistry::referenceHash(std::string_view Name) const {
  for (const auto &KV : References)
    if (KV.first == Name)
      return KV.second;
  return std::nullopt;
}

unsigned ScenarioRegistry::dimOf(std::string_view Name) const {
  if (find<1>(Name))
    return 1;
  if (find<2>(Name))
    return 2;
  return 0;
}

const ScenarioTuning *
ScenarioRegistry::tuningFor(std::string_view Name) const {
  if (const Scenario<1> *S = find<1>(Name))
    return &S->Tuning;
  if (const Scenario<2> *S = find<2>(Name))
    return &S->Tuning;
  return nullptr;
}

std::vector<ScenarioInfo> ScenarioRegistry::infos() const {
  std::vector<ScenarioInfo> Out;
  auto Push = [&](const auto &S, unsigned Dim) {
    ScenarioInfo I;
    I.Name = S.Name;
    I.Dim = Dim;
    I.Summary = S.Summary;
    I.DefaultCells = S.DefaultCells;
    I.Pinned = S.Pinned;
    I.Params = S.Params;
    I.Reference = referenceHash(S.Name);
    Out.push_back(std::move(I));
  };
  for (const Scenario<1> &S : S1)
    Push(S, 1);
  for (const Scenario<2> &S : S2)
    Push(S, 2);
  std::sort(Out.begin(), Out.end(),
            [](const ScenarioInfo &A, const ScenarioInfo &B) {
              return A.Dim != B.Dim ? A.Dim < B.Dim : A.Name < B.Name;
            });
  return Out;
}

std::string ScenarioRegistry::namesStr() const {
  std::vector<std::string> Names;
  for (const Scenario<1> &S : S1)
    Names.push_back(S.Name);
  for (const Scenario<2> &S : S2)
    Names.push_back(S.Name);
  std::sort(Names.begin(), Names.end());
  std::string Out;
  for (const std::string &N : Names) {
    if (!Out.empty())
      Out += ", ";
    Out += N;
  }
  return Out;
}

SpecParse<ScenarioSpec> ScenarioRegistry::validate(const ScenarioSpec &Spec,
                                                   unsigned Dim) const {
  using Result = SpecParse<ScenarioSpec>;
  unsigned D = dimOf(Spec.Name);
  if (D == 0)
    return Result::fail("unknown scenario '" + Spec.Name +
                        "'; known scenarios: " + namesStr());
  if (Dim != 0 && D != Dim)
    return Result::fail("scenario '" + Spec.Name + "' is a " +
                        std::to_string(D) + "D workload; this tool runs " +
                        std::to_string(Dim) + "D problems");

  const std::vector<ScenarioParam> *Params = nullptr;
  if (D == 1)
    Params = &find<1>(Spec.Name)->Params;
  else
    Params = &find<2>(Spec.Name)->Params;

  for (const auto &KV : Spec.Params) {
    if (KV.first == "cells")
      continue;
    bool Declared = false;
    for (const ScenarioParam &P : *Params)
      if (P.Key == KV.first) {
        Declared = true;
        break;
      }
    if (!Declared) {
      std::string Accepted = "cells";
      for (const ScenarioParam &P : *Params)
        Accepted += ", " + P.Key;
      return Result::fail("scenario '" + Spec.Name +
                          "' does not accept parameter '" + KV.first +
                          "'; accepted: " + Accepted);
    }
  }
  return Result::ok(Spec);
}

//===----------------------------------------------------------------------===//
// Pinned regression runs
//===----------------------------------------------------------------------===//

namespace {

template <unsigned Dim>
SpecParse<PinnedResult> runPinnedImpl(const Scenario<Dim> &S,
                                      EngineKind Engine, bool Simd,
                                      std::optional<uint64_t> Expected) {
  using Result = SpecParse<PinnedResult>;

  // The pinned configuration is frozen: figure scheme + scenario tuning,
  // serial backend, one thread.  Reference hashes are only meaningful
  // against this exact setup.
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  if (S.Tuning.Cfl)
    Scheme.Cfl = *S.Tuning.Cfl;
  if (S.Tuning.Recon)
    Scheme.Recon = *S.Tuning.Recon;

  ScenarioSpec Spec;
  Spec.Name = S.Name;
  ScenarioArgs Args(Spec, S.Pinned.Cells, ghostCells(Scheme.Recon));
  SpecParse<Problem<Dim>> Built = S.Build(Args);
  if (!Built)
    return Result::fail(Built.Error);
  if (!Built.Value->hasEndTime())
    return Result::fail("scenario '" + S.Name +
                        "' produced a problem without an end time");

  std::unique_ptr<Backend> Exec = createBackend(BackendKind::Serial, 1);
  std::unique_ptr<EulerSolver<Dim>> Solver;
  switch (Engine) {
  case EngineKind::Array:
    Solver = std::make_unique<ArraySolver<Dim>>(
        std::move(*Built.Value), Scheme, *Exec, ArrayEvalMode::Fused, Simd);
    break;
  case EngineKind::ArrayMaterialized:
    Solver = std::make_unique<ArraySolver<Dim>>(
        std::move(*Built.Value), Scheme, *Exec, ArrayEvalMode::Materialized,
        Simd);
    break;
  case EngineKind::Fused:
    Solver = std::make_unique<FusedSolver<Dim>>(std::move(*Built.Value),
                                                Scheme, *Exec, Simd);
    break;
  }

  auto Start = std::chrono::steady_clock::now();
  Solver->advanceSteps(S.Pinned.Steps);
  auto End = std::chrono::steady_clock::now();

  PinnedResult R;
  R.Name = S.Name;
  R.Dim = Dim;
  R.Cells = S.Pinned.Cells;
  R.Steps = S.Pinned.Steps;
  R.Time = Solver->time();
  R.WallMs =
      std::chrono::duration<double, std::milli>(End - Start).count();
  R.Hash = fieldStateHash(*Solver);
  R.Expected = Expected;
  return Result::ok(std::move(R));
}

} // namespace

SpecParse<PinnedResult> sacfd::runPinnedScenario(std::string_view Name,
                                                 EngineKind Engine,
                                                 bool Simd) {
  using Result = SpecParse<PinnedResult>;
  const ScenarioRegistry &R = ScenarioRegistry::instance();
  std::optional<uint64_t> Expected = R.referenceHash(Name);
  if (const Scenario<1> *S = R.find<1>(Name))
    return runPinnedImpl(*S, Engine, Simd, Expected);
  if (const Scenario<2> *S = R.find<2>(Name))
    return runPinnedImpl(*S, Engine, Simd, Expected);
  return Result::fail("unknown scenario '" + std::string(Name) +
                      "'; known scenarios: " + R.namesStr());
}

std::string sacfd::rebaselineHint() {
  return "to refresh after an intentional numerics change, run "
         "`scenario_gallery --rebaseline` (built under examples/) and "
         "paste the emitted table into "
         "src/solver/scenarios/PinnedReferences.cpp";
}
