//===- io/CheckpointStore.cpp - Rotated checkpoint generations ------------===//

#include "io/CheckpointStore.h"

#include "support/FaultInjection.h"
#include "support/StrUtil.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>

#include <fcntl.h>
#include <unistd.h>

using namespace sacfd;

namespace fs = std::filesystem;

namespace {

constexpr const char *ManifestFile = "manifest.txt";
constexpr std::string_view RunPrefix = "# run ";
constexpr const char *GenPrefix = "ckpt-";
constexpr const char *GenSuffix = ".sacfd";

void countStore(const char *Name, uint64_t Delta = 1) {
  if (!telemetry::enabled())
    return;
  telemetry::addCounter(telemetry::counterId(Name), Delta);
}

/// Parses "ckpt-00001234.sacfd" into its step count; nullopt for any
/// other name (including the manifest and leftover .tmp files).
std::optional<unsigned> stepsOfGenerationName(std::string_view Name) {
  std::string_view Prefix = GenPrefix, Suffix = GenSuffix;
  if (Name.size() != Prefix.size() + 8 + Suffix.size() ||
      Name.substr(0, Prefix.size()) != Prefix ||
      Name.substr(Name.size() - Suffix.size()) != Suffix)
    return std::nullopt;
  std::string_view Digits = Name.substr(Prefix.size(), 8);
  std::optional<unsigned long long> Steps = parseUnsigned(Digits);
  if (!Steps || *Steps > UINT32_MAX)
    return std::nullopt;
  return static_cast<unsigned>(*Steps);
}

} // namespace

CheckpointStore::CheckpointStore(std::string Dir, unsigned Keep,
                                 RetryPolicy Retry)
    : Root(std::move(Dir)), Keep(std::max(1u, Keep)), Retry(Retry) {}

std::string CheckpointStore::generationFileName(unsigned Steps) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%s%08u%s", GenPrefix, Steps, GenSuffix);
  return Buf;
}

std::string CheckpointStore::manifestPath() const {
  return Root + "/" + ManifestFile;
}

CheckpointStatus CheckpointStore::ensureDir() {
  std::error_code Ec;
  fs::create_directories(Root, Ec);
  if (Ec && !fs::is_directory(Root))
    return CheckpointStatus::make(CheckpointError::WriteFailed,
                                  "cannot create checkpoint directory " +
                                      Root + ": " + Ec.message());
  return CheckpointStatus::success();
}

void CheckpointStore::sweepOrphanedTmp() {
  // The atomic write path is stage-to-.tmp, fsync, rename; a crash
  // between stage and rename strands the .tmp forever (discovery ignores
  // it, rotation prunes only real generations).  Deleting is always safe:
  // rename is atomic, so a .tmp is never the only copy of durable data.
  // Only names our own writer stages are swept — a generation file's or
  // the manifest's — never foreign files that happen to live here.
  std::error_code Ec;
  for (const fs::directory_entry &E : fs::directory_iterator(Root, Ec)) {
    std::string Name = E.path().filename().string();
    std::string_view View = Name;
    constexpr std::string_view TmpSuffix = ".tmp";
    if (View.size() <= TmpSuffix.size() ||
        View.substr(View.size() - TmpSuffix.size()) != TmpSuffix)
      continue;
    std::string_view Stem = View.substr(0, View.size() - TmpSuffix.size());
    if (!stepsOfGenerationName(Stem) && Stem != ManifestFile)
      continue;
    std::error_code RmEc;
    if (fs::remove(E.path(), RmEc))
      countStore("checkpoint.tmp_swept");
  }
}

std::vector<CheckpointStore::Generation>
CheckpointStore::generations() const {
  // Steps -> path; the map yields the ascending order we reverse into
  // newest-first.
  std::map<unsigned, std::string> Found;

  std::error_code Ec;
  for (const fs::directory_entry &E : fs::directory_iterator(Root, Ec)) {
    std::string Name = E.path().filename().string();
    if (std::optional<unsigned> Steps = stepsOfGenerationName(Name))
      Found.emplace(*Steps, E.path().string());
  }

  std::vector<Generation> Gens;
  for (auto It = Found.rbegin(); It != Found.rend(); ++It)
    Gens.push_back({It->first, It->second});
  return Gens;
}

std::string CheckpointStore::runId() const {
  std::ifstream Manifest(manifestPath());
  std::string Line;
  while (std::getline(Manifest, Line)) {
    std::string_view View = Line;
    if (View.substr(0, RunPrefix.size()) == RunPrefix)
      return std::string(trim(View.substr(RunPrefix.size())));
  }
  return std::string();
}

CheckpointStatus CheckpointStore::claim(const std::string &Id) {
  if (CheckpointStatus St = ensureDir(); !St.ok())
    return St;
  std::error_code Ec;
  for (const Generation &G : generations())
    fs::remove(G.Path, Ec);
  fs::remove(manifestPath(), Ec);
  if (!generations().empty() || fs::exists(manifestPath(), Ec))
    return CheckpointStatus::make(CheckpointError::WriteFailed,
                                  "cannot clear an earlier run's "
                                  "generations from " +
                                      Root);
  // Stamped before this run's first generation exists, so every
  // generation the run writes lies under its id.
  return writeManifest(Id);
}

std::string CheckpointStore::newRunId() {
  std::random_device Rd;
  uint64_t Nonce = (static_cast<uint64_t>(Rd()) << 32) ^ Rd();
  uint64_t Now = static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%x-%llx-%llx",
                static_cast<unsigned>(::getpid()),
                static_cast<unsigned long long>(Now),
                static_cast<unsigned long long>(Nonce));
  return Buf;
}

void CheckpointStore::prune() {
  std::vector<Generation> Gens = generations();

  for (size_t I = Keep; I < Gens.size(); ++I) {
    std::error_code Ec;
    if (fs::remove(Gens[I].Path, Ec))
      countStore("checkpoint.generations_pruned");
  }
}

CheckpointStatus CheckpointStore::writeManifest(const std::string &Id) {
  // The manifest gets the same torn-write protection as the checkpoints
  // themselves: stage, flush, fsync, rename.
  std::string Manifest = manifestPath();
  std::string Tmp = Manifest + ".tmp";
  auto ManifestFail = [&](const std::string &What) {
    std::remove(Tmp.c_str());
    countStore("checkpoint.manifest_failures");
    return CheckpointStatus::make(CheckpointError::WriteFailed,
                                  "manifest stamp failed (" + What + ")");
  };

  std::string Text =
      "# sacfd checkpoint store; its generations are the ckpt-*.sacfd files\n";
  Text += std::string(RunPrefix) + Id + "\n";

  std::FILE *F = iofault::fopenChecked(Tmp.c_str(), "wb");
  if (!F)
    return ManifestFail("open " + Tmp);
  bool Written =
      iofault::fwriteChecked(Text.data(), 1, Text.size(), F) == Text.size();
  bool Flushed = std::fflush(F) == 0 && ::fsync(fileno(F)) == 0;
  std::fclose(F);
  if (!Written || !Flushed)
    return ManifestFail("write " + Tmp);
  if (iofault::renameChecked(Tmp.c_str(), Manifest.c_str()) != 0)
    return ManifestFail("rename onto " + Manifest);
  return CheckpointStatus::success();
}

template <unsigned Dim>
CheckpointStatus CheckpointStore::write(const EulerSolver<Dim> &S) {
  if (CheckpointStatus St = ensureDir(); !St.ok())
    return St;
  // Reclaim staging leftovers from a previous crashed writer before
  // staging our own (ours is not yet on disk, so it cannot be swept).
  sweepOrphanedTmp();
  std::string Path = Root + "/" + generationFileName(S.stepCount());
  if (CheckpointStatus St = saveCheckpointWithRetry(Path, S, Retry);
      !St.ok())
    return St;
  prune();
  return CheckpointStatus::success();
}

template <unsigned Dim>
CheckpointStore::ResumeOutcome CheckpointStore::resume(EulerSolver<Dim> &S) {
  ResumeOutcome Out;
  sweepOrphanedTmp();
  std::vector<Generation> Gens = generations();
  if (Gens.empty()) {
    Out.Status = CheckpointStatus::make(
        CheckpointError::NotFound, "no checkpoint generations in " + Root);
    return Out;
  }

  for (const Generation &G : Gens) {
    CheckpointStatus St = loadCheckpoint(G.Path, S);
    if (St.ok()) {
      Out.LoadedPath = G.Path;
      Out.LoadedSteps = G.Steps;
      countStore("checkpoint.resumes");
      if (!Out.Skipped.empty())
        countStore("checkpoint.resume_fallbacks");
      return Out;
    }
    countStore("checkpoint.corrupt_skipped");
    Out.Skipped.emplace_back(G.Path, std::move(St));
  }

  Out.Status = CheckpointStatus::make(
      Out.Skipped.front().second.Error,
      "no loadable generation among " + std::to_string(Gens.size()) +
          " in " + Root + "; newest: " + Out.Skipped.front().second.Detail);
  return Out;
}

template CheckpointStatus CheckpointStore::write<1>(const EulerSolver<1> &);
template CheckpointStatus CheckpointStore::write<2>(const EulerSolver<2> &);
template CheckpointStatus CheckpointStore::write<3>(const EulerSolver<3> &);
template CheckpointStore::ResumeOutcome
CheckpointStore::resume<1>(EulerSolver<1> &);
template CheckpointStore::ResumeOutcome
CheckpointStore::resume<2>(EulerSolver<2> &);
template CheckpointStore::ResumeOutcome
CheckpointStore::resume<3>(EulerSolver<3> &);
