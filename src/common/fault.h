#ifndef REPRO_COMMON_FAULT_H_
#define REPRO_COMMON_FAULT_H_

#include <cstdint>
#include <exception>
#include <limits>

namespace autocts {

/// Deterministic fault-injection harness.
///
/// Production code declares *injection points* — named places where a fault
/// could strike (a loss turning NaN, a checkpoint write failing, the process
/// dying). Tests arm a point at a specific *address* (sample index, write
/// ordinal, stage number); when execution reaches that point with that
/// address, the fault fires. Addresses derive from the pipeline's own
/// deterministic counters, never from wall clock or scheduling, so an
/// injected fault reproduces bit-exactly across runs and thread counts.
///
/// When nothing is armed every probe is a single relaxed atomic load of a
/// process-wide counter — cheap enough to leave the points compiled into
/// release builds permanently.
enum class FaultPoint : int {
  /// The training loss observed by the trainer's guardrail becomes NaN.
  /// Addressed by the ambient FaultAddressScope (the sample's pending index
  /// during CollectSamples; -1 outside any scope).
  kNanLoss = 0,
  /// AtomicWriteFile fails with an IO error Status. Addressed by the
  /// process-wide write ordinal (0 = first atomic write after arming).
  kIoWriteFail = 1,
  /// Simulated SIGKILL immediately before a sample's training starts.
  /// Addressed by the sample's pending index; throws InjectedKill.
  kKillBeforeSample = 2,
  /// Simulated SIGKILL at a pipeline stage boundary. Addressed by the
  /// PipelineCheckpoint stage number about to start; throws InjectedKill.
  kKillBeforeStage = 3,
  /// The streaming engine's drift-triggered zero-shot re-search fails with
  /// an error Status instead of producing a replacement model. Addressed by
  /// the engine's re-search ordinal (0 = first re-search attempt after
  /// arming); the engine keeps serving the old model and counts the
  /// failure.
  kStreamResearchFail = 4,
  /// A completed re-search result stalls past the engine's swap deadline:
  /// the ready model is discarded as too stale to install. Addressed by the
  /// engine's swap ordinal. Exercises the "never serve a half-swapped
  /// model" guarantee — the old model serves every tick until a full
  /// replacement is installed atomically.
  kStreamSwapStall = 5,
};

inline constexpr int kNumFaultPoints = 6;

/// Thrown by the kill points to model a process death the enclosing test
/// observes without actually losing the process. Everything written to disk
/// before the throw is exactly what a real SIGKILL would have left behind.
class InjectedKill : public std::exception {
 public:
  explicit InjectedKill(FaultPoint point, int64_t address)
      : point_(point), address_(address) {}
  const char* what() const noexcept override {
    return "injected kill (fault harness)";
  }
  FaultPoint point() const { return point_; }
  int64_t address() const { return address_; }

 private:
  FaultPoint point_;
  int64_t address_;
};

/// Arms `point` to fire when probed with `address` (`kAnyAddress` matches
/// every probe). The fault fires at most `fires` times, then disarms itself
/// — `fires = 1` models a transient fault (e.g. a NaN whose lr-halved retry
/// succeeds), the default models a persistent one. Arming is test-only and
/// not thread-safe against concurrent Arm/Disarm; probing is thread-safe.
inline constexpr int64_t kAnyAddress = -1;
void ArmFault(FaultPoint point, int64_t address,
              int fires = std::numeric_limits<int>::max());

/// Disarms every point and resets the kIoWriteFail write ordinal.
void DisarmAllFaults();

/// True when any point is armed — the fast-path gate every probe checks
/// first (relaxed atomic load; no synchronization cost when disarmed).
bool AnyFaultArmed();

/// Probes `point` with an explicit address. Returns true — and consumes one
/// armed fire — when the fault strikes. Never returns true when disarmed.
bool FaultFires(FaultPoint point, int64_t address);

/// Probes a kill point: throws InjectedKill when the fault strikes.
void MaybeInjectKill(FaultPoint point, int64_t address);

/// Probes kNanLoss at the ambient scope address (see FaultAddressScope).
bool FaultFiresNanLoss();

/// Probes kIoWriteFail at the next write ordinal (post-incremented per
/// probe, so "fail the 3rd checkpoint write" is address 2).
bool FaultFiresIoWrite();

/// Installs a fault address for the current thread (RAII): code below the
/// scope probes kNanLoss without knowing which pipeline item it serves.
/// CollectSamples scopes each sample's training under its pending index.
class FaultAddressScope {
 public:
  explicit FaultAddressScope(int64_t address);
  ~FaultAddressScope();

  FaultAddressScope(const FaultAddressScope&) = delete;
  FaultAddressScope& operator=(const FaultAddressScope&) = delete;

 private:
  int64_t previous_;
};

/// The current thread's ambient fault address (-1 outside any scope).
int64_t CurrentFaultAddress();

}  // namespace autocts

#endif  // REPRO_COMMON_FAULT_H_
