// The per-rank split-phase state machine behind Collective::start/wait
// (and so Barrier::notify/wait). The protocol's completion can land before
// or after the host's wait(); the state records which side arrived first.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace qmb::core {

class SplitPhase {
 public:
  /// The waiter's callback; it receives the operation's result.
  using Done = std::function<void(std::int64_t)>;

  /// Part 1: marks `rank` started. Throws std::logic_error on a double
  /// start (a start with no intervening wait completion).
  void begin(int rank, int size) {
    State& st = state(rank, size);
    if (st.phase != Phase::kIdle) {
      fail(rank, "started the collective twice without waiting");
    }
    st.phase = Phase::kStarted;
  }

  /// The protocol completed `rank`'s operation with `result`.
  void complete(int rank, int size, std::int64_t result) {
    State& st = state(rank, size);
    if (st.phase == Phase::kWaiting) {
      // Host got there first and parked; release it and re-arm.
      Done done = std::move(st.waiter);
      st.waiter = nullptr;
      st.phase = Phase::kIdle;
      done(result);
    } else {
      st.result = result;
      st.phase = Phase::kReady;
    }
  }

  /// Part 2: `done` runs when the started operation completes — at once if
  /// it already has. Throws std::logic_error without a prior start, or
  /// when a wait is already pending.
  void wait(int rank, int size, Done done) {
    State& st = state(rank, size);
    switch (st.phase) {
      case Phase::kIdle:
        fail(rank, "waited on the collective without a start");
      case Phase::kWaiting:
        fail(rank, "waited on the collective twice");
      case Phase::kReady:
        // Protocol already finished under the compute phase: complete now.
        st.phase = Phase::kIdle;
        done(st.result);
        return;
      case Phase::kStarted:
        st.phase = Phase::kWaiting;
        st.waiter = std::move(done);
        return;
    }
  }

 private:
  enum class Phase : std::uint8_t {
    kIdle,     // no split-phase operation in flight
    kStarted,  // started, protocol still running, no waiter yet
    kWaiting,  // wait() parked a callback, protocol still running
    kReady,    // protocol completed before wait() showed up
  };
  struct State {
    Phase phase = Phase::kIdle;
    std::int64_t result = 0;
    Done waiter;
  };

  [[noreturn]] static void fail(int rank, const std::string& what) {
    throw std::logic_error("rank " + std::to_string(rank) + " " + what);
  }

  State& state(int rank, int size) {
    if (rank < 0 || rank >= size) {
      throw std::logic_error("split-phase rank " + std::to_string(rank) +
                             " out of range for a " + std::to_string(size) +
                             "-rank collective");
    }
    if (states_.size() != static_cast<std::size_t>(size)) {
      states_.resize(static_cast<std::size_t>(size));
    }
    return states_[static_cast<std::size_t>(rank)];
  }

  std::vector<State> states_;  // lazily sized to the executor's size()
};

}  // namespace qmb::core
