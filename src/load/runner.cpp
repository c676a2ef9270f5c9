#include "load/runner.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>
#include <utility>

#include "core/collectives.hpp"
#include "load/generator.hpp"
#include "load/group_manager.hpp"
#include "sim/rng.hpp"

namespace qmb::load {

namespace {

// Salts for deriving independent deterministic streams from one workload
// seed: arrivals per group, flood pairs per stream.
constexpr std::uint64_t kLoadSalt = 0x4C4F4144ULL;    // "LOAD"
constexpr std::uint64_t kArrivalSalt = 0x41525256ULL; // "ARRV"
constexpr std::uint64_t kFloodSalt = 0x464C4F44ULL;   // "FLOD"

/// Flood tags are plain application tags (bit 31 clear), so collective
/// receive filters and the trace round decoder ignore them.
constexpr std::uint32_t kFloodTagBase = 0x00F10000u;

}  // namespace

WorkloadOutcome run_workload(sim::Engine& engine, run::SubstrateCluster& cluster,
                             const run::ExperimentSpec& spec) {
  const WorkloadSpec& w = spec.workload;
  GroupManager mgr(cluster, spec);
  const int total = spec.warmup + spec.iters;
  const int size = w.group_size;
  const std::uint64_t wseed = mix_seed(w.seed != 0 ? w.seed : spec.seed, kLoadSalt);

  struct GroupRun {
    std::deque<sim::SimTime> backlog;  // arrivals queued behind a busy group
    int issued = 0;
    int completed = 0;
    int pending_ranks = 0;
    bool busy = false;
    bool saw_arrival = false;
    sim::SimTime cur_arrival = sim::SimTime::zero();
    sim::SimTime first_arrival = sim::SimTime::zero();
    sim::SimTime last_completion = sim::SimTime::zero();
    std::uint64_t backlog_peak = 0;
    sim::LatencySeries lat;  // timed samples (op index >= warmup)
  };
  std::vector<GroupRun> runs(static_cast<std::size_t>(w.groups));

  WorkloadOutcome out;
  out.impl_name = std::string(mgr.impl_name());
  int groups_left = w.groups;
  bool flood_stop = false;

  // Issues group g's next operation (arrival instant already recorded in
  // cur_arrival). Completion of the last rank closes the op, samples its
  // arrival->completion latency, and either re-enters (closed loop) or
  // drains the backlog (open loop).
  std::function<void(int)> start_op;
  start_op = [&](int g) {
    GroupRun& gr = runs[static_cast<std::size_t>(g)];
    gr.busy = true;
    if (!gr.saw_arrival) {
      gr.saw_arrival = true;
      gr.first_arrival = gr.cur_arrival;
    }
    const int k = gr.issued++;
    const coll::OpKind kind = mgr.kind_of(g, k);
    const std::int64_t expected = core::expected_collective_result(kind, size);
    gr.pending_ranks = size;
    for (int r = 0; r < size; ++r) {
      mgr.enter(g, k, r, r + 1, [&, g, k, expected](std::int64_t result) {
        GroupRun& c = runs[static_cast<std::size_t>(g)];
        ++out.ops_done;
        if (result != expected) ++out.value_errors;
        if (--c.pending_ranks > 0) return;
        c.busy = false;
        ++c.completed;
        c.last_completion = engine.now();
        if (k >= spec.warmup) c.lat.add(engine.now() - c.cur_arrival);
        if (c.completed == total) {
          if (--groups_left == 0) flood_stop = true;
          return;
        }
        if (c.issued >= total) return;
        if (w.arrival == Arrival::kClosed) {
          c.cur_arrival = engine.now();
          start_op(g);
        } else if (!c.backlog.empty()) {
          c.cur_arrival = c.backlog.front();
          c.backlog.pop_front();
          start_op(g);
        }
      });
    }
  };

  if (w.arrival == Arrival::kClosed) {
    for (int g = 0; g < w.groups; ++g) start_op(g);
  } else {
    // Open loop: every arrival instant is drawn up front from the group's
    // private stream and scheduled as an engine event — the issue clock
    // never waits on completions, so queueing shows up as latency.
    for (int g = 0; g < w.groups; ++g) {
      ArrivalProcess proc(
          w, mix_seed(wseed, kArrivalSalt + static_cast<std::uint64_t>(g)));
      for (int k = 0; k < total; ++k) {
        const sim::SimTime t = proc.next();
        engine.schedule_at(t, [&, g, t] {
          GroupRun& gr = runs[static_cast<std::size_t>(g)];
          if (gr.busy || gr.issued >= total) {
            gr.backlog.push_back(t);
            gr.backlog_peak =
                std::max(gr.backlog_peak, static_cast<std::uint64_t>(gr.backlog.size()));
            return;
          }
          gr.cur_arrival = t;
          start_op(g);
        });
      }
    }
  }

  // Background flood streams: each pumps one plain-tagged message every
  // flood period until the last group completes.
  std::vector<sim::Rng> flood_rngs;
  std::vector<std::function<void()>> pumps(static_cast<std::size_t>(
      w.flood_streams > 0 ? w.flood_streams : 0));
  if (w.flood_streams > 0) {
    cluster.flood_prepare();
    const std::int64_t fp =
        std::max<std::int64_t>(1, sim::microseconds(w.flood_period_us).picos());
    flood_rngs.reserve(static_cast<std::size_t>(w.flood_streams));
    for (int s = 0; s < w.flood_streams; ++s) {
      flood_rngs.emplace_back(
          mix_seed(wseed, kFloodSalt + static_cast<std::uint64_t>(s)));
    }
    for (int s = 0; s < w.flood_streams; ++s) {
      pumps[static_cast<std::size_t>(s)] = [&, s, fp] {
        if (flood_stop) return;
        int src;
        int dst;
        if (w.flood_random) {
          sim::Rng& rng = flood_rngs[static_cast<std::size_t>(s)];
          src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(spec.nodes)));
          dst = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(spec.nodes - 1)));
          if (dst >= src) ++dst;
        } else {
          src = (2 * s) % spec.nodes;
          dst = (2 * s + 1) % spec.nodes;
          if (dst == src) dst = (dst + 1) % spec.nodes;
        }
        cluster.flood_send(src, dst, w.flood_bytes,
                           kFloodTagBase | static_cast<std::uint32_t>(s & 0xFFF));
        ++out.flood_sends;
        engine.schedule(sim::SimDuration(fp),
                        [&pumps, s] { pumps[static_cast<std::size_t>(s)](); });
      };
      // Stagger stream starts across one period so they don't all hit the
      // fabric on the same tick.
      engine.schedule(sim::SimDuration(fp * s / w.flood_streams),
                      [&pumps, s] { pumps[static_cast<std::size_t>(s)](); });
    }
  }

  const sim::SimTime deadline = engine.now() + sim::milliseconds(spec.horizon_ms);
  engine.run_until(deadline);

  for (int g = 0; g < w.groups; ++g) {
    const GroupRun& gr = runs[static_cast<std::size_t>(g)];
    if (gr.completed != total) {
      throw std::runtime_error(
          "workload did not complete within horizon: group " + std::to_string(g) +
          " finished " + std::to_string(gr.completed) + "/" + std::to_string(total) +
          " operations");
    }
  }

  std::vector<double> tput;
  tput.reserve(static_cast<std::size_t>(w.groups));
  for (int g = 0; g < w.groups; ++g) {
    const GroupRun& gr = runs[static_cast<std::size_t>(g)];
    GroupStats st;
    st.group = g;
    st.ops = gr.lat.count();
    if (!gr.lat.empty()) {
      st.mean_picos = gr.lat.mean().picos();
      st.p50_picos = gr.lat.percentile(50.0).picos();
      st.p99_picos = gr.lat.percentile(99.0).picos();
      st.p999_picos = gr.lat.percentile(99.9).picos();
      st.max_picos = gr.lat.max().picos();
    }
    st.backlog_peak = gr.backlog_peak;
    st.makespan_picos = (gr.last_completion - gr.first_arrival).picos();
    tput.push_back(st.ops_per_ms());
    obs::Histogram h = engine.metrics().histogram("load.group_latency_picos", g);
    for (const sim::SimDuration sample : gr.lat.samples()) {
      h.record(static_cast<std::uint64_t>(sample.picos()));
      out.latency.add(sample);
    }
    out.groups.push_back(st);
  }
  out.fairness = jain_index(tput);
  obs::Counter fc = engine.metrics().counter("load.flood_sends");
  fc.add(out.flood_sends);
  obs::Counter oc = engine.metrics().counter("load.ops_completed");
  oc.add(out.ops_done);
  return out;
}

}  // namespace qmb::load
