#include "core/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace qmb::coll {
namespace {

[[nodiscard]] int floor_pow2(int n) {
  int m = 1;
  while (m * 2 <= n) m *= 2;
  return m;
}

GroupSchedule make_dissemination(int n) {
  GroupSchedule g;
  g.algorithm = Algorithm::kDissemination;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    for (int m = 0, dist = 1; dist < n; ++m, dist *= 2) {
      Step st;
      st.sends.push_back({(i + dist) % n, static_cast<std::uint32_t>(m)});
      st.waits.push_back({(i - dist + n) % n, static_cast<std::uint32_t>(m)});
      rs.steps.push_back(std::move(st));
    }
  }
  return g;
}

GroupSchedule make_pairwise_exchange(int n) {
  GroupSchedule g;
  g.algorithm = Algorithm::kPairwiseExchange;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  const int m = floor_pow2(n);

  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    if (i >= m) {
      // Extra rank: register with partner i-m up front, wait for release.
      Step pre;
      pre.sends.push_back({i - m, kTagPre});
      rs.steps.push_back(std::move(pre));
      Step post;
      post.waits.push_back({i - m, kTagPost});
      rs.steps.push_back(std::move(post));
      continue;
    }
    if (i + m < n) {
      // Partner of an extra rank: absorb its registration first.
      Step pre;
      pre.waits.push_back({i + m, kTagPre});
      rs.steps.push_back(std::move(pre));
    }
    for (int s = 0, dist = 1; dist < m; ++s, dist *= 2) {
      Step st;
      const int peer = i ^ dist;
      st.sends.push_back({peer, static_cast<std::uint32_t>(s)});
      st.waits.push_back({peer, static_cast<std::uint32_t>(s)});
      rs.steps.push_back(std::move(st));
    }
    if (i + m < n) {
      Step post;
      post.sends.push_back({i + m, kTagPost});
      rs.steps.push_back(std::move(post));
    }
  }
  return g;
}

GroupSchedule make_gather_broadcast(int n, int d) {
  if (d < 1) throw std::invalid_argument("tree degree must be >= 1");
  GroupSchedule g;
  g.algorithm = Algorithm::kGatherBroadcast;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    std::vector<int> children;
    for (int c = d * i + 1; c <= d * i + d && c < n; ++c) children.push_back(c);
    const int parent = (i - 1) / d;

    if (i == 0) {
      if (!children.empty()) {
        Step gather;
        for (int c : children) gather.waits.push_back({c, kTagUp});
        rs.steps.push_back(std::move(gather));
        Step release;
        for (int c : children) release.sends.push_back({c, kTagDown});
        rs.steps.push_back(std::move(release));
      }
      continue;
    }
    if (!children.empty()) {
      Step gather;
      for (int c : children) gather.waits.push_back({c, kTagUp});
      rs.steps.push_back(std::move(gather));
    }
    Step up_then_wait;
    up_then_wait.sends.push_back({parent, kTagUp});
    up_then_wait.waits.push_back({parent, kTagDown});
    rs.steps.push_back(std::move(up_then_wait));
    if (!children.empty()) {
      Step release;
      for (int c : children) release.sends.push_back({c, kTagDown});
      rs.steps.push_back(std::move(release));
    }
  }
  return g;
}

GroupSchedule make_binomial_tree(int n) {
  GroupSchedule g;
  g.algorithm = Algorithm::kTree;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    // Binomial structure: rank i's parent is i minus its lowest set bit;
    // its children are i + 2^k for every 2^k below that bit (and < n).
    int parent = -1;
    std::vector<int> children;
    for (int m = 1; m < n; m *= 2) {
      if ((i & m) != 0) {
        parent = i - m;
        break;
      }
      if (i + m < n) children.push_back(i + m);
    }
    if (!children.empty()) {
      Step gather;
      for (int c : children) gather.waits.push_back({c, kTagUp});
      rs.steps.push_back(std::move(gather));
    }
    if (parent >= 0) {
      Step up_then_wait;
      up_then_wait.sends.push_back({parent, kTagUp});
      up_then_wait.waits.push_back({parent, kTagDown});
      rs.steps.push_back(std::move(up_then_wait));
    }
    if (!children.empty()) {
      Step release;
      for (int c : children) release.sends.push_back({c, kTagDown});
      rs.steps.push_back(std::move(release));
    }
  }
  return g;
}

GroupSchedule make_tournament(int n) {
  // Mellor-Crummey/Scott tournament with statically determined winners:
  // rank i loses at round k = ctz(i) (it signals i - 2^k and blocks for a
  // wakeup), winning every earlier round against i + 2^k where that loser
  // exists. Rank 0 is the champion; wakeups fan back out in reverse round
  // order. Same edges as the binomial tree, but each round is its own
  // sequenced step — the timing signature the tournament is known for.
  GroupSchedule g;
  g.algorithm = Algorithm::kTournament;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    int lose_round = -1;  // champion never loses
    int lose_dist = 0;
    for (int k = 0, m = 1; m < n; ++k, m *= 2) {
      if (i != 0 && (i & m) != 0) {
        lose_round = k;
        lose_dist = m;
        break;
      }
      if (i + m < n) {
        Step win;
        win.waits.push_back({i + m, static_cast<std::uint32_t>(k)});
        rs.steps.push_back(std::move(win));
      }
    }
    if (lose_round >= 0) {
      Step lose;
      lose.sends.push_back({i - lose_dist, static_cast<std::uint32_t>(lose_round)});
      lose.waits.push_back({i - lose_dist, kTagWake});
      rs.steps.push_back(std::move(lose));
    }
    // Wakeup fan-out: every round this rank won, in reverse order. The
    // champion's top is the next power of two >= n (its last win round may
    // pair it beyond the largest rank when n is not a power of two).
    int top = lose_dist;
    if (lose_round < 0) {
      top = 1;
      while (top < n) top *= 2;
    }
    for (int m = top / 2; m >= 1; m /= 2) {
      if (i + m >= n) continue;
      Step wake;
      wake.sends.push_back({i + m, kTagWake});
      rs.steps.push_back(std::move(wake));
    }
  }
  return g;
}

GroupSchedule make_fway_dissemination(int n, int f) {
  if (f < 2) throw std::invalid_argument("f-way dissemination needs radix >= 2");
  GroupSchedule g;
  g.algorithm = Algorithm::kFwayDissemination;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    int round = 0;
    for (long long unit = 1; unit < n; unit *= f, ++round) {
      Step st;
      // Round k covers distances j * f^k for j = 1..f-1. Distances that
      // collapse to 0 mod n (or repeat within the round) are skipped: the
      // knowledge they would carry is already covered.
      std::vector<bool> used(static_cast<std::size_t>(n), false);
      for (int j = 1; j < f; ++j) {
        const int d = static_cast<int>((static_cast<long long>(j) * unit) % n);
        if (d == 0 || used[static_cast<std::size_t>(d)]) continue;
        used[static_cast<std::size_t>(d)] = true;
        st.sends.push_back({(i + d) % n, static_cast<std::uint32_t>(round)});
        st.waits.push_back({(i - d + n) % n, static_cast<std::uint32_t>(round)});
      }
      rs.steps.push_back(std::move(st));
    }
  }
  return g;
}

GroupSchedule make_remote_atomic(int n) {
  // Central-counter barrier over remote atomics (shigeki-akiyama's
  // remote_cas MPI barrier): every rank fetch-adds the counter that lives
  // on rank 0's NIC and blocks on the release flag; the arrival that makes
  // the counter hit N-1 triggers the release fan-out. As a schedule that
  // is a star: N-1 kTagUp edges into rank 0, N-1 kTagDown edges out.
  GroupSchedule g;
  g.algorithm = Algorithm::kRemoteAtomic;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    if (i == 0) {
      Step gather;
      for (int r = 1; r < n; ++r) gather.waits.push_back({r, kTagUp});
      rs.steps.push_back(std::move(gather));
      Step release;
      for (int r = 1; r < n; ++r) release.sends.push_back({r, kTagDown});
      rs.steps.push_back(std::move(release));
    } else {
      Step st;
      st.sends.push_back({0, kTagUp});
      st.waits.push_back({0, kTagDown});
      rs.steps.push_back(std::move(st));
    }
  }
  return g;
}

}  // namespace

std::string_view to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kGatherBroadcast: return "gather-broadcast";
    case Algorithm::kPairwiseExchange: return "pairwise-exchange";
    case Algorithm::kDissemination: return "dissemination";
    case Algorithm::kTree: return "tree";
    case Algorithm::kTournament: return "tournament";
    case Algorithm::kFwayDissemination: return "fway-dissemination";
    case Algorithm::kRemoteAtomic: return "remote-atomic";
    case Algorithm::kRotation: return "rotation";
  }
  return "?";
}

std::optional<Algorithm> parse_algorithm(std::string_view s) {
  for (Algorithm a : kBarrierAlgorithms) {
    if (s == to_string(a)) return a;
  }
  if (s == to_string(Algorithm::kRotation)) return Algorithm::kRotation;
  return std::nullopt;
}

std::string_view to_string(OpKind k) {
  switch (k) {
    case OpKind::kBarrier: return "barrier";
    case OpKind::kBcast: return "bcast";
    case OpKind::kAllreduce: return "allreduce";
    case OpKind::kAllgather: return "allgather";
    case OpKind::kAlltoall: return "alltoall";
  }
  return "?";
}

std::optional<OpKind> parse_op_kind(std::string_view s) {
  if (s == "barrier") return OpKind::kBarrier;
  if (s == "bcast") return OpKind::kBcast;
  if (s == "allreduce") return OpKind::kAllreduce;
  if (s == "reduce") return OpKind::kAllreduce;  // MPI-style CLI alias
  if (s == "allgather") return OpKind::kAllgather;
  if (s == "alltoall") return OpKind::kAlltoall;
  return std::nullopt;
}

std::string_view to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kMax: return "max";
  }
  return "?";
}

std::optional<ReduceOp> parse_reduce_op(std::string_view s) {
  if (s == "sum") return ReduceOp::kSum;
  if (s == "min") return ReduceOp::kMin;
  if (s == "max") return ReduceOp::kMax;
  return std::nullopt;
}

int RankSchedule::total_sends() const {
  int n = 0;
  for (const Step& s : steps) n += static_cast<int>(s.sends.size());
  return n;
}

int RankSchedule::total_waits() const {
  int n = 0;
  for (const Step& s : steps) n += static_cast<int>(s.waits.size());
  return n;
}

int GroupSchedule::total_messages() const {
  int n = 0;
  for (const RankSchedule& r : ranks) n += r.total_sends();
  return n;
}

int GroupSchedule::max_steps() const {
  std::size_t n = 0;
  for (const RankSchedule& r : ranks) n = std::max(n, r.steps.size());
  return static_cast<int>(n);
}

GroupSchedule make_barrier_schedule(Algorithm algorithm, int n, int radix) {
  if (n < 1) throw std::invalid_argument("barrier group needs >= 1 rank");
  if (algorithm == Algorithm::kRotation) {
    throw std::invalid_argument(
        "rotation labels the alltoall ring; it is not a barrier algorithm");
  }
  if (radix == 1) {
    // Degree-1 trees degenerate to O(n) chains; callers always mean either
    // "the default" (0) or a real fan-out (>= 2).
    throw std::invalid_argument("barrier radix must be 0 (default) or >= 2");
  }
  if (n == 1) {
    GroupSchedule g;
    g.algorithm = algorithm;
    g.size = 1;
    g.ranks.resize(1);
    return g;
  }
  switch (algorithm) {
    case Algorithm::kDissemination: return make_dissemination(n);
    case Algorithm::kPairwiseExchange: return make_pairwise_exchange(n);
    case Algorithm::kGatherBroadcast:
      return make_gather_broadcast(n, radix > 0 ? radix : 2);
    case Algorithm::kTree: return make_binomial_tree(n);
    case Algorithm::kTournament: return make_tournament(n);
    case Algorithm::kFwayDissemination:
      return make_fway_dissemination(n, radix > 0 ? radix : 4);
    case Algorithm::kRemoteAtomic: return make_remote_atomic(n);
    case Algorithm::kRotation: break;  // rejected above
  }
  throw std::invalid_argument("unknown algorithm");
}

std::int64_t combine_value(OpKind kind, ReduceOp op, std::uint32_t tag,
                           std::int64_t acc, std::int64_t incoming) {
  switch (kind) {
    case OpKind::kBarrier:
      return acc;
    case OpKind::kBcast:
      return incoming;
    case OpKind::kAllgather:
    case OpKind::kAlltoall:
      return acc | incoming;  // idempotent mask union
    case OpKind::kAllreduce:
      if (is_result_tag(tag)) return incoming;
      switch (op) {
        case ReduceOp::kSum: return acc + incoming;
        case ReduceOp::kMin: return incoming < acc ? incoming : acc;
        case ReduceOp::kMax: return incoming > acc ? incoming : acc;
      }
      return acc;
  }
  return acc;
}

int value_words(OpKind kind, std::int64_t value) {
  if (kind != OpKind::kAllgather) return 1;  // alltoall ships one word per pair
  int words = 0;
  auto v = static_cast<std::uint64_t>(value);
  while (v != 0) {
    words += static_cast<int>(v & 1);
    v >>= 1;
  }
  return words > 0 ? words : 1;
}

GroupSchedule make_bcast_schedule(int n, int root, int tree_degree) {
  if (n < 1) throw std::invalid_argument("bcast group needs >= 1 rank");
  if (root < 0 || root >= n) throw std::invalid_argument("bcast root out of range");
  if (tree_degree < 1) throw std::invalid_argument("tree degree must be >= 1");
  GroupSchedule g;
  g.algorithm = Algorithm::kGatherBroadcast;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  // Tree on virtual ranks v = (r - root) mod n, so `root` is virtual rank 0.
  //
  // The payload fans out on kTagDown edges; an ACK phase combines back up
  // on kTagUp edges (as in the paper's NIC-multicast companion work). The
  // ACK phase is what keeps consecutive broadcasts pipelined by at most one
  // operation: without it the root completes instantly and can race
  // arbitrarily far ahead of the leaves, which no fixed-depth operation
  // window could absorb.
  const auto real = [&](int v) { return (v + root) % n; };
  for (int v = 0; v < n; ++v) {
    auto& rs = g.ranks[static_cast<std::size_t>(real(v))];
    std::vector<int> children;
    for (int c = tree_degree * v + 1; c <= tree_degree * v + tree_degree && c < n; ++c) {
      children.push_back(c);
    }
    if (v == 0) {
      if (!children.empty()) {
        Step release;
        for (int c : children) release.sends.push_back({real(c), kTagDown});
        rs.steps.push_back(std::move(release));
        Step gather;
        for (int c : children) gather.waits.push_back({real(c), kTagUp});
        rs.steps.push_back(std::move(gather));
      }
      continue;
    }
    const int parent = (v - 1) / tree_degree;
    Step recv;
    recv.waits.push_back({real(parent), kTagDown});
    rs.steps.push_back(std::move(recv));
    if (!children.empty()) {
      Step fwd;
      for (int c : children) fwd.sends.push_back({real(c), kTagDown});
      rs.steps.push_back(std::move(fwd));
      Step gather;
      for (int c : children) gather.waits.push_back({real(c), kTagUp});
      rs.steps.push_back(std::move(gather));
    }
    Step ack;
    ack.sends.push_back({real(parent), kTagUp});
    rs.steps.push_back(std::move(ack));
  }
  return g;
}

GroupSchedule make_binomial_bcast_schedule(int n, int root) {
  if (n < 1) throw std::invalid_argument("bcast group needs >= 1 rank");
  if (root < 0 || root >= n) throw std::invalid_argument("bcast root out of range");
  GroupSchedule g;
  g.algorithm = Algorithm::kTree;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  // Binomial tree on virtual ranks v = (r - root) mod n: v's parent is v
  // minus its lowest set bit, its children are v + 2^k for every 2^k below
  // that bit (and < n). Phase order matches make_bcast_schedule — payload
  // down first, ACKs combine back up — so the root cannot race ahead of
  // the leaves by more than one operation.
  const auto real = [&](int v) { return (v + root) % n; };
  for (int v = 0; v < n; ++v) {
    auto& rs = g.ranks[static_cast<std::size_t>(real(v))];
    int parent = -1;
    std::vector<int> children;
    for (int m = 1; m < n; m *= 2) {
      if ((v & m) != 0) {
        parent = v - m;
        break;
      }
      if (v + m < n) children.push_back(v + m);
    }
    if (parent >= 0) {
      Step recv;
      recv.waits.push_back({real(parent), kTagDown});
      rs.steps.push_back(std::move(recv));
    }
    if (!children.empty()) {
      Step fwd;
      for (int c : children) fwd.sends.push_back({real(c), kTagDown});
      rs.steps.push_back(std::move(fwd));
      Step gather;
      for (int c : children) gather.waits.push_back({real(c), kTagUp});
      rs.steps.push_back(std::move(gather));
    }
    if (parent >= 0) {
      Step ack;
      ack.sends.push_back({real(parent), kTagUp});
      rs.steps.push_back(std::move(ack));
    }
  }
  return g;
}

GroupSchedule make_allreduce_schedule(int n) {
  // Recursive doubling: exchange partials, then release the extra ranks
  // with the final result. The pairwise-exchange barrier schedule already
  // has exactly this structure; only the payload semantics differ.
  return make_barrier_schedule(Algorithm::kPairwiseExchange, n);
}

GroupSchedule make_fway_allreduce_schedule(int n, int f) {
  if (n < 1) throw std::invalid_argument("allreduce group needs >= 1 rank");
  if (f <= 0) f = 4;
  if (f < 2) throw std::invalid_argument("f-way allreduce needs radix >= 2");
  GroupSchedule g;
  g.algorithm = Algorithm::kFwayDissemination;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  if (n == 1) return g;
  // The dissemination barrier's skip-distances double-count contributions
  // under a non-idempotent reduction on arbitrary n, so the value-carrying
  // variant restricts the exchange rounds to the largest power-of-f block
  // m: after round k every block rank holds the sum of the f^(k+1)
  // contiguous ranks ending at itself, and those source blocks tile with no
  // overlap. Ranks >= m register with base i mod m up front (kTagPre,
  // summed) and wait for the final result (kTagPost, replaces).
  long long m = 1;
  while (m * static_cast<long long>(f) <= n) m *= f;
  const int base_count = static_cast<int>(m);
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    if (i >= base_count) {
      Step pre;
      pre.sends.push_back({i % base_count, kTagPre});
      rs.steps.push_back(std::move(pre));
      Step post;
      post.waits.push_back({i % base_count, kTagPost});
      rs.steps.push_back(std::move(post));
      continue;
    }
    std::vector<int> extras;
    for (int e = i + base_count; e < n; e += base_count) extras.push_back(e);
    if (!extras.empty()) {
      Step pre;
      for (int e : extras) pre.waits.push_back({e, kTagPre});
      rs.steps.push_back(std::move(pre));
    }
    int round = 0;
    for (long long unit = 1; unit < base_count; unit *= f, ++round) {
      Step st;
      for (int j = 1; j < f; ++j) {
        const int d = static_cast<int>((static_cast<long long>(j) * unit) % base_count);
        st.sends.push_back({(i + d) % base_count, static_cast<std::uint32_t>(round)});
        st.waits.push_back({(i - d + base_count) % base_count,
                            static_cast<std::uint32_t>(round)});
      }
      rs.steps.push_back(std::move(st));
    }
    if (!extras.empty()) {
      Step post;
      for (int e : extras) post.sends.push_back({e, kTagPost});
      rs.steps.push_back(std::move(post));
    }
  }
  return g;
}

GroupSchedule make_allgather_schedule(int n) {
  return make_barrier_schedule(Algorithm::kDissemination, n);
}

GroupSchedule make_alltoall_schedule(int n) {
  if (n < 1) throw std::invalid_argument("alltoall group needs >= 1 rank");
  GroupSchedule g;
  g.algorithm = Algorithm::kRotation;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    for (int r = 1; r < n; ++r) {
      Step st;
      st.sends.push_back({(i + r) % n, static_cast<std::uint32_t>(r - 1)});
      st.waits.push_back({(i - r + n) % n, static_cast<std::uint32_t>(r - 1)});
      rs.steps.push_back(std::move(st));
    }
  }
  return g;
}

bool schedule_is_correct_barrier(const GroupSchedule& g) {
  // Virtual execution with knowledge propagation: every message carries the
  // sender's current knowledge set; a correct barrier ends with every rank
  // knowing every other rank and every executor complete.
  const int n = g.size;
  std::vector<std::vector<bool>> knows(static_cast<std::size_t>(n),
                                       std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int i = 0; i < n; ++i) knows[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = true;

  struct Msg {
    int src, dst;
    std::uint32_t tag;
    std::vector<bool> carried;
  };
  std::deque<Msg> wire;

  // A schedule that repeats an edge, or sends a message no wait expects,
  // cannot run on the executor's dense index: not a correct barrier.
  std::vector<EdgeIndex> index;
  index.reserve(static_cast<std::size_t>(n));
  try {
    for (const RankSchedule& r : g.ranks) index.emplace_back(r);
  } catch (const std::logic_error&) {
    return false;
  }
  std::vector<std::unique_ptr<ScheduleExecutor>> exec(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    exec[static_cast<std::size_t>(i)] = std::make_unique<ScheduleExecutor>(
        index[static_cast<std::size_t>(i)],
        [&, i](const Edge& e) {
          wire.push_back(Msg{i, e.peer, e.tag, knows[static_cast<std::size_t>(i)]});
        },
        [] {});
  }
  for (auto& e : exec) e->start();

  while (!wire.empty()) {
    Msg m = std::move(wire.front());
    wire.pop_front();
    if (m.dst < 0 || m.dst >= n) return false;
    const std::size_t wait = index[static_cast<std::size_t>(m.dst)].wait_of(m.src, m.tag);
    if (wait == EdgeIndex::kNone) return false;
    auto& dst_knows = knows[static_cast<std::size_t>(m.dst)];
    for (int r = 0; r < n; ++r) {
      if (m.carried[static_cast<std::size_t>(r)]) dst_knows[static_cast<std::size_t>(r)] = true;
    }
    exec[static_cast<std::size_t>(m.dst)]->arrive(wait);
  }

  for (int i = 0; i < n; ++i) {
    if (!exec[static_cast<std::size_t>(i)]->complete()) return false;
    for (int r = 0; r < n; ++r) {
      if (!knows[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)]) return false;
    }
  }
  return true;
}

EdgeIndex::EdgeIndex(const RankSchedule& schedule) : schedule_(&schedule) {
  // Numbers the edges in step order, then sorts them by key so an
  // arrival's (peer, tag) finds its index by binary search.
  waits_.reserve(static_cast<std::size_t>(schedule.total_waits()));
  sends_.reserve(static_cast<std::size_t>(schedule.total_sends()));
  begin_.reserve(schedule.steps.size() + 1);
  for (const Step& st : schedule.steps) {
    begin_.push_back(
        {static_cast<std::uint32_t>(waits_.size()), static_cast<std::uint32_t>(sends_.size())});
    for (const Edge& w : st.waits) {
      waits_.push_back({key(w.peer, w.tag), static_cast<std::uint32_t>(waits_.size())});
    }
    for (const Edge& e : st.sends) {
      sends_.push_back({key(e.peer, e.tag), static_cast<std::uint32_t>(sends_.size())});
    }
  }
  begin_.push_back(
      {static_cast<std::uint32_t>(waits_.size()), static_cast<std::uint32_t>(sends_.size())});
  const auto sort_unique = [](std::vector<Entry>& edges, const char* what) {
    const auto by_key = [](const Entry& x, const Entry& y) { return x.key < y.key; };
    std::sort(edges.begin(), edges.end(), by_key);
    const auto same = [](const Entry& x, const Entry& y) { return x.key == y.key; };
    if (std::adjacent_find(edges.begin(), edges.end(), same) != edges.end()) {
      throw std::logic_error(std::string("schedule ") + what +
                             " twice on one (peer, tag) edge");
    }
  };
  sort_unique(waits_, "waits");
  sort_unique(sends_, "sends");
}

std::size_t EdgeIndex::find(const std::vector<Entry>& edges, std::uint64_t k) {
  const auto it = std::lower_bound(edges.begin(), edges.end(), k,
                                   [](const Entry& e, std::uint64_t v) { return e.key < v; });
  return it != edges.end() && it->key == k ? it->index : kNone;
}

std::size_t EdgeIndex::wait_of(int peer, std::uint32_t tag) const {
  return find(waits_, key(peer, tag));
}

std::size_t EdgeIndex::send_of(int peer, std::uint32_t tag) const {
  return find(sends_, key(peer, tag));
}

std::size_t EdgeIndex::arrival(int peer, std::uint32_t tag) const {
  const std::size_t w = wait_of(peer, tag);
  if (w == kNone) {
    throw std::logic_error("arrival from rank " + std::to_string(peer) + " with tag " +
                           std::to_string(tag) + " matches no wait of the schedule");
  }
  return w;
}

ScheduleExecutor::ScheduleExecutor(const EdgeIndex& index, SendFn send, CompleteFn complete)
    : index_(&index),
      send_(std::move(send)),
      complete_(std::move(complete)),
      arrived_((index.waits() + 63) / 64, 0) {}

void ScheduleExecutor::set_step_consumer(StepConsumeFn fn) {
  consume_ = std::move(fn);
  values_.assign(consume_ ? index_->waits() : 0, 0);
}

void ScheduleExecutor::start() {
  assert(!started_ && "start() on a running executor; reset() first");
  started_ = true;
  step_ = 0;
  advance();
}

bool ScheduleExecutor::arrive(std::size_t wait, std::int64_t value) {
  std::uint64_t& word = arrived_[wait >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (wait & 63);
  if ((word & bit) != 0) return false;  // duplicate: the first payload stays
  word |= bit;
  if (!values_.empty()) values_[wait] = value;
  if (started_ && !complete()) advance();
  return true;
}

void ScheduleExecutor::reset() {
  std::fill(arrived_.begin(), arrived_.end(), 0);
  sends_issued_ = 0;
  step_ = 0;
  started_ = false;
}

std::vector<Edge> ScheduleExecutor::missing_current_waits() const {
  std::vector<Edge> missing;
  if (!started_ || complete()) return missing;
  const std::vector<Edge>& waits = steps()[step_].waits;
  const std::size_t first = index_->wait_begin(step_);
  for (std::size_t j = 0; j < waits.size(); ++j) {
    if (!has_arrived(first + j)) missing.push_back(waits[j]);
  }
  return missing;
}

bool ScheduleExecutor::has_sent(int peer, std::uint32_t tag) const {
  const std::size_t s = index_->send_of(peer, tag);
  return s != EdgeIndex::kNone && s < sends_issued_;
}

bool ScheduleExecutor::all_arrived(std::size_t begin, std::size_t end) const {
  while (begin < end) {
    const std::size_t shift = begin & 63;
    const std::size_t n = std::min<std::size_t>(64 - shift, end - begin);
    const std::uint64_t mask = (n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1)
                               << shift;
    if ((arrived_[begin >> 6] & mask) != mask) return false;
    begin += n;
  }
  return true;
}

void ScheduleExecutor::advance() {
  // Issue the sends of each newly entered step, then stop at the first step
  // whose waits are not yet satisfied. Sends go out in dense index order, so
  // sends_issued_ is both the cursor and the has_sent() record.
  const std::vector<Step>& steps = this->steps();
  while (step_ < steps.size()) {
    const Step& st = steps[step_];
    const std::size_t first_send = index_->send_begin(step_);
    while (sends_issued_ < first_send + st.sends.size()) {
      const Edge& e = st.sends[sends_issued_ - first_send];
      ++sends_issued_;
      send_(e);
    }
    const std::size_t first_wait = index_->wait_begin(step_);
    if (!all_arrived(first_wait, first_wait + st.waits.size())) return;
    if (consume_ && !st.waits.empty()) consume_(st, values_.data() + first_wait);
    ++step_;
  }
  complete_();
}

}  // namespace qmb::coll
