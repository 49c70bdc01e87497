// load: the load generator, one process with --conns threads, each driving
// one persistent PRSB binary-framing connection (run.py passes nproc).
// Every request is a fresh_seed top-k request whose source is the next
// entry of the pre-drawn request stream; its id (stream index) rides in
// seed_position, which fresh_seed requests ignore, so server-side spans can
// name the request they belong to.
//
// --plan lists the phases to run, in order; each prints one JSON line:
//   warmup    closed loop over the next --warmup stream entries (cache and
//             engine workspaces warm; not timed)
//   nominal   open loop at --nominal-qps req/s for --nominal-s seconds
//   saturate  closed loop for --saturate-s seconds, kClosedWindow requests
//             in flight per connection: the server never waits for work
//   ladder    open-loop steps at --ladder-start * kLadderRatio^i,
//             --ladder-step-s each, until kStopMisses consecutive steps
//             miss the knee conditions (descending from the start when no
//             step passed)
// Open-loop latency runs from each request's scheduled send time to the
// arrival of its response on the socket (the kernel's receive timestamp);
// a failed request counts as an infinite latency.
// Replies for sources in --refs are compared bit for bit with the offline
// answers. --record PATH writes the nominal phase's per-request times.

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "net/frame.h"
#include "util/socket.h"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A request answered later than this misses the knee conditions.
constexpr double kLimitMs = 100.0;
constexpr int64_t kLimitNs = static_cast<int64_t>(kLimitMs * 1e6);
/// The generator stands in for clients on other machines, so it asks for a
/// raised priority: busy server workers must not delay its sends and
/// receives (that would be charged to the server as latency).
constexpr int kNice = -10;
/// The ladder stops after this many consecutive misses, so a host stall of
/// a step or two does not end it below the knee.
constexpr uint64_t kStopMisses = 3;
/// Each ladder step offers this much more than the one before: fine
/// enough that the knee can repeat within a tenth.
constexpr double kLadderRatio = 1.05;
/// Requests in flight per connection in a closed loop (warm-up, saturate):
/// enough to keep every service worker busy.
constexpr size_t kClosedWindow = 8;
/// A saturate phase pre-draws this many sources per second it lasts, far
/// more than any server here answers.
constexpr double kSaturateMaxQps = 20000;

/// Per-request outcome, written only by the thread that owns the request.
struct Outcome {
  int64_t sched_ns = 0;
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  bool ok = false;
  bool done = false;
};

struct Conn {
  prsim::UniqueFd fd;
  std::vector<char> out;
  size_t out_off = 0;
  /// (end offset in `out`, request index) of requests not yet fully sent.
  std::deque<std::pair<size_t, size_t>> unsent;
  std::vector<char> in;
  size_t in_off = 0;
  /// (end offset in `in`, arrival time) of each read not yet consumed.
  std::deque<std::pair<size_t, int64_t>> arrivals;
  /// Request indices awaiting a response, in send order.
  std::deque<size_t> pending;
  bool broken = false;
};

struct Phase {
  std::vector<NodeId> sources;
  uint64_t first_id = 0;
  bool open_loop = true;
  double rate = 0;            // open loop
  size_t window = 0;          // closed loop, per connection
  int64_t duration_ns = 0;    // closed loop: stop sending after this (0: all)
  std::vector<Outcome> outcomes;
};

class Generator {
 public:
  Generator(uint16_t port, size_t conns, uint32_t k, const References* refs)
      : port_(port), k_(k), refs_(refs) {
    conns_.resize(conns);
  }

  prsim::Status Connect() {
    for (Conn& conn : conns_) {
      auto fd = prsim::ConnectTcp(port_, 5000);
      if (!fd.ok()) return fd.status();
      conn.fd = std::move(fd).ValueOrDie();
      // Kernel receive timestamps: a reply's arrival is not postponed when
      // this process is descheduled before it reads the socket.
      const int one = 1;
      ::setsockopt(conn.fd.get(), SOL_SOCKET, SO_TIMESTAMPNS, &one,
                   sizeof(one));
      PRSIM_RETURN_NOT_OK(prsim::WriteAll(conn.fd.get(), prsim::net::kBinaryMagic,
                                          sizeof(prsim::net::kBinaryMagic)));
    }
    return prsim::Status::OK();
  }

  /// Runs one phase to completion: every request answered, failed, or
  /// abandoned when its connection broke or the drain timed out.
  void Run(Phase* phase) {
    phase->outcomes.assign(phase->sources.size(), Outcome{});
    start_ns_ = NowNs() + 2000000;  // 2 ms for the threads to start
    std::vector<std::thread> workers;
    for (size_t t = 0; t < conns_.size(); ++t) {
      workers.emplace_back([this, phase, t] { Worker(phase, t); });
    }
    for (std::thread& worker : workers) worker.join();
  }

  int64_t start_ns() const { return start_ns_; }
  uint64_t ref_checked() const { return ref_checked_.load(); }
  uint64_t kernel_stamped() const { return kernel_stamped_.load(); }
  uint64_t ref_mismatch() const { return ref_mismatch_.load(); }
  bool broken() const {
    return std::any_of(conns_.begin(), conns_.end(),
                       [](const Conn& c) { return c.broken; });
  }

 private:
  int64_t Scheduled(const Phase& phase, size_t i) const {
    return start_ns_ + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                            phase.rate);
  }

  void Enqueue(Phase* phase, Conn& conn, size_t i, int64_t now) {
    Outcome& outcome = phase->outcomes[i];
    prsim::net::WireRequest request;
    request.source = phase->sources[i];
    request.k = k_;
    request.fresh_seed = true;
    request.seed_position = phase->first_id + i;
    const int64_t encode_start = NowNs();
    prsim::net::EncodeRequest(request, &payload_scratch());
    outcome.encode_ns = NowNs() - encode_start;
    const auto length = static_cast<uint32_t>(payload_scratch().size());
    const char* len_bytes = reinterpret_cast<const char*>(&length);
    conn.out.insert(conn.out.end(), len_bytes, len_bytes + sizeof(length));
    conn.out.insert(conn.out.end(), payload_scratch().begin(),
                    payload_scratch().end());
    conn.unsent.emplace_back(conn.out.size(), i);
    conn.pending.push_back(i);
    outcome.sched_ns = phase->open_loop ? Scheduled(*phase, i) : now;
  }

  /// Monotonic arrival time of a read: its kernel receive timestamp
  /// (CLOCK_REALTIME) moved onto the monotonic clock, or now when the
  /// kernel attached none.
  int64_t ArrivalNs(msghdr& msg) {
    const int64_t now = NowNs();
    for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
         c = CMSG_NXTHDR(&msg, c)) {
      if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_TIMESTAMPNS) {
        continue;
      }
      timespec stamp;
      std::memcpy(&stamp, CMSG_DATA(c), sizeof(stamp));
      timespec real;
      ::clock_gettime(CLOCK_REALTIME, &real);
      const int64_t behind =
          (static_cast<int64_t>(real.tv_sec) - stamp.tv_sec) * 1000000000 +
          (real.tv_nsec - stamp.tv_nsec);
      if (behind >= 0 && behind < 1000000000) {
        kernel_stamped_.fetch_add(1, std::memory_order_relaxed);
        return now - behind;
      }
    }
    return now;
  }

  static std::vector<char>& payload_scratch() {
    thread_local std::vector<char> scratch;
    return scratch;
  }

  void Flush(Phase* phase, Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd.get(), conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) conn.broken = true;
        break;
      }
      conn.out_off += static_cast<size_t>(n);
    }
    const int64_t now = NowNs();
    while (!conn.unsent.empty() && conn.unsent.front().first <= conn.out_off) {
      phase->outcomes[conn.unsent.front().second].sent_ns = now;
      conn.unsent.pop_front();
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
  }

  void Receive(Phase* phase, Conn& conn) {
    char buffer[65536];
    while (true) {
      iovec iov = {buffer, sizeof(buffer)};
      alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
      msghdr msg = {};
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);
      const ssize_t n = ::recvmsg(conn.fd.get(), &msg, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) conn.broken = true;
        break;
      }
      if (n == 0) {
        conn.broken = true;
        break;
      }
      conn.in.insert(conn.in.end(), buffer, buffer + n);
      conn.arrivals.emplace_back(conn.in.size(), ArrivalNs(msg));
    }
    std::vector<char> payload;
    while (conn.in.size() - conn.in_off >= sizeof(uint32_t)) {
      uint32_t length = 0;
      std::memcpy(&length, conn.in.data() + conn.in_off, sizeof(length));
      if (conn.in.size() - conn.in_off < sizeof(length) + length) break;
      const char* begin = conn.in.data() + conn.in_off + sizeof(length);
      payload.assign(begin, begin + length);
      conn.in_off += sizeof(length) + length;
      // The frame arrived with the read that delivered its last byte.
      while (conn.arrivals.front().first < conn.in_off) {
        conn.arrivals.pop_front();
      }
      const int64_t arrived = conn.arrivals.front().second;
      if (conn.pending.empty()) {
        conn.broken = true;  // a response nobody asked for
        break;
      }
      const size_t i = conn.pending.front();
      conn.pending.pop_front();
      Outcome& outcome = phase->outcomes[i];
      const int64_t decode_start = NowNs();
      auto decoded = prsim::net::DecodeResponse(payload);
      outcome.decode_ns = NowNs() - decode_start;
      outcome.recv_ns = arrived;
      outcome.done = true;
      outcome.ok = decoded.ok() && decoded.ValueOrDie().status_code == 0 &&
                   decoded.ValueOrDie().source == phase->sources[i];
      if (outcome.ok && refs_ != nullptr) {
        const auto ref = refs_->find(phase->sources[i]);
        if (ref != refs_->end()) {
          ref_checked_.fetch_add(1);
          if (!BitIdentical(ref->second, decoded.ValueOrDie().scores)) {
            ref_mismatch_.fetch_add(1);
            outcome.ok = false;
          }
        }
      }
    }
    if (conn.in_off == conn.in.size()) {
      conn.in.clear();
      conn.in_off = 0;
      conn.arrivals.clear();
    }
  }

  /// Thread t owns connection t and requests t, t + conns, ... (closed
  /// loop: handed out in the same interleaving as the connection has room).
  void Worker(Phase* phase, size_t t) {
    Conn& conn = conns_[t];
    const size_t stride = conns_.size();
    const size_t count = phase->sources.size();
    size_t next = t;
    const int64_t drain_limit_ns = 30LL * 1000000000;
    int64_t last_send_ns = start_ns_;
    while (!conn.broken) {
      const int64_t now = NowNs();
      if (phase->open_loop) {
        while (next < count && Scheduled(*phase, next) <= now) {
          Enqueue(phase, conn, next, now);
          last_send_ns = now;
          next += stride;
        }
      } else if (now >= start_ns_) {
        if (phase->duration_ns > 0 && now >= start_ns_ + phase->duration_ns) {
          next = std::max(next, count);  // time is up: send nothing more
        }
        while (next < count && conn.pending.size() < phase->window) {
          Enqueue(phase, conn, next, now);
          last_send_ns = now;
          next += stride;
        }
      }
      if (conn.out_off < conn.out.size()) Flush(phase, conn);
      const bool sending_done = next >= count;
      if (sending_done && conn.pending.empty()) break;
      if (sending_done && now - last_send_ns > drain_limit_ns) break;

      int64_t wait_ns = 50000000;
      if (!sending_done) {
        if (phase->open_loop) {
          wait_ns = Scheduled(*phase, next) - now;
        } else if (now < start_ns_) {
          wait_ns = start_ns_ - now;
        } else if (conn.pending.size() < phase->window) {
          wait_ns = 0;
        }
      }
      wait_ns = std::max<int64_t>(0, wait_ns);
      pollfd fd = {conn.fd.get(),
                   static_cast<short>(
                       POLLIN | (conn.out_off < conn.out.size() ? POLLOUT : 0)),
                   0};
      const timespec timeout = {static_cast<time_t>(wait_ns / 1000000000),
                                static_cast<long>(wait_ns % 1000000000)};
      if (::ppoll(&fd, 1, &timeout, nullptr) < 0 && errno != EINTR) {
        conn.broken = true;
        break;
      }
      if (fd.revents & (POLLIN | POLLHUP | POLLERR)) Receive(phase, conn);
      if (fd.revents & POLLOUT) Flush(phase, conn);
    }
  }

  uint16_t port_;
  uint32_t k_;
  const References* refs_;
  std::vector<Conn> conns_;
  int64_t start_ns_ = 0;
  std::atomic<uint64_t> kernel_stamped_{0};
  std::atomic<uint64_t> ref_checked_{0};
  std::atomic<uint64_t> ref_mismatch_{0};
};

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Summary of a finished phase. Knee conditions: p99 within kLimitMs,
/// achieved rate >= 0.95 of offered, lateness not growing (second-half
/// mean at most 1 ms above the first-half mean), no failed request.
/// An open loop's achieved rate counts the replies that arrived by the end
/// of its schedule (count / rate seconds) plus kLimitMs, so one late reply
/// costs one completion and the tail is left to the p99 condition; a closed
/// loop's runs to its last reply.
struct Summary {
  std::string json;
  bool meets_knee = false;
};

Summary Summarize(const std::string& name, const Phase& phase,
                  int64_t start_ns) {
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  uint64_t failed = 0;
  int64_t last_recv = start_ns;
  size_t count = 0;
  const int64_t schedule_end_ns =
      phase.open_loop
          ? start_ns + static_cast<int64_t>(
                           static_cast<double>(phase.outcomes.size()) * 1e9 /
                           phase.rate)
          : 0;
  uint64_t in_schedule = 0;
  for (const Outcome& o : phase.outcomes) {
    if (o.sched_ns == 0) continue;  // never sent: its phase's time ran out
    ++count;
    if (!o.ok) {
      ++failed;
      latency_ms.push_back(kInf);
    } else {
      latency_ms.push_back(static_cast<double>(o.recv_ns - o.sched_ns) / 1e6);
      last_recv = std::max(last_recv, o.recv_ns);
      if (o.recv_ns <= schedule_end_ns + kLimitNs) ++in_schedule;
    }
    if (o.sent_ns > 0) {
      lateness_ms.push_back(static_cast<double>(o.sent_ns - o.sched_ns) / 1e6);
    }
    encode_us.push_back(static_cast<double>(o.encode_ns) / 1e3);
    if (o.done) decode_us.push_back(static_cast<double>(o.decode_ns) / 1e3);
  }
  const double elapsed_s = static_cast<double>(last_recv - start_ns) / 1e9;
  double achieved = 0.0;
  if (phase.open_loop) {
    achieved = static_cast<double>(in_schedule) * 1e9 /
               static_cast<double>(schedule_end_ns - start_ns);
  } else if (elapsed_s > 0) {
    achieved = static_cast<double>(count - failed) / elapsed_s;
  }
  const std::vector<double> first(lateness_ms.begin(),
                                  lateness_ms.begin() + lateness_ms.size() / 2);
  const std::vector<double> second(lateness_ms.begin() + lateness_ms.size() / 2,
                                   lateness_ms.end());
  const double growth = Mean(second) - Mean(first);
  const double p99 = Quantile(latency_ms, 0.99);
  const double achieved_frac = phase.open_loop ? achieved / phase.rate : 1.0;
  Summary summary;
  summary.meets_knee = p99 <= kLimitMs && achieved_frac >= 0.95 &&
                       growth <= 1.0 && failed == 0;
  summary.json = Json()
                     .Str("phase", name)
                     .Num("offered_qps", phase.open_loop ? phase.rate : 0.0)
                     .Int("window", phase.open_loop ? 0 : phase.window)
                     .Int("requests", count)
                     .Int("failed", failed)
                     .Num("p50_ms", Quantile(latency_ms, 0.5))
                     .Num("p95_ms", Quantile(latency_ms, 0.95))
                     .Num("p99_ms", p99)
                     .Num("achieved_qps", achieved)
                     .Num("achieved_frac", achieved_frac)
                     .Num("lateness_p99_ms", Quantile(lateness_ms, 0.99))
                     .Num("lateness_max_ms", Quantile(lateness_ms, 1.0))
                     .Num("lateness_growth_ms", growth)
                     .Num("encode_us", Mean(encode_us))
                     .Num("decode_us", Mean(decode_us))
                     .Num("elapsed_s", elapsed_s)
                     .Int("meets_knee", summary.meets_knee ? 1 : 0)
                     .Done();
  return summary;
}

prsim::Status WriteRecord(const std::string& path, const Phase& phase) {
  std::ofstream out(path);
  // "C id source sched sent recv ok": one line per request.
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    out << "C " << phase.first_id + i << ' ' << phase.sources[i] << ' '
        << o.sched_ns << ' ' << o.sent_ns << ' ' << o.recv_ns << ' '
        << (o.ok ? 1 : 0) << '\n';
  }
  if (!out) return prsim::Status::IOError("cannot write " + path);
  return prsim::Status::OK();
}

}  // namespace

int RunLoad(const Flags& flags) {
  // Threads created below inherit this; failing to raise priority (no
  // privilege) leaves the default, which the end line reports.
  ::setpriority(PRIO_PROCESS, 0, kNice);
  const auto n = static_cast<NodeId>(flags.Int("n", 0));
  if (n == 0) {
    std::fprintf(stderr, "load: --n is required\n");
    return 2;
  }
  const RequestStream stream(flags.Int("stream-seed", 1), n,
                             flags.Num("zipf-s", 0.0));
  std::unique_ptr<References> refs;
  if (flags.Has("refs")) {
    auto loaded = ReadReferences(flags.Str("refs", ""));
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    refs = std::make_unique<References>(std::move(loaded).ValueOrDie());
  }
  const size_t conns = std::max<uint64_t>(1, flags.Int("conns", 1));
  Generator generator(static_cast<uint16_t>(flags.Int("port", 0)), conns,
                      static_cast<uint32_t>(flags.Int("k", 10)), refs.get());
  if (auto st = generator.Connect(); !st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return 1;
  }
  uint64_t offset = flags.Int("offset", 0);
  bool transport_ok = true;

  const auto run = [&](const std::string& name, Phase phase) {
    phase.first_id = offset;
    offset += phase.sources.size();
    generator.Run(&phase);
    transport_ok &= !generator.broken();
    Summary summary = Summarize(name, phase, generator.start_ns());
    EmitLine(summary.json);
    return std::make_pair(summary.meets_knee, std::move(phase));
  };
  const auto open = [&](const std::string& name, double rate, double seconds) {
    Phase phase;
    phase.rate = rate;
    phase.sources = stream.Slice(
        offset, static_cast<uint64_t>(std::max(1.0, std::round(rate * seconds))));
    return run(name, std::move(phase));
  };

  const auto ladder = [&] {
    const double start = flags.Num("ladder-start", 1);
    const double step_s = flags.Num("ladder-step-s", 1);
    const uint64_t max_steps = flags.Int("ladder-max-steps", 40);
    double knee = 0;
    uint64_t misses = 0;
    for (uint64_t i = 0; i < max_steps && misses < kStopMisses; ++i) {
      const double rate =
          start * std::pow(kLadderRatio, static_cast<double>(i));
      if (open("step", rate, step_s).first) {
        knee = rate;
        misses = 0;
      } else {
        ++misses;
      }
    }
    for (uint64_t i = 1; knee == 0 && i <= max_steps; ++i) {
      const double rate =
          start / std::pow(kLadderRatio, static_cast<double>(i));
      if (open("step", rate, step_s).first) knee = rate;
    }
    EmitLine(Json()
                 .Str("phase", "knee")
                 .Num("knee_qps", knee)
                 .Num("limit_ms", kLimitMs)
                 .Done());
  };

  // --plan names the phases to run, in order, comma-separated.
  std::string plan = flags.Str("plan", "");
  while (!plan.empty()) {
    const size_t comma = plan.find(',');
    const std::string name = plan.substr(0, comma);
    plan = comma == std::string::npos ? "" : plan.substr(comma + 1);
    if (name == "warmup") {
      Phase phase;
      phase.open_loop = false;
      phase.window = kClosedWindow;
      phase.sources = stream.Slice(offset, flags.Int("warmup", 0));
      run("warmup", std::move(phase));
    } else if (name == "saturate") {
      const double seconds = flags.Num("saturate-s", 1);
      Phase phase;
      phase.open_loop = false;
      phase.window = kClosedWindow;
      phase.duration_ns = static_cast<int64_t>(seconds * 1e9);
      phase.sources = stream.Slice(
          offset, static_cast<uint64_t>(std::ceil(seconds * kSaturateMaxQps)));
      run("saturate", std::move(phase));
    } else if (name == "nominal") {
      auto [meets, phase] = open("nominal", flags.Num("nominal-qps", 1),
                                 flags.Num("nominal-s", 1));
      if (flags.Has("record")) {
        if (auto st = WriteRecord(flags.Str("record", ""), phase); !st.ok()) {
          std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
          return 1;
        }
      }
    } else if (name == "ladder") {
      ladder();
    } else {
      std::fprintf(stderr, "load: unknown phase '%s'\n", name.c_str());
      return 2;
    }
  }
  EmitLine(Json()
               .Str("phase", "end")
               .Int("ref_checked", generator.ref_checked())
               .Int("ref_mismatch", generator.ref_mismatch())
               .Int("transport_ok", transport_ok ? 1 : 0)
               .Int("next_offset", offset)
               .Num("nice", ::getpriority(PRIO_PROCESS, 0))
               .Int("kernel_stamped_reads", generator.kernel_stamped())
               .Done());
  return 0;
}

}  // namespace perfbench
