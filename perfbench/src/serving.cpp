// The two TCP workloads and the server process they drive.
//
// serve_open_mix: a fresh four-route server (m5:2 fp32/fp16/int8/hybrid) under
//   open-loop Poisson arrivals of small, all-distinct frames (binary protocol
//   plus about one request in ten over HTTP) at a fixed rate, with an
//   operator connection polling GET /stats; then a closed-loop phase over
//   nproc connections gives capacity. Per-request layers do the most work
//   per unit of compute; the reuse layers only pay their miss cost.
// video_reuse: a fresh one-route auto-mode server (64-px tiles) under closed
//   loop: one video session per connection replaying the `mixed` pattern at
//   128x256, plus one connection cycling a small pool of stills so the
//   response cache hits. serve.video, core.tiled and serve.cache do the work.
//
// Every served frame is compared with the same route's in-process
// SesrInference::upscale on the same weights (hashes of both, 128 bits).
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

#include "core/tiled_inference.hpp"
#include "core/video_session.hpp"
#include "data/video.hpp"
#include "frame_timing.hpp"
#include "layers.hpp"
#include "serve/net/server.hpp"
#include "serve/sharded_server.hpp"
#include "serve_common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace net = sesr::serve::net;
using sesr::serve::ShardedServer;

constexpr int kSetupRepeats = 5;

// ------------------------------------------------------------ verification

// One served frame to compare against the in-process reference. `key` names
// the LR content (equal keys, equal frames), so each reference is computed
// once per (key, precision).
struct Check {
  std::uint64_t key = 0;
  std::size_t precision = 0;  // index into kAllPrecisions
  Hash128 got;
};

// Recomputes the reference of every check with SesrInference::upscale on the
// served precision (nproc threads, one replica set each) and counts
// mismatches into the report.
void verify(const SesrInference& base, const std::vector<Check>& checks,
            const std::function<Tensor(std::uint64_t)>& frame_of, bool corrupt, Report& report) {
  std::map<std::pair<std::uint64_t, std::size_t>, Hash128> want;
  for (const Check& c : checks) want.emplace(std::make_pair(c.key, c.precision), Hash128{});
  std::vector<std::pair<std::uint64_t, std::size_t>> jobs;
  for (const auto& [k, unused] : want) jobs.push_back(k);
  std::atomic<std::size_t> next{0};
  std::vector<Hash128> hashes(jobs.size());
  auto worker = [&] {
    std::vector<SesrInference> nets = precision_instances(base);
    for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();) {
      const Tensor out = nets[jobs[j].second].upscale(frame_of(jobs[j].first));
      hashes[j] = hash_tensor(out);
    }
  };
  set_threads(1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < hardware_threads(); ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  for (std::size_t j = 0; j < jobs.size(); ++j) want[jobs[j]] = hashes[j];
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const Check& c = checks[i];
    Hash128 got = c.got;
    if (corrupt && i == 0) got.a ^= 1;  // --corrupt-output: one served frame off by a bit
    if (got != want[{c.key, c.precision}]) ++mismatches;
  }
  report.failed += mismatches;
  report.detail("check.served_frames", static_cast<double>(checks.size()));
  report.detail("check.references", static_cast<double>(jobs.size()));
  if (mismatches > 0) {
    report.fail(std::to_string(mismatches) + " served frames differ from the in-process upscale");
  }
}

std::size_t precision_of_route(const std::string& route) {
  for (std::size_t i = 0; i < std::size(kAllPrecisions); ++i) {
    if (route == route_name(kAllPrecisions[i])) return i;
  }
  return std::size(kAllPrecisions);
}

// Records a response: a failure, or a check to verify later. Returns whether
// it came back with a frame.
bool accept(const Completion& c, std::uint64_t key, Report& report, std::vector<Check>& checks) {
  const std::size_t p = precision_of_route(c.served_route);
  if (!c.ok || p >= std::size(kAllPrecisions)) {
    ++report.failed;
    report.fail("request failed: " + (c.error.empty() ? c.served_route : c.error));
    return false;
  }
  checks.push_back(Check{key, p, c.hash});
  return true;
}

Clock::duration seconds_to(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

// Spawns the server kSetupRepeats times, each time timing spawn -> first
// response to `probe`, and keeps the last one running. setup_s is the median.
std::unique_ptr<ServerProcess> spawn_measured(const Options& options, const Tensor& probe,
                                              std::uint64_t probe_key, Samples& setup_s,
                                              Report& report, std::vector<Check>& checks) {
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server) server->stop();
    server = std::make_unique<ServerProcess>(options.self_exe, options.workload);
    LoadGen gen(server->port());
    const int conn = gen.connect(false);
    gen.send_binary(conn, probe_key, route_name(InferencePrecision::kFp32), probe);
    ++report.attempted;
    std::vector<Completion> done;
    while (done.empty() && gen.inflight() > 0) done = gen.poll(std::chrono::seconds(1));
    if (done.empty()) throw std::runtime_error("server process gave no first response");
    setup_s.add(ms_between(server->spawned(), done.front().done) / 1e3);
    accept(done.front(), probe_key, report, checks);
  }
  return server;
}

double ratio_of(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

void server_details(Report& report, const std::map<std::string, double>& stats) {
  for (const auto& [k, v] : stats) report.detail("server." + k, v);
}

// --------------------------------------------------------- serve_open_mix

// Offered load of the open-loop phase, requests/s: about 60% of the mix's
// closed-loop capacity (190-240 frames/s on a shared 4-vCPU AVX-512 host). A
// constant of the workload, never derived from the code under test.
constexpr double kOpenRate = 130.0;
// Latency limit of slo_attainment (from each request's due time).
constexpr double kOpenLimitMs = 150.0;
constexpr double kStatsPeriodMs = 250.0;
constexpr std::int64_t kMixSides[] = {64, 96};
// Shares of --seconds: in-process baseline, open loop, closed loop.
constexpr double kMixBaselineShare = 0.2;
constexpr double kMixOpenShare = 0.6;
constexpr double kMixClosedShare = 0.2;
// Frame-index ranges of the phases (FramePool stamps indices below 2^23).
constexpr std::uint64_t kProbeIndex = 1;
constexpr std::uint64_t kOpenBase = 1000;
constexpr std::uint64_t kClosedBase = 4'000'000;
constexpr std::uint64_t kStatsTag = 1ULL << 40;
constexpr int kClosedWindow = 2;

struct MixRequest {
  std::uint64_t index = 0;
  double due_s = 0.0;
  std::size_t precision = 0;
  std::int64_t side = 64;
  bool http = false;
};

MixRequest mix_request(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t r = derive_seed(seed, 50'000'000 + index);
  MixRequest m;
  m.index = index;
  m.precision = r % std::size(kAllPrecisions);
  m.side = kMixSides[(r >> 8) & 1];
  m.http = (r >> 16) % 10 == 0;
  return m;
}

std::vector<MixRequest> open_schedule(std::uint64_t seed, double duration_s) {
  std::mt19937_64 rng(derive_seed(seed, 20));
  std::exponential_distribution<double> gap(kOpenRate);
  std::vector<MixRequest> out;
  double t = 0.0;
  for (std::uint64_t k = 0;; ++k) {
    t += gap(rng);
    if (t >= duration_s) break;
    MixRequest m = mix_request(seed, kOpenBase + k);
    m.due_s = t;
    out.push_back(m);
  }
  return out;
}

struct OpenResult {
  Samples from_due_ms;   // client latency from each request's due time
  Samples from_send_ms;  // client latency from the moment it was written
  Samples lag_ms;        // generator lateness: send time - due time
  Samples poll_ms;       // GET /stats round trips
  std::size_t sent = 0;
  std::size_t within_limit = 0;
};

// The open-loop phase over two binary connections, one HTTP connection and
// one /stats poller, all driven from this thread.
OpenResult run_open_phase(std::uint16_t port, const std::vector<MixRequest>& schedule,
                          const FramePool& pool, double duration_s, Report& report,
                          std::vector<Check>& checks, Tracer* tracer = nullptr) {
  OpenResult res;
  LoadGen gen(port);
  const int binary[2] = {gen.connect(false), gen.connect(false)};
  const int http = gen.connect(true);
  const int poller = gen.connect(true);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end = start + seconds_to(duration_s);
  const Clock::time_point give_up = end + std::chrono::seconds(30);
  Clock::time_point next_poll = start;
  std::uint64_t polls = 0;
  std::size_t i = 0;
  std::size_t rr = 0;
  std::unordered_map<std::uint64_t, Clock::time_point> due_of;
  while (true) {
    Clock::time_point now = Clock::now();
    while (i < schedule.size() && start + seconds_to(schedule[i].due_s) <= now) {
      const MixRequest& m = schedule[i];
      const Clock::time_point due = start + seconds_to(m.due_s);
      const Tensor frame = pool.frame(m.index, m.side, m.side);
      const std::string route = route_name(kAllPrecisions[m.precision]);
      res.lag_ms.add(ms_between(due, Clock::now()));
      if (m.http) {
        gen.send_http_upscale(http, m.index, route, frame);
      } else {
        gen.send_binary(binary[rr++ % 2], m.index, route, frame);
      }
      due_of[m.index] = due;
      ++report.attempted;
      ++res.sent;
      ++i;
      now = Clock::now();
    }
    if (now >= next_poll && now < end) {
      if (gen.inflight(poller) == 0) gen.send_http_get(poller, kStatsTag + polls++, "/stats");
      next_poll += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(kStatsPeriodMs));
    }
    if (i == schedule.size() && gen.inflight() == 0) break;
    if (now > give_up) {
      report.failed += gen.inflight();
      report.fail(std::to_string(gen.inflight()) + " open-loop requests never answered");
      break;
    }
    Clock::time_point next = now + std::chrono::milliseconds(50);
    if (i < schedule.size()) next = std::min(next, start + seconds_to(schedule[i].due_s));
    if (next_poll < end) next = std::min(next, next_poll);
    for (const Completion& c : gen.poll(next - now)) {
      if (c.tag >= kStatsTag) {
        if (c.ok) res.poll_ms.add(ms_between(c.sent, c.done));
        continue;
      }
      if (tracer != nullptr) {
        tracer->record("net.request", c.sent, c.done, Tracer::kNoParent, c.tag);
      }
      const double from_due = ms_between(due_of[c.tag], c.done);
      res.from_due_ms.add(from_due);
      res.from_send_ms.add(ms_between(c.sent, c.done));
      if (accept(c, c.tag, report, checks) && from_due <= kOpenLimitMs) ++res.within_limit;
    }
  }
  return res;
}

// Closed loop over `connections` binary connections, kClosedWindow requests
// in flight on each, so every route's worker stays busy whatever the draw of
// routes; returns correct frames completed per second.
double run_closed_phase(std::uint16_t port, int connections, const FramePool& pool,
                        double duration_s, std::uint64_t seed, Report& report,
                        std::vector<Check>& checks) {
  LoadGen gen(port);
  std::uint64_t next_index = kClosedBase;
  auto send = [&](int conn) {
    const MixRequest m = mix_request(seed, next_index++);
    gen.send_binary(conn, m.index, route_name(kAllPrecisions[m.precision]),
                    pool.frame(m.index, m.side, m.side));
    ++report.attempted;
  };
  for (int k = 0; k < connections; ++k) gen.connect(false);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + seconds_to(duration_s);
  for (int k = 0; k < connections * kClosedWindow; ++k) send(k % connections);
  std::size_t completed = 0;
  while (gen.inflight() > 0) {
    if (Clock::now() > end + std::chrono::seconds(30)) {
      report.failed += gen.inflight();
      report.fail("closed-loop requests never answered");
      break;
    }
    for (const Completion& c : gen.poll(std::chrono::milliseconds(100))) {
      if (accept(c, c.tag, report, checks) && c.done <= end) ++completed;
      if (Clock::now() < end) send(c.connection);
    }
  }
  return static_cast<double>(completed) / duration_s;
}

// In-process compute baseline of the served shapes: the five frame_ms_*
// configurations on a frame of the workload's largest shape. Runs in two
// halves, before the server starts and after it stops, so the pooled samples
// span the whole run rather than one stretch of the host's load.
class ComputeBaseline {
 public:
  ComputeBaseline(const SesrInference& base, Tensor frame, double seconds)
      : nets_(precision_instances(base)), frame_(std::move(frame)), seconds_(seconds) {
    for (SesrInference& n : nets_) want_.push_back(n.upscale(frame_));
  }

  void measure_half(Report& report) {
    const std::vector<Samples> half = time_frame_configs(
        nets_, frame_, seconds_ / 2, report, [&](const FrameConfig& config, Tensor& got) {
          if (bit_equal(got, want_[precision_index(config.precision)])) return true;
          report.fail(std::string(config.metric) + ": upscale_into differs from upscale");
          return false;
        });
    samples_.resize(half.size());
    for (std::size_t c = 0; c < half.size(); ++c) {
      for (double v : half[c].values()) samples_[c].add(v);
    }
  }

  const std::vector<Samples>& samples() const { return samples_; }

 private:
  std::vector<SesrInference> nets_;
  Tensor frame_;
  double seconds_;
  std::vector<Tensor> want_;
  std::vector<Samples> samples_;
};

// Median warm upscale_into (one thread) per (precision, side): the compute
// part of each request, subtracted from submit->ready to give the wait.
std::map<std::pair<std::size_t, std::int64_t>, double> compute_per_shape(
    const SesrInference& base, const FramePool& pool) {
  std::map<std::pair<std::size_t, std::int64_t>, double> out;
  std::vector<SesrInference> nets = precision_instances(base);
  set_threads(1);
  for (std::size_t p = 0; p < nets.size(); ++p) {
    for (std::int64_t side : kMixSides) {
      const Tensor frame = pool.frame(0, side, side);
      Tensor hr(1, side * 2, side * 2, 1);
      Samples ms;
      for (int i = 0; i < 7; ++i) {
        const Clock::time_point t0 = Clock::now();
        nets[p].upscale_into(frame, hr);
        if (i > 1) ms.add(ms_since(t0));
      }
      out[{p, side}] = ms.median();
    }
  }
  return out;
}

// The traced in-process replay of the open-loop stream: ShardedServer::
// submit_admitted at each request's due time, one layer below the socket.
void replay_mix_in_process(const SesrInference& base, const std::vector<MixRequest>& schedule,
                           const FramePool& pool, Tracer& tracer, Report& report,
                           std::vector<Check>& checks, Samples& submit_to_ready_ms) {
  const ServeDefinition def = serve_definition("serve_open_mix");
  const std::map<std::pair<std::size_t, std::int64_t>, double> compute =
      compute_per_shape(base, pool);
  ShardedServer server(make_registry(def, base), def.options);

  struct Slot {
    std::future<Tensor> future;
    std::string served_route;
    Clock::time_point submitted;
    std::atomic<bool> ready{false};
    Clock::time_point ready_at;
    const MixRequest* request = nullptr;
    bool collected = false;
  };
  std::vector<std::unique_ptr<Slot>> slots;
  Samples submit_us;
  Samples wait_ms;
  std::map<std::size_t, Samples> expected_service_ms;  // per route, from the stream
  auto collect = [&](bool block) {
    for (auto& s : slots) {
      if (s->collected || (!block && !s->ready.load(std::memory_order_acquire))) continue;
      s->future.wait();
      while (!s->ready.load(std::memory_order_acquire)) std::this_thread::yield();
      s->collected = true;
      Completion c;
      try {
        const Tensor out = s->future.get();
        c.ok = true;
        c.hash = hash_tensor(out);
      } catch (const std::exception& e) {
        c.error = e.what();
      }
      c.served_route = s->served_route;
      if (!accept(c, s->request->index, report, checks)) continue;
      const double total = ms_between(s->submitted, s->ready_at);
      submit_to_ready_ms.add(total);
      const std::size_t p = precision_of_route(s->served_route);
      wait_ms.add(total - compute.at({p, s->request->side}));
      tracer.record("serve.submit_to_ready", s->submitted, s->ready_at, Tracer::kNoParent,
                    s->request->index);
    }
  };

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (const MixRequest& m : schedule) {
    const Clock::time_point due = start + seconds_to(m.due_s);
    while (Clock::now() < due) {
      collect(false);
      std::this_thread::sleep_until(std::min(due, Clock::now() + std::chrono::milliseconds(1)));
    }
    auto slot = std::make_unique<Slot>();
    Slot* s = slot.get();
    s->request = &m;
    const Tensor frame = pool.frame(m.index, m.side, m.side);
    sesr::serve::SubmitOptions opts;
    opts.never_block = true;
    opts.done_hook = [s] {
      s->ready_at = Clock::now();
      s->ready.store(true, std::memory_order_release);
    };
    expected_service_ms[m.precision].add(compute.at({m.precision, m.side}));
    ++report.attempted;
    s->submitted = Clock::now();
    sesr::serve::AdmitResult admitted =
        server.submit_admitted(route_key(kAllPrecisions[m.precision]), frame, std::move(opts));
    const Clock::time_point after = Clock::now();
    submit_us.add(ms_between(s->submitted, after) * 1e3);
    tracer.record("serve.submit_admitted", s->submitted, after, Tracer::kNoParent, m.index);
    s->served_route = admitted.served_route;
    s->future = std::move(admitted.future);
    slots.push_back(std::move(slot));
  }
  collect(true);

  const Clock::time_point t0 = Clock::now();
  const sesr::serve::ShardedStats stats = server.stats();
  report.metric("stats.snapshot_ms", ms_since(t0), "ms");
  report.timing("serve.submit_us", submit_us, "us");
  report.metric("serve.wait_ms.p50", wait_ms.median(), "ms");
  report.metric("serve.wait_ms.p99", wait_ms.quantile(0.99), "ms");
  report.detail("serve.wait_ms.samples", static_cast<double>(wait_ms.count()));
  report.metric("serve.mean_batch", stats.total.mean_batch_frames, "frames");
  report.metric("admission.shed", static_cast<double>(stats.total.shed), "count");
  report.metric("admission.degraded", static_cast<double>(stats.total.degraded), "count");
  Samples ratio;
  for (std::size_t r = 0; r < stats.per_route.size(); ++r) {
    const std::size_t p = precision_of_route(stats.per_route[r].route);
    if (stats.per_route[r].service_ewma_us > 0.0 && expected_service_ms.count(p)) {
      ratio.add(stats.per_route[r].service_ewma_us / 1e3 / expected_service_ms[p].mean());
    }
  }
  report.metric("admission.estimate_ratio", ratio.mean(), "ratio");
  const double lookups = static_cast<double>(stats.cache.hits + stats.cache.misses);
  report.metric("cache.hit_ratio", ratio_of(static_cast<double>(stats.cache.hits), lookups),
                "ratio");
  server.shutdown();
}

}  // namespace

Report run_serve_open_mix(const Options& options) {
  Report report;
  record_host_facts(report);
  set_threads(1);
  const SesrInference base = build_model();
  const FramePool pool(options.seed, 256);
  const std::vector<MixRequest> schedule =
      open_schedule(options.seed, kMixOpenShare * options.seconds);
  std::vector<Check> checks;
  const Tensor probe = pool.frame(kProbeIndex, 64, 64);
  auto frame_of = [&](std::uint64_t key) {
    if (key == kProbeIndex) return probe;
    const MixRequest m = mix_request(options.seed, key);
    return pool.frame(key, m.side, m.side);
  };
  report.detail("open.rate_rps", kOpenRate);
  report.detail("open.limit_ms", kOpenLimitMs);
  report.detail("open.scheduled", static_cast<double>(schedule.size()));

  if (options.trace) {
    Tracer tracer;
    const Tensor big = pool.frame(kProbeIndex, 96, 96);
    measure_plan_layers(report, tracer, base,
                        {std::begin(kAllPrecisions), std::end(kAllPrecisions)}, big,
                        kMixBaselineShare * options.seconds,
                        [&](InferencePrecision p, const Tensor& got) {
                          return bit_equal(got, with_precision(base, p).upscale(big));
                        });
    Samples in_process_ms;
    replay_mix_in_process(base, schedule, pool, tracer, report, checks, in_process_ms);
    {
      ServerProcess server(options.self_exe, options.workload);
      const OpenResult tcp = run_open_phase(server.port(), schedule, pool,
                                            kMixOpenShare * options.seconds, report, checks,
                                            &tracer);
      report.metric("net.overhead_ms", tcp.from_send_ms.median() - in_process_ms.median(), "ms");
      report.detail("net.tcp_p50_ms", tcp.from_send_ms.median());
      report.detail("net.in_process_p50_ms", in_process_ms.median());
      report.metric("stats.poll_p99_ms", tcp.poll_ms.quantile(0.99), "ms");
      report.detail("stats.poll.samples", static_cast<double>(tcp.poll_ms.count()));
      server_details(report, server.stop());
    }
    std::vector<std::string> routes;
    std::vector<Tensor> lr;
    std::vector<Tensor> hr;
    for (std::size_t k = 0; k < std::min<std::size_t>(schedule.size(), 200); ++k) {
      const MixRequest& m = schedule[k];
      routes.push_back(route_name(kAllPrecisions[m.precision]));
      lr.push_back(pool.frame(m.index, m.side, m.side));
      hr.emplace_back(1, m.side * 2, m.side * 2, 1);
    }
    measure_net_codec(report, routes, lr, hr);
    // Every frame is new, so each lookup misses against the cache's contents.
    const std::size_t half = lr.size() / 2;
    measure_cache_lookup(report, {lr.begin(), lr.begin() + static_cast<std::ptrdiff_t>(half)},
                         {lr.begin() + static_cast<std::ptrdiff_t>(half), lr.end()},
                         serve_definition(options.workload).options.cache_entries);
    verify(base, checks, frame_of, options.corrupt, report);
    fill_missing_layer_metrics(report);
    tracer.write(options.trace_dir + "/serve_open_mix-seed" + std::to_string(options.seed) +
                 ".spans.json");
    return report;
  }

  ComputeBaseline baseline(base, pool.frame(kProbeIndex, 96, 96),
                           kMixBaselineShare * options.seconds);
  baseline.measure_half(report);
  Samples setup_s;
  std::unique_ptr<ServerProcess> server =
      spawn_measured(options, probe, kProbeIndex, setup_s, report, checks);
  const OpenResult open = run_open_phase(server->port(), schedule, pool,
                                         kMixOpenShare * options.seconds, report, checks);
  const int connections = static_cast<int>(hardware_threads());
  const double fps = run_closed_phase(server->port(), connections, pool,
                                      kMixClosedShare * options.seconds, options.seed, report,
                                      checks);
  const std::map<std::string, double> final_stats = server->stop();
  server_details(report, final_stats);
  baseline.measure_half(report);
  verify(base, checks, frame_of, options.corrupt, report);

  report.metric("setup_s", setup_s.median(), "s");
  report.detail("setup_s.samples", static_cast<double>(setup_s.count()));
  report_frame_configs(report, baseline.samples());
  report.detail("frame_ms.shape", std::string("96x96"));
  report.latency(open.from_due_ms);
  report.metric("slo_attainment",
                open.sent > 0 ? static_cast<double>(open.within_limit) /
                                    static_cast<double>(open.sent)
                              : 0.0,
                "ratio");
  report.detail("throughput_fps", fps);
  report.detail("closed.connections", static_cast<double>(connections));
  report.metric("peak_rss_mb", server->peak_rss_mb(), "MB");
  report.detail("generator.lag_p50_ms", open.lag_ms.median());
  report.detail("generator.lag_p99_ms", open.lag_ms.quantile(0.99));
  report.detail("generator.lag_max_ms", open.lag_ms.quantile(1.0));
  report.detail("stats.poll_p99_ms", open.poll_ms.quantile(0.99));
  return report;
}

// ------------------------------------------------------------ video_reuse

namespace {

constexpr std::int64_t kVideoH = 128;
constexpr std::int64_t kVideoW = 256;
constexpr int kSessions = 3;
constexpr std::int64_t kSequenceFrames = 32;
constexpr int kStills = 4;
// Latency limit of slo_attainment.
constexpr double kVideoLimitMs = 250.0;
constexpr double kVideoBaselineShare = 0.25;
// Content keys of the verification: session s frame f, still i, probe.
constexpr std::uint64_t kVideoProbeKey = 1;
std::uint64_t video_key(int session, std::int64_t frame) {
  return (static_cast<std::uint64_t>(session + 1) << 32) | static_cast<std::uint64_t>(frame);
}
std::uint64_t still_key(int still) { return video_key(kSessions, still); }

struct VideoStreams {
  std::vector<std::vector<Tensor>> sequences;  // per session
  std::vector<Tensor> stills;
  std::vector<std::uint64_t> session_ids;
  Tensor probe;
  // Per sequence position t: clean tiles of the transition (t-1) -> t.
  std::vector<std::vector<std::size_t>> clean;
  std::size_t tiles_per_frame = 0;
};

VideoStreams make_streams(std::uint64_t seed, const SesrInference& base) {
  VideoStreams v;
  sesr::data::VideoSequenceOptions vopts;
  vopts.pattern = sesr::data::VideoPattern::kMixed;
  vopts.frames = kSequenceFrames;
  vopts.h = kVideoH;
  vopts.w = kVideoW;
  const sesr::serve::ServeOptions o = serve_definition("video_reuse").options;
  const std::int64_t halo = sesr::core::receptive_field_radius(base);
  for (int s = 0; s < kSessions; ++s) {
    v.sequences.push_back(sesr::data::synthesize_video(vopts, derive_seed(seed, 600 + s)));
    // Session ids unique per run and stream; each run also gets a fresh server.
    v.session_ids.push_back(derive_seed(seed, 650 + s) | 1);
    std::vector<std::size_t> clean(kSequenceFrames);
    for (std::int64_t t = 0; t < kSequenceFrames; ++t) {
      const auto& seq = v.sequences.back();
      const sesr::core::DeltaPlan plan = sesr::core::plan_tile_delta(
          seq[static_cast<std::size_t>((t + kSequenceFrames - 1) % kSequenceFrames)],
          seq[static_cast<std::size_t>(t)], o.tiling, halo);
      clean[static_cast<std::size_t>(t)] = plan.tasks.size() - plan.dirty_count;
      v.tiles_per_frame = plan.tasks.size();
    }
    v.clean.push_back(std::move(clean));
  }
  for (int i = 0; i < kStills; ++i) {
    v.stills.push_back(seeded_frame(derive_seed(seed, 700 + i), kVideoH, kVideoW));
  }
  v.probe = seeded_frame(derive_seed(seed, 699), kVideoH, kVideoW);
  return v;
}

Tensor video_frame(const VideoStreams& v, std::uint64_t key) {
  if (key == kVideoProbeKey) return v.probe;
  const auto hi = static_cast<int>(key >> 32);
  const auto lo = static_cast<std::size_t>(key & 0xFFFFFFFFULL);
  if (hi == kSessions + 1) return v.stills[lo];
  return v.sequences[static_cast<std::size_t>(hi - 1)][lo];
}

// What the generated stream implies the server must have reused.
struct ReuseExpectation {
  double video_frames = 0;
  double delta_frames = 0;
  double tiles_reused = 0;
  double cache_hits = 0;
};

// The next request of each stream (session s = 0..kSessions-1 replays its
// sequence with seq 1, 2, ...; stream kSessions cycles the stills), and the
// reuse the requests handed out so far imply.
class VideoCursor {
 public:
  struct Request {
    const Tensor* frame;
    std::uint64_t key;         // content key for verification
    std::uint64_t session_id;  // 0 for stills
    std::uint32_t seq;
  };
  explicit VideoCursor(const VideoStreams& v) : v_(v), seq_(kSessions, 0) {}

  Request next(int stream) {
    if (stream == kSessions) {
      const auto i = static_cast<std::size_t>(stills_sent_++ % kStills);
      if (stills_sent_ > static_cast<std::uint64_t>(kStills)) ++expect_.cache_hits;
      return {&v_.stills[i], still_key(static_cast<int>(i)), 0, 0};
    }
    const auto s = static_cast<std::size_t>(stream);
    const std::uint32_t seq = ++seq_[s];
    const auto f = static_cast<std::size_t>((seq - 1) % kSequenceFrames);
    ++expect_.video_frames;
    if (seq > 1) {
      ++expect_.delta_frames;
      expect_.tiles_reused += static_cast<double>(v_.clean[s][f]);
    }
    return {&v_.sequences[s][f], video_key(stream, static_cast<std::int64_t>(f)),
            v_.session_ids[s], seq};
  }
  const ReuseExpectation& expected() const { return expect_; }

 private:
  const VideoStreams& v_;
  std::vector<std::uint32_t> seq_;
  std::uint64_t stills_sent_ = 0;
  ReuseExpectation expect_;
};

struct VideoResult {
  Samples latency_ms;        // every timed request, stills included
  Samples video_latency_ms;  // video-session frames only
  std::size_t timed_ok = 0;
  std::size_t video_within_limit = 0;
  ReuseExpectation expect;
};

// Closed loop: one video session per connection, one request in flight each,
// plus one stills connection paced by session 0 (a still goes out when a
// session-0 frame completes and the previous still is back), so cache hits
// ride beside the video instead of flooding it. The first response of every
// connection warms the server; the timed window follows for duration_s.
VideoResult run_video_loop(std::uint16_t port, const VideoStreams& v, double duration_s,
                           Report& report, std::vector<Check>& checks, Tracer* tracer = nullptr) {
  VideoResult res;
  LoadGen gen(port);
  const std::string route = route_name(InferencePrecision::kFp32);
  const int stills_conn = kSessions;
  VideoCursor cursor(v);
  for (int k = 0; k <= kSessions; ++k) gen.connect(false);
  std::unordered_map<std::uint64_t, std::uint64_t> key_of;  // tag -> content key
  std::uint64_t next_tag = 1;
  auto send = [&](int conn) {
    const std::uint64_t tag = next_tag++;
    const VideoCursor::Request r = cursor.next(conn);
    key_of[tag] = r.key;
    gen.send_binary(conn, tag, route, *r.frame, r.session_id, r.seq);
    ++report.attempted;
  };
  // Warm-up: one request per connection, all answered before timing starts.
  for (int k = 0; k <= kSessions; ++k) send(k);
  const Clock::time_point give_up =
      Clock::now() + seconds_to(duration_s) + std::chrono::seconds(60);
  auto drain = [&](const std::function<void(const Completion&, bool)>& on_done) {
    while (gen.inflight() > 0) {
      if (Clock::now() > give_up) {
        report.failed += gen.inflight();
        report.fail("video requests never answered");
        return;
      }
      for (const Completion& c : gen.poll(std::chrono::milliseconds(100))) {
        on_done(c, accept(c, key_of[c.tag], report, checks));
      }
    }
  };
  drain([](const Completion&, bool) {});
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + seconds_to(duration_s);
  for (int k = 0; k <= kSessions; ++k) send(k);
  drain([&](const Completion& c, bool ok) {
    if (tracer != nullptr) tracer->record("net.request", c.sent, c.done, Tracer::kNoParent, c.tag);
    if (c.done <= end) {
      const double ms = ms_between(c.sent, c.done);
      res.latency_ms.add(ms);
      if (ok) ++res.timed_ok;
      if (c.connection != stills_conn) {
        res.video_latency_ms.add(ms);
        if (ok && ms <= kVideoLimitMs) ++res.video_within_limit;
      }
    }
    if (Clock::now() >= end || c.connection == stills_conn) return;
    send(c.connection);
    if (c.connection == 0 && gen.inflight(stills_conn) == 0) send(stills_conn);
  });
  res.expect = cursor.expected();
  return res;
}

// Fails the run when the server reused less than the stream implies.
void check_reuse(const ReuseExpectation& e, double video_frames, double delta_frames,
                 double tiles_reused, double cache_hits, Report& report) {
  auto need = [&](const char* what, double got, double want) {
    report.detail(std::string("reuse.") + what + ".expected", want);
    report.detail(std::string("reuse.") + what + ".measured", got);
    if (got + 1e-9 < want) {
      ++report.failed;
      report.fail(std::string("video_reuse: ") + what + " " + std::to_string(got) +
                  " below the stream's " + std::to_string(want));
    }
  };
  need("video_frames", video_frames, e.video_frames);
  need("delta_frames", delta_frames, e.delta_frames);
  need("tiles_reused", tiles_reused, e.tiles_reused);
  need("cache_hits", cache_hits, e.cache_hits);
}

// The traced in-process replay of the video streams through
// ShardedServer::submit_video / submit_admitted, closed loop from one thread.
void replay_video_in_process(const SesrInference& base, const VideoStreams& v, double duration_s,
                             Tracer& tracer, Report& report, std::vector<Check>& checks,
                             Samples& submit_to_ready_ms) {
  const ServeDefinition def = serve_definition("video_reuse");
  ShardedServer server(make_registry(def, base), def.options);
  const sesr::serve::RouteKey key = route_key(InferencePrecision::kFp32);
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<int> finished;  // guarded by mutex: streams whose request resolved
  struct Flight {
    std::future<Tensor> future;
    std::uint64_t content = 0;
    Clock::time_point submitted;
    Clock::time_point ready_at;
    std::uint64_t request = 0;
  };
  std::vector<Flight> flight(kSessions + 1);
  VideoCursor cursor(v);
  std::uint64_t request = 0;
  Samples submit_us;
  auto submit = [&](int stream) {
    Flight& f = flight[static_cast<std::size_t>(stream)];
    sesr::serve::SubmitOptions opts;
    opts.done_hook = [&, stream] {
      const Clock::time_point now = Clock::now();
      const std::lock_guard<std::mutex> lock(mutex);
      flight[static_cast<std::size_t>(stream)].ready_at = now;
      finished.push_back(stream);
      cv.notify_one();
    };
    f.request = ++request;
    ++report.attempted;
    f.submitted = Clock::now();
    const VideoCursor::Request r = cursor.next(stream);
    f.content = r.key;
    if (stream < kSessions) {
      f.future = server.submit_video(key, *r.frame, {r.session_id, r.seq}, std::move(opts)).future;
    } else {
      f.future = server.submit_admitted(key, *r.frame, std::move(opts)).future;
    }
    const Clock::time_point after = Clock::now();
    submit_us.add(ms_between(f.submitted, after) * 1e3);
    tracer.record(stream < kSessions ? "serve.submit_video" : "serve.submit_admitted",
                  f.submitted, after, Tracer::kNoParent, f.request);
  };
  const Clock::time_point end = Clock::now() + seconds_to(duration_s);
  for (int k = 0; k <= kSessions; ++k) submit(k);
  int outstanding = kSessions + 1;
  bool stills_busy = true;
  while (outstanding > 0) {
    std::vector<int> ready;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return !finished.empty(); });
      ready.swap(finished);
    }
    for (int stream : ready) {
      Flight& f = flight[static_cast<std::size_t>(stream)];
      Completion c;
      c.served_route = route_name(InferencePrecision::kFp32);
      try {
        c.hash = hash_tensor(f.future.get());
        c.ok = true;
      } catch (const std::exception& e) {
        c.error = e.what();
      }
      Clock::time_point ready_at;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        ready_at = f.ready_at;
      }
      if (accept(c, f.content, report, checks) && stream != kSessions) {
        submit_to_ready_ms.add(ms_between(f.submitted, ready_at));
        tracer.record("serve.submit_to_ready", f.submitted, ready_at, Tracer::kNoParent, f.request);
      }
      --outstanding;
      if (stream == kSessions) stills_busy = false;
      if (Clock::now() >= end || stream == kSessions) continue;
      submit(stream);
      ++outstanding;
      if (stream == 0 && !stills_busy) {  // stills paced by session 0, as over TCP
        submit(kSessions);
        ++outstanding;
        stills_busy = true;
      }
    }
  }
  const Clock::time_point t0 = Clock::now();
  const sesr::serve::ShardedStats stats = server.stats();
  report.metric("stats.snapshot_ms", ms_since(t0), "ms");
  server.shutdown();
  const sesr::serve::ServerStats& t = stats.total;
  report.timing("serve.submit_us", submit_us, "us");
  report.metric("serve.mean_batch", t.mean_batch_frames, "frames");
  report.metric("admission.shed", static_cast<double>(t.shed), "count");
  report.metric("admission.degraded", static_cast<double>(t.degraded), "count");
  const double frames = static_cast<double>(t.video_frames);
  const double tiles = static_cast<double>(t.video_tiles_reused + t.video_tiles_recomputed);
  const double lookups = static_cast<double>(stats.cache.hits + stats.cache.misses);
  report.metric("video.delta_ratio", ratio_of(static_cast<double>(t.video_delta_frames), frames),
                "ratio");
  report.metric("video.tile_reuse_ratio",
                ratio_of(static_cast<double>(t.video_tiles_reused), tiles), "ratio");
  report.metric("cache.hit_ratio", ratio_of(static_cast<double>(stats.cache.hits), lookups),
                "ratio");
  check_reuse(cursor.expected(), frames, static_cast<double>(t.video_delta_frames),
              static_cast<double>(t.video_tiles_reused), static_cast<double>(stats.cache.hits),
              report);
}

// core.tiled from outside: upscale_tile on every grid tile, plan_tile_delta
// on every transition of session 0, splice_clean_tiles of each delta.
void measure_tiled(const SesrInference& base, const VideoStreams& v, Report& report) {
  const sesr::serve::ServeOptions o = serve_definition("video_reuse").options;
  const std::int64_t halo = sesr::core::receptive_field_radius(base);
  const std::vector<Tensor>& seq = v.sequences[0];
  SesrInference net = with_precision(base, InferencePrecision::kFp32);
  set_threads(1);
  std::vector<Tensor> hr;
  for (const Tensor& f : seq) hr.push_back(net.upscale(f));
  Samples tile_ms;
  Samples delta_ms;
  Samples splice_ms;
  for (std::size_t t = 1; t < seq.size(); ++t) {
    Clock::time_point t0 = Clock::now();
    const sesr::core::DeltaPlan plan =
        sesr::core::plan_tile_delta(seq[t - 1], seq[t], o.tiling, halo);
    delta_ms.add(ms_since(t0));
    Tensor out(hr[t].shape());
    t0 = Clock::now();
    sesr::core::splice_clean_tiles(out, hr[t - 1], plan, 2);
    splice_ms.add(ms_since(t0));
    if (t % 8 == 1) {
      for (const sesr::core::TileTask& task : plan.tasks) {
        t0 = Clock::now();
        const Tensor roi = sesr::core::upscale_tile(net, seq[t], task);
        tile_ms.add(ms_since(t0));
        sesr::core::paste_tile(out, roi, task, 2);
      }
      if (!bit_equal(out, hr[t])) report.fail("core.tiled: tiles + splice differ from upscale");
    }
  }
  report.timing("tiled.tile_ms", tile_ms, "ms");
  report.timing("tiled.delta_plan_ms", delta_ms, "ms");
  report.timing("tiled.splice_ms", splice_ms, "ms");
}

}  // namespace

Report run_video_reuse(const Options& options) {
  Report report;
  record_host_facts(report);
  set_threads(1);
  const SesrInference base = build_model();
  const VideoStreams v = make_streams(options.seed, base);
  std::vector<Check> checks;
  auto frame_of = [&](std::uint64_t key) { return video_frame(v, key); };
  report.detail("video.tiles_per_frame", static_cast<double>(v.tiles_per_frame));

  if (options.trace) {
    Tracer tracer;
    // nn / core.plan on the unit the workers execute: one interior haloed tile.
    const std::int64_t halo = sesr::core::receptive_field_radius(base);
    const std::int64_t side = 64 + 2 * halo;
    Tensor tile(1, side, side, 1);
    for (std::int64_t y = 0; y < side; ++y) {
      for (std::int64_t x = 0; x < side; ++x) tile(0, y, x, 0) = v.probe(0, y, x, 0);
    }
    measure_plan_layers(report, tracer, base, {InferencePrecision::kFp32}, tile,
                        kVideoBaselineShare * options.seconds,
                        [&](InferencePrecision p, const Tensor& got) {
                          return bit_equal(got, with_precision(base, p).upscale(tile));
                        });
    measure_tiled(base, v, report);
    Samples in_process_ms;
    replay_video_in_process(base, v, 0.4 * options.seconds, tracer, report, checks, in_process_ms);
    {
      ServerProcess server(options.self_exe, options.workload);
      const VideoResult tcp =
          run_video_loop(server.port(), v, 0.4 * options.seconds, report, checks, &tracer);
      report.metric("net.overhead_ms", tcp.video_latency_ms.median() - in_process_ms.median(),
                    "ms");
      report.detail("net.tcp_p50_ms", tcp.video_latency_ms.median());
      report.detail("net.in_process_p50_ms", in_process_ms.median());
      server_details(report, server.stop());
    }
    std::vector<std::string> routes;
    std::vector<Tensor> lr;
    std::vector<Tensor> hr;
    for (int rep = 0; rep < 8; ++rep) {
      for (const Tensor& f : v.sequences[0]) {
        routes.push_back(route_name(InferencePrecision::kFp32));
        lr.push_back(f);
        hr.emplace_back(1, kVideoH * 2, kVideoW * 2, 1);
      }
    }
    measure_net_codec(report, routes, lr, hr);
    std::vector<Tensor> probes;
    for (int rep = 0; rep < 50; ++rep) {
      probes.insert(probes.end(), v.stills.begin(), v.stills.end());
    }
    measure_cache_lookup(report, v.stills, probes,
                         serve_definition(options.workload).options.cache_entries);
    verify(base, checks, frame_of, options.corrupt, report);
    fill_missing_layer_metrics(report);
    tracer.write(options.trace_dir + "/video_reuse-seed" + std::to_string(options.seed) +
                 ".spans.json");
    return report;
  }

  ComputeBaseline baseline(base, v.probe, kVideoBaselineShare * options.seconds);
  baseline.measure_half(report);
  Samples setup_s;
  std::unique_ptr<ServerProcess> server =
      spawn_measured(options, v.probe, kVideoProbeKey, setup_s, report, checks);
  const VideoResult res = run_video_loop(server->port(), v,
                                         (1.0 - kVideoBaselineShare) * options.seconds, report,
                                         checks);
  const std::map<std::string, double> s = server->stop();
  server_details(report, s);
  baseline.measure_half(report);
  auto get = [&s](const char* k) {
    const auto it = s.find(k);
    return it == s.end() ? 0.0 : it->second;
  };
  check_reuse(res.expect, get("video_frames"), get("video_delta_frames"), get("tiles_reused"),
              get("cache_hits"), report);
  verify(base, checks, frame_of, options.corrupt, report);

  const double duration = (1.0 - kVideoBaselineShare) * options.seconds;
  report.metric("setup_s", setup_s.median(), "s");
  report.detail("setup_s.samples", static_cast<double>(setup_s.count()));
  report_frame_configs(report, baseline.samples());
  report.detail("frame_ms.shape", std::string("128x256"));
  // Latency is the sessions' experience; the stills' cache hits count in
  // throughput. Mixed with the stills, the median would sit on the gap between
  // the hit and miss populations.
  report.latency(res.video_latency_ms);
  report.metric("slo_attainment",
                res.video_latency_ms.count() > 0
                    ? static_cast<double>(res.video_within_limit) /
                          static_cast<double>(res.video_latency_ms.count())
                    : 0.0,
                "ratio");
  report.detail("throughput_fps", static_cast<double>(res.timed_ok) / duration);
  report.metric("peak_rss_mb", server->peak_rss_mb(), "MB");
  report.detail("slo_limit_ms", kVideoLimitMs);
  return report;
}

// ---------------------------------------------------------- server process

namespace {

void print_stats(ShardedServer& server, const net::NetServer& front, double snapshot_ms) {
  const sesr::serve::ShardedStats s = server.stats();
  const net::NetStats n = front.stats();
  const sesr::serve::ServerStats& t = s.total;
  std::printf(
      "stats completed=%llu failed=%llu rejected=%llu shed=%llu degraded=%llu cache_hits=%llu "
      "cache_misses=%llu video_frames=%llu video_delta_frames=%llu tiles_reused=%llu "
      "tiles_recomputed=%llu mean_batch=%.6g snapshot_ms=%.6g rss_mb=%.6g net_requests=%llu "
      "net_http_requests=%llu net_malformed=%llu net_timeouts=%llu",
      static_cast<unsigned long long>(t.completed), static_cast<unsigned long long>(t.failed),
      static_cast<unsigned long long>(t.rejected), static_cast<unsigned long long>(t.shed),
      static_cast<unsigned long long>(t.degraded),
      static_cast<unsigned long long>(s.cache.hits),
      static_cast<unsigned long long>(s.cache.misses),
      static_cast<unsigned long long>(t.video_frames),
      static_cast<unsigned long long>(t.video_delta_frames),
      static_cast<unsigned long long>(t.video_tiles_reused),
      static_cast<unsigned long long>(t.video_tiles_recomputed), t.mean_batch_frames, snapshot_ms,
      peak_rss_mb(), static_cast<unsigned long long>(n.requests),
      static_cast<unsigned long long>(n.http_requests),
      static_cast<unsigned long long>(n.malformed), static_cast<unsigned long long>(n.timeouts));
  for (const sesr::serve::RouteStats& r : s.per_route) {
    std::printf(" ewma_us.%s=%.6g", r.route.c_str(), r.service_ewma_us);
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int run_server_process(const std::string& workload) {
  set_threads(1);
  const ServeDefinition def = serve_definition(workload);
  const SesrInference base = build_model();
  ShardedServer server(make_registry(def, base), def.options);
  net::NetServer front(server, net::NetServerOptions{});
  std::printf("ready %u\n", static_cast<unsigned>(front.port()));
  std::fflush(stdout);
  char line[64];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::strncmp(line, "quit", 4) == 0) break;
  }
  front.shutdown();
  const Clock::time_point t0 = Clock::now();
  (void)server.stats();
  const double snapshot_ms = ms_since(t0);
  server.begin_drain();
  server.shutdown();
  print_stats(server, front, snapshot_ms);
  return 0;
}

}  // namespace perfbench
