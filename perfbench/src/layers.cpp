#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "nn_replay.hpp"
#include "serve/net/http.hpp"
#include "serve/net/wire.hpp"
#include "serve/response_cache.hpp"
#include "serve_common.hpp"

namespace perfbench {

namespace net = sesr::serve::net;

namespace {
// Largest share of the traced upscale_into by which its replayed steps may
// exceed it (plan self time below zero) before the traced run fails.
constexpr double kSelfTolerance = 0.05;
}  // namespace

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m;
    for (const char* stage : {"head", "body", "tail"}) {
      for (const char* p : {"fp32", "fp16", "int8"}) {
        const std::string key = std::string("nn.") + stage + "." + p;
        m.push_back({key + ".ms", "ms"});
        m.push_back({key + ".gops", "GFLOP/s"});
      }
    }
    const LayerMetric rest[] = {
        {"nn.d2s.ms", "ms"},
        {"plan.fp32.self_ms", "ms"},
        {"plan.fp16.self_ms", "ms"},
        {"plan.int8.self_ms", "ms"},
        {"plan.hybrid.self_ms", "ms"},
        {"plan.compile_ms", "ms"},
        {"plan.arena_bytes", "bytes"},
        {"plan.allocs_per_frame", "count"},
        {"tiled.tile_ms", "ms"},
        {"tiled.delta_plan_ms", "ms"},
        {"tiled.splice_ms", "ms"},
        {"net.wire_encode_us", "us"},
        {"net.wire_decode_us", "us"},
        {"net.http_parse_us", "us"},
        {"net.overhead_ms", "ms"},
        {"serve.submit_us", "us"},
        {"serve.wait_ms.p50", "ms"},
        {"serve.wait_ms.p99", "ms"},
        {"serve.mean_batch", "frames"},
        {"admission.shed", "count"},
        {"admission.degraded", "count"},
        {"admission.estimate_ratio", "ratio"},
        {"cache.hit_ratio", "ratio"},
        {"cache.lookup_us", "us"},
        {"video.delta_ratio", "ratio"},
        {"video.tile_reuse_ratio", "ratio"},
        {"stats.snapshot_ms", "ms"},
        {"stats.poll_p99_ms", "ms"},
    };
    m.insert(m.end(), std::begin(rest), std::end(rest));
    return m;
  }();
  return metrics;
}

void fill_missing_layer_metrics(Report& report) {
  for (const LayerMetric& m : layer_metrics()) {
    if (report.metrics.count(m.name) == 0) report.metric(m.name, 0.0, m.unit);
  }
}

void measure_plan_layers(
    Report& report, Tracer& tracer, const SesrInference& base,
    const std::vector<InferencePrecision>& precisions, const Tensor& input, double seconds,
    const std::function<bool(InferencePrecision, Tensor&)>& check_first) {
  set_threads(1);
  const sesr::Shape& shape = input.shape();
  Tensor out(1, shape.h() * 2, shape.w() * 2, 1);

  // plan.compile_ms: a fresh instance's first frame (plan compile, arena
  // growth) beyond a warm one.
  {
    SesrInference fresh = with_precision(base, precisions.front());
    const Clock::time_point t0 = Clock::now();
    fresh.upscale_into(input, out);
    const double cold = ms_since(t0);
    Samples warm;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t1 = Clock::now();
      fresh.upscale_into(input, out);
      warm.add(ms_since(t1));
    }
    report.metric("plan.compile_ms", std::max(0.0, cold - warm.median()), "ms");
  }

  std::vector<SesrInference> nets;
  for (InferencePrecision p : precisions) nets.push_back(with_precision(base, p));
  double arena = 0.0;
  double allocs = 0.0;
  for (SesrInference& n : nets) {
    n.upscale_into(input, out);
    const std::uint64_t before = heap_allocations();
    n.upscale_into(input, out);
    allocs = std::max(allocs, static_cast<double>(heap_allocations() - before));
    arena = std::max(arena, static_cast<double>(n.plan_arena_bytes()));
  }
  report.metric("plan.arena_bytes", arena, "bytes");
  report.metric("plan.allocs_per_frame", allocs, "count");

  std::vector<NnReplay> replays;
  for (const SesrInference& n : nets) replays.emplace_back(n, shape.h(), shape.w());
  Tensor replay_out(out.shape());
  std::vector<Tensor> first(nets.size());
  std::vector<Samples> traced_ms(nets.size());
  std::vector<Samples> untraced_ms(nets.size());
  std::vector<Samples> overhead_ms(nets.size());  // traced minus untraced, per round
  std::vector<std::vector<Samples>> step_ms(nets.size());
  std::vector<Samples> d2s_ms(nets.size());
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::uint64_t request = 0;
  for (int round = 0; Clock::now() < deadline || round < 3; ++round) {
    for (std::size_t k = 0; k < nets.size(); ++k) {
      const std::string name = precision_name(precisions[k]);
      ++request;
      const std::int64_t span = traced(tracer, "plan.upscale_into", Tracer::kNoParent, request,
                                       [&] { nets[k].upscale_into(input, out); });
      traced_ms[k].add(tracer.duration_ms(span));
      const std::int64_t replay = tracer.open("nn.replay", Tracer::kNoParent, request);
      const StepTimes steps = replays[k].run(input, replay_out, &tracer, replay, request);
      tracer.close(replay);
      step_ms[k].resize(steps.conv_ms.size());
      for (std::size_t i = 0; i < steps.conv_ms.size(); ++i) step_ms[k][i].add(steps.conv_ms[i]);
      d2s_ms[k].add(steps.d2s_ms);
      ++report.attempted;
      if (first[k].numel() == 0) {
        if (!check_first(precisions[k], out)) ++report.failed;
        first[k] = out;
      } else if (!bit_equal(out, first[k])) {
        ++report.failed;
        report.fail(name + ": output changed between warm frames");
      }
      if (!bit_equal(replay_out, first[k])) {
        ++report.failed;
        report.fail(name + ": the nn replay differs from upscale_into, so nn.* would time "
                           "another computation");
      }
      // The same call untraced, right after: the traced and untraced times
      // differ by the tracing overhead.
      const Clock::time_point t0 = Clock::now();
      nets[k].upscale_into(input, out);
      untraced_ms[k].add(ms_since(t0));
      overhead_ms[k].add(traced_ms[k].values().back() - untraced_ms[k].values().back());
      ++report.attempted;
      if (!bit_equal(out, first[k])) {
        ++report.failed;
        report.fail(name + ": untraced output differs from the traced one");
      }
    }
  }

  // Every time below is the fastest call of its kind (Report::fastest), like
  // frame_ms_*. plan.<p>.self_ms is the traced upscale_into minus the step
  // times as reported (body counted once per body conv, the fp32 shuffle for
  // every precision), so steps plus self_ms add up to trace.upscale_into_ms.<p>.
  // trace.overhead_ms.<p> is the median over rounds of the traced minus the
  // untraced call of that round: paired, so the host's drift cancels.
  double d2s = 0.0;
  for (std::size_t k = 0; k < nets.size(); ++k) {
    if (precisions[k] == InferencePrecision::kFp32) d2s = d2s_ms[k].min();
  }
  if (d2s == 0.0) d2s = d2s_ms.front().min();
  report.metric("nn.d2s.ms", d2s, "ms");
  for (std::size_t k = 0; k < nets.size(); ++k) {
    const InferencePrecision p = precisions[k];
    const char* name = precision_name(p);
    const std::size_t n = step_ms[k].size();
    double steps = d2s;
    if (p == InferencePrecision::kHybrid) {
      for (const Samples& conv : step_ms[k]) steps += conv.min();
    } else {
      Samples body;  // every body conv shares one shape; pool their samples
      for (std::size_t i = 1; i + 1 < n; ++i) {
        for (double v : step_ms[k][i].values()) body.add(v);
      }
      const struct {
        const char* stage;
        std::size_t conv;
        const Samples* times;
        double count;
      } stages[] = {{"head", 0, &step_ms[k][0], 1.0},
                    {"body", 1, &body, static_cast<double>(n - 2)},
                    {"tail", n - 1, &step_ms[k][n - 1], 1.0}};
      for (const auto& s : stages) {
        const std::string key = std::string("nn.") + s.stage + "." + name;
        const double ms = s.times->min();
        report.fastest(key + ".ms", *s.times, "ms");
        report.metric(key + ".gops", 2.0 * replays[k].conv_macs(s.conv) / (ms * 1e6), "GFLOP/s");
        report.detail(key + ".bytes", replays[k].conv_bytes(s.conv));
        steps += s.count * ms;
      }
      report.detail(std::string("nn.body.") + name + ".convs", static_cast<double>(n - 2));
    }
    const double traced = traced_ms[k].min();
    const double self = traced - steps;
    report.metric(std::string("plan.") + name + ".self_ms", self, "ms");
    const std::string key = std::string("trace.upscale_into_ms.") + name;
    report.detail(key, traced);
    report.detail(key + ".median", traced_ms[k].median());
    report.detail(key + ".samples", static_cast<double>(traced_ms[k].count()));
    report.detail(std::string("trace.untraced_upscale_into_ms.") + name, untraced_ms[k].min());
    report.detail(std::string("trace.overhead_ms.") + name, overhead_ms[k].median());
    // The replayed steps cannot cost more than the forward they decompose,
    // beyond what the host's noise gives the fastest calls.
    if (self < -kSelfTolerance * traced) {
      ++report.failed;
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "plan.%s.self_ms = %.3f: the replayed steps take longer than upscale_into "
                    "(%.3f ms) by more than %.0f%%",
                    name, self, traced, 100.0 * kSelfTolerance);
      report.fail(buf);
    }
  }
}

void measure_net_codec(Report& report, const std::vector<std::string>& routes,
                       const std::vector<Tensor>& requests, const std::vector<Tensor>& outputs) {
  Samples encode_us;
  Samples decode_us;
  Samples http_us;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    net::WireRequest req;
    req.id = i + 1;
    req.route = routes[i];
    req.h = requests[i].shape().h();
    req.w = requests[i].shape().w();
    req.pixels = net::frame_to_pixels(requests[i]);
    net::WireResponse resp;
    resp.id = i + 1;
    resp.route = routes[i];
    resp.h = outputs[i].shape().h();
    resp.w = outputs[i].shape().w();
    resp.pixels = net::frame_to_pixels(outputs[i]);

    Clock::time_point t0 = Clock::now();
    const std::vector<std::uint8_t> req_bytes = net::encode_request(req);
    const std::vector<std::uint8_t> resp_bytes = net::encode_response(resp);
    encode_us.add(ms_since(t0) * 1e3);

    const std::vector<std::uint8_t> req_payload(req_bytes.begin() + 8, req_bytes.end());
    const std::vector<std::uint8_t> resp_payload(resp_bytes.begin() + 8, resp_bytes.end());
    t0 = Clock::now();
    const bool decoded = net::decode_request(req_payload).has_value() &&
                         net::decode_response(resp_payload).has_value();
    decode_us.add(ms_since(t0) * 1e3);

    const std::string http = http_upscale_request(routes[i], requests[i]);
    t0 = Clock::now();
    net::HttpReader reader;
    reader.feed(reinterpret_cast<const std::uint8_t*>(http.data()), http.size());
    const bool parsed = reader.next().has_value();
    http_us.add(ms_since(t0) * 1e3);
    if (!decoded || !parsed) report.fail("serve.net codec round trip failed");
  }
  report.timing("net.wire_encode_us", encode_us, "us");
  report.timing("net.wire_decode_us", decode_us, "us");
  report.timing("net.http_parse_us", http_us, "us");
}

void measure_cache_lookup(Report& report, const std::vector<Tensor>& stored,
                          const std::vector<Tensor>& probes, std::size_t capacity) {
  sesr::serve::ResponseCache cache(capacity);
  for (const Tensor& f : stored) {
    cache.insert(0, f, Tensor(1, f.shape().h() * 2, f.shape().w() * 2, 1));
  }
  Samples us;
  double hits = 0;
  for (const Tensor& f : probes) {
    const Clock::time_point t0 = Clock::now();
    hits += cache.lookup(0, f).has_value() ? 1 : 0;
    us.add(ms_since(t0) * 1e3);
  }
  report.timing("cache.lookup_us", us, "us");
  report.detail("cache.lookup_hits", hits);
}

}  // namespace perfbench
