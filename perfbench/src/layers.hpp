// Per-layer measurements of the traced run, taken from outside each layer by
// timing the harness's own calls into its public functions.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

// Every per-layer metric, with its unit. A traced run reports all of them; a
// layer the workload never calls reports 0 (it did no work).
struct LayerMetric {
  std::string name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();
void fill_missing_layer_metrics(Report& report);

// nn + core.plan on one frame shape: for each precision in `precisions`,
// repeatedly times the real upscale_into traced, replays its steps through
// the nn kernels, and times it again untraced, until `seconds` pass. Reports
// nn.{head,body,tail}.<p>.{ms,gops} (fp32/fp16/int8), nn.d2s.ms,
// plan.<p>.self_ms (upscale_into minus its step kernels), plan.compile_ms,
// plan.arena_bytes and plan.allocs_per_frame, and the tracing overhead as a
// detail. `check_first` validates (and may alter) the first output of each
// precision; every later output, and every replay, must be bit-identical to
// it. A self time below -5% of the frame fails the run.
void measure_plan_layers(
    Report& report, Tracer& tracer, const SesrInference& base,
    const std::vector<InferencePrecision>& precisions, const Tensor& input, double seconds,
    const std::function<bool(InferencePrecision, Tensor&)>& check_first);

// serve.net: wire encode/decode of each request (and its response) in
// `requests`, and HTTP parsing of the same frames as POST /v1/upscale.
// `outputs[i]` is the HR frame answering requests[i].
void measure_net_codec(Report& report, const std::vector<std::string>& routes,
                       const std::vector<Tensor>& requests, const std::vector<Tensor>& outputs);

// serve.cache: ResponseCache::lookup cost. `stored` are inserted first, then
// every frame of `probes` is looked up (hits when they repeat `stored`).
void measure_cache_lookup(Report& report, const std::vector<Tensor>& stored,
                          const std::vector<Tensor>& probes, std::size_t capacity);

}  // namespace perfbench
