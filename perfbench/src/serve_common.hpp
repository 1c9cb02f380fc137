// Pieces the two TCP workloads share: their fixed server definitions, the
// server child process, the single-threaded load generator, seeded frames and
// output hashing.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "serve/net/socket.hpp"
#include "serve/net/wire.hpp"
#include "serve/registry.hpp"
#include "serve/serve_options.hpp"

namespace perfbench {

// ------------------------------------------------------- workload definitions

// The server side of a TCP workload: which m5:2 routes it carries and every
// batching, admission, worker and reuse setting. Fixed per workload; the
// server process and the in-process traced replay both build from it.
struct ServeDefinition {
  std::vector<InferencePrecision> precisions;
  sesr::serve::ServeOptions options;
};
ServeDefinition serve_definition(const std::string& workload);

sesr::serve::RouteKey route_key(InferencePrecision p);
std::string route_name(InferencePrecision p);  // "m5:2:fp32"

// The registry a server of `definition` serves (every route shares `base`).
sesr::serve::NetworkRegistry make_registry(const ServeDefinition& definition,
                                           const SesrInference& base);

// ------------------------------------------------------------------ hashing

struct Hash128 {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Hash128& o) const { return a == o.a && b == o.b; }
  bool operator!=(const Hash128& o) const { return !(*this == o); }
};
// Two independent 64-bit hashes of the bytes: stored in place of each served
// HR frame so the run can compare every output without keeping it.
Hash128 hash_bytes(const void* data, std::size_t bytes);
inline Hash128 hash_tensor(const Tensor& t) {
  return hash_bytes(t.raw(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

// Seeded, pairwise-distinct LR frames: crops of a few seeded textures, each
// stamped with its index so no two frames share their bytes.
class FramePool {
 public:
  FramePool(std::uint64_t seed, std::int64_t texture_side);
  Tensor frame(std::uint64_t index, std::int64_t h, std::int64_t w) const;

 private:
  std::uint64_t seed_;
  std::vector<Tensor> textures_;
};

// ----------------------------------------------------------- server process

// One server child: `harness serve --workload W`. Its stdout carries the
// "ready <port>" handshake and, at exit, one "stats k=v ..." line; a "quit"
// line (or EOF) on its stdin stops it.
class ServerProcess {
 public:
  ServerProcess(const std::string& exe, const std::string& workload);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  Clock::time_point spawned() const { return spawned_; }
  double peak_rss_mb() const;  // the server's VmHWM, known once stopped
  // Drains and stops the server; returns its final counters. Idempotent.
  std::map<std::string, double> stop();

 private:
  std::map<std::string, double> read_stats();
  std::string read_line();

  int pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  std::uint16_t port_ = 0;
  Clock::time_point spawned_;
  std::map<std::string, double> final_;
  bool stopped_ = false;
};

// ------------------------------------------------------------ load generator

// One response as the client saw it.
struct Completion {
  std::uint64_t tag = 0;      // the caller's request tag
  bool ok = false;            // kOk / HTTP 200
  std::string served_route;
  Hash128 hash;               // of the HR pixels
  std::string error;
  Clock::time_point sent;
  Clock::time_point done;
  int connection = 0;
};

// Single-threaded client over any number of connections: requests are written
// with blocking sends, responses are collected by poll(). Binary connections
// pipeline freely (responses matched by id); HTTP connections pipeline in
// order. Nothing here spawns a thread.
class LoadGen {
 public:
  explicit LoadGen(std::uint16_t port) : port_(port) {}
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  int connect(bool http);

  // Binary upscale or video-session frame (session_id > 0).
  void send_binary(int conn, std::uint64_t tag, const std::string& route, const Tensor& frame,
                   std::uint64_t session_id = 0, std::uint32_t seq = 0);
  void send_http_upscale(int conn, std::uint64_t tag, const std::string& route,
                         const Tensor& frame);
  void send_http_get(int conn, std::uint64_t tag, const std::string& path);

  // Waits up to `timeout` for responses; returns the ones that completed.
  std::vector<Completion> poll(Clock::duration timeout);
  std::size_t inflight() const;
  std::size_t inflight(int conn) const;

 private:
  struct Pending {
    std::uint64_t tag;
    Clock::time_point sent;
  };
  struct Conn {
    sesr::serve::net::Fd fd;
    bool http = false;
    sesr::serve::net::FrameReader reader;
    std::vector<std::uint8_t> http_buf;
    std::unordered_map<std::uint64_t, Pending> by_id;  // binary
    std::deque<Pending> fifo;                           // HTTP
    std::uint64_t next_id = 1;
    bool closed = false;
  };
  void read_conn(int index, std::vector<Completion>& out);
  bool parse_http(Conn& c, int index, std::vector<Completion>& out);

  std::uint16_t port_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

// Serialises the pixels of a (1, H, W, 1) frame as the raw little-endian f32
// body of POST /v1/upscale.
std::string http_upscale_request(const std::string& route, const Tensor& frame);

}  // namespace perfbench
